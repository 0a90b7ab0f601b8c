#include "lp/rounding.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>

#include "lp/ilp.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace causumx {

size_t SelectionProblem::RequiredCoverage() const {
  return static_cast<size_t>(
      std::ceil(theta * static_cast<double>(num_groups) - 1e-9));
}

LinearProgram SelectionProblem::BuildLp() const {
  const size_t l = candidates.size();
  const size_t m = num_groups;
  LinearProgram lp;
  lp.objective.assign(l + m, 0.0);
  for (size_t j = 0; j < l; ++j) lp.objective[j] = candidates[j].weight;
  lp.upper_bounds.assign(l + m, 1.0);

  // (1) sum_j g_j <= k.
  {
    std::vector<double> row(l + m, 0.0);
    for (size_t j = 0; j < l; ++j) row[j] = 1.0;
    lp.AddRow(std::move(row), ConstraintSense::kLe,
              static_cast<double>(k));
  }
  // (2) t_i - sum_{j covers i} g_j <= 0.
  for (size_t i = 0; i < m; ++i) {
    std::vector<double> row(l + m, 0.0);
    row[l + i] = 1.0;
    for (size_t j = 0; j < l; ++j) {
      if (candidates[j].coverage.Test(i)) row[j] = -1.0;
    }
    lp.AddRow(std::move(row), ConstraintSense::kLe, 0.0);
  }
  // (3) sum_i t_i >= theta * m.
  {
    std::vector<double> row(l + m, 0.0);
    for (size_t i = 0; i < m; ++i) row[l + i] = 1.0;
    lp.AddRow(std::move(row), ConstraintSense::kGe,
              static_cast<double>(RequiredCoverage()));
  }
  return lp;
}

LinearProgram SelectionProblem::BuildReducedLp(
    std::vector<size_t>* signature_counts) const {
  const size_t l = candidates.size();
  // Signature of group i = the set of candidates covering it. Groups
  // covered by no candidate contribute nothing and are dropped (their
  // t_i is forced to 0 anyway). Groups are partitioned by signature by
  // refinement over the candidates' set bits: candidate j moves the
  // covered members of each class into a class of their own, so two
  // groups share a class iff the same candidates cover them, and class 0
  // holds the uncovered ones. Each class's signature is then read off
  // one member.
  std::vector<uint32_t> class_of(num_groups, 0);
  std::vector<uint32_t> split_by = {UINT32_MAX};  // per class: candidate
  std::vector<uint32_t> split_to = {0};           // per class: its split
  for (size_t j = 0; j < l; ++j) {
    const Bitset& cov = candidates[j].coverage;
    const size_t words = std::min(cov.num_words(), (num_groups + 63) / 64);
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t bits = cov.data()[w]; bits != 0; bits &= bits - 1) {
        const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        if (i >= num_groups) break;
        const uint32_t c = class_of[i];
        if (split_by[c] != j) {
          split_by[c] = static_cast<uint32_t>(j);
          split_to[c] = static_cast<uint32_t>(split_by.size());
          split_by.push_back(UINT32_MAX);
          split_to.push_back(0);
        }
        class_of[i] = split_to[c];
      }
    }
  }
  std::vector<size_t> class_count(split_by.size(), 0);
  std::vector<size_t> member(split_by.size(), 0);
  for (size_t i = 0; i < num_groups; ++i) {
    if (class_count[class_of[i]]++ == 0) member[class_of[i]] = i;
  }
  std::map<std::vector<uint32_t>, size_t> sig_count;
  for (size_t c = 1; c < class_count.size(); ++c) {
    if (class_count[c] == 0) continue;
    std::vector<uint32_t> sig;
    for (size_t j = 0; j < l; ++j) {
      if (candidates[j].coverage.Test(member[c])) {
        sig.push_back(static_cast<uint32_t>(j));
      }
    }
    sig_count[sig] += class_count[c];
  }
  std::vector<std::vector<uint32_t>> sigs;
  signature_counts->clear();
  for (const auto& [sig, count] : sig_count) {
    sigs.push_back(sig);
    signature_counts->push_back(count);
  }
  const size_t s = sigs.size();

  LinearProgram lp;
  lp.objective.assign(l + s, 0.0);
  for (size_t j = 0; j < l; ++j) lp.objective[j] = candidates[j].weight;
  lp.upper_bounds.assign(l + s, 1.0);
  for (size_t c = 0; c < s; ++c) {
    lp.upper_bounds[l + c] = static_cast<double>((*signature_counts)[c]);
  }
  {
    std::vector<double> row(l + s, 0.0);
    for (size_t j = 0; j < l; ++j) row[j] = 1.0;
    lp.AddRow(std::move(row), ConstraintSense::kLe, static_cast<double>(k));
  }
  // t_c <= count_c * sum_{j in sig} g_j  (all count_c groups of the
  // signature become coverable once any covering candidate is selected).
  for (size_t c = 0; c < s; ++c) {
    std::vector<double> row(l + s, 0.0);
    row[l + c] = 1.0;
    for (uint32_t j : sigs[c]) {
      row[j] = -static_cast<double>((*signature_counts)[c]);
    }
    lp.AddRow(std::move(row), ConstraintSense::kLe, 0.0);
  }
  {
    std::vector<double> row(l + s, 0.0);
    for (size_t c = 0; c < s; ++c) row[l + c] = 1.0;
    lp.AddRow(std::move(row), ConstraintSense::kGe,
              static_cast<double>(RequiredCoverage()));
  }
  return lp;
}

namespace {

// Evaluates a chosen index set against the problem constraints.
SelectionResult Evaluate(const SelectionProblem& p,
                         const std::vector<size_t>& selected) {
  SelectionResult r;
  r.selected = selected;
  std::sort(r.selected.begin(), r.selected.end());
  r.selected.erase(std::unique(r.selected.begin(), r.selected.end()),
                   r.selected.end());
  Bitset covered(p.num_groups);
  for (size_t j : r.selected) {
    r.total_weight += p.candidates[j].weight;
    covered |= p.candidates[j].coverage;
  }
  r.covered_groups = covered.Count();
  r.feasible = r.selected.size() <= p.k &&
               r.covered_groups >= p.RequiredCoverage();
  return r;
}

bool Better(const SelectionResult& a, const SelectionResult& b) {
  // Feasible beats infeasible; then weight; then coverage.
  if (a.feasible != b.feasible) return a.feasible;
  if (a.feasible) return a.total_weight > b.total_weight;
  if (a.covered_groups != b.covered_groups) {
    return a.covered_groups > b.covered_groups;
  }
  return a.total_weight > b.total_weight;
}

}  // namespace

SelectionResult SolveByLpRounding(const SelectionProblem& p, size_t rounds,
                                  uint64_t seed) {
  SelectionResult best;
  if (p.candidates.empty()) {
    best.feasible = p.RequiredCoverage() == 0;
    return best;
  }
  std::vector<size_t> sig_counts;
  const LpSolution lp = SolveLp(p.BuildReducedLp(&sig_counts));
  if (lp.status != LpStatus::kOptimal) {
    // LP infeasible => ILP infeasible (Prop. A.1(1)); report best effort 0.
    return best;
  }
  best.lp_feasible = true;
  const size_t l = p.candidates.size();

  // Sampling weights g_j / k (clip tiny negatives from the solver).
  std::vector<double> weights(l, 0.0);
  for (size_t j = 0; j < l; ++j) {
    weights[j] = std::max(0.0, lp.values[j]);
  }

  Rng rng(seed);
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<size_t> pick;
    pick.reserve(p.k);
    for (size_t draw = 0; draw < p.k; ++draw) {
      pick.push_back(rng.NextWeighted(weights));
    }
    SelectionResult cand = Evaluate(p, pick);
    cand.lp_feasible = true;
    cand.lp_objective = lp.objective_value;
    if (round == 0 || Better(cand, best)) best = std::move(cand);
  }
  best.lp_objective = lp.objective_value;
  return best;
}

SelectionResult SolveExact(const SelectionProblem& p) {
  SelectionResult best;
  if (p.candidates.empty()) {
    best.feasible = p.RequiredCoverage() == 0;
    return best;
  }
  std::vector<size_t> sig_counts;
  const IlpSolution ilp =
      SolveBinaryIlp(p.BuildReducedLp(&sig_counts), 100'000,
                     /*num_binary_vars=*/p.candidates.size());
  if (ilp.status != LpStatus::kOptimal &&
      ilp.status != LpStatus::kIterLimit) {
    return best;
  }
  std::vector<size_t> selected;
  for (size_t j = 0; j < p.candidates.size(); ++j) {
    if (ilp.values[j] > 0.5) selected.push_back(j);
  }
  best = Evaluate(p, selected);
  best.lp_feasible = true;
  best.lp_objective = ilp.objective_value;
  return best;
}

SelectionResult SolveGreedy(const SelectionProblem& p, double gain_bonus,
                            ThreadPool* pool) {
  SelectionResult result;
  Bitset covered(p.num_groups);
  const size_t l = p.candidates.size();
  std::set<size_t> chosen;
  // Incomparability constraint: never take two candidates with the same
  // coverage. The dedup compares bit content on a hash-bucket hit — a
  // hash-only check would let a 64-bit collision silently skip a distinct
  // candidate and degrade the selection.
  BitsetDedup used_coverages;

  std::vector<double> scores(l);
  constexpr double kExcluded = -1e301;  // below any real score
  for (size_t step = 0; step < p.k; ++step) {
    // Marginal-gain scan: each candidate's score is an independent
    // popcount (|coverage \ covered|), computed pool-parallel; the
    // argmax below runs serially in index order, so the chosen index —
    // the first candidate achieving the maximum — matches the serial
    // scan exactly.
    ThreadPool::RunOn(pool, l, [&](size_t j) {
      if (chosen.count(j) ||
          used_coverages.Contains(p.candidates[j].coverage)) {
        scores[j] = kExcluded;
        return;
      }
      // Ranged marginal-gain count: candidate coverages are sized to
      // the problem's group universe, so scanning exactly [0,
      // num_groups) keeps the score correct even if a caller hands in
      // coverages over a grown (appended) universe.
      const double gain =
          gain_bonus == 0.0
              ? 0.0
              : static_cast<double>(p.candidates[j].coverage.CountAndNotRange(
                    covered, 0, p.num_groups));
      scores[j] = p.candidates[j].weight + gain_bonus * gain;
    });
    size_t best_j = l;
    double best_score = -1e300;
    for (size_t j = 0; j < l; ++j) {
      if (scores[j] == kExcluded) continue;
      if (scores[j] > best_score) {
        best_score = scores[j];
        best_j = j;
      }
    }
    if (best_j == l) break;
    chosen.insert(best_j);
    used_coverages.Insert(p.candidates[best_j].coverage);
    covered |= p.candidates[best_j].coverage;
  }
  result = Evaluate(p, {chosen.begin(), chosen.end()});
  return result;
}

}  // namespace causumx
