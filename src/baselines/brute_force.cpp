#include "baselines/brute_force.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "lp/rounding.h"
#include "mining/treatment_miner.h"
#include "util/thread_pool.h"

namespace causumx {

namespace {

// Enumerates every conjunction of equality predicates over `attributes`
// up to `max_depth`, without a support floor (that is the point of the
// brute force).
std::vector<Pattern> EnumerateEqualityPatterns(
    const Table& table, const std::vector<std::string>& attributes,
    size_t max_depth, size_t max_values_per_attribute) {
  // Per-attribute atom lists.
  std::vector<std::vector<SimplePredicate>> atoms_by_attr;
  for (const auto& name : attributes) {
    auto idx = table.ColumnIndex(name);
    if (!idx) continue;
    const Column& col = table.column(*idx);
    if (col.NumDistinct() > max_values_per_attribute) continue;
    std::vector<SimplePredicate> atoms;
    for (const Value& v : col.DistinctValues()) {
      atoms.emplace_back(name, CompareOp::kEq, v);
    }
    atoms_by_attr.push_back(std::move(atoms));
  }

  std::vector<Pattern> out;
  // Depth-first over attribute combinations (each attribute used at most
  // once — two equalities on one attribute are contradictory).
  std::vector<SimplePredicate> current;
  std::function<void(size_t)> rec = [&](size_t attr_start) {
    if (!current.empty()) out.emplace_back(current);
    if (current.size() >= max_depth) return;
    for (size_t a = attr_start; a < atoms_by_attr.size(); ++a) {
      for (const auto& atom : atoms_by_attr[a]) {
        current.push_back(atom);
        rec(a + 1);
        current.pop_back();
      }
    }
  };
  rec(0);
  return out;
}

}  // namespace

BruteForceResult RunBruteForce(const Table& table,
                               const GroupByAvgQuery& query,
                               const CausalDag& dag,
                               const BruteForceConfig& config,
                               std::shared_ptr<EvalEngine> engine,
                               std::shared_ptr<EstimatorContext> estimator_ctx) {
  if (engine == nullptr) {
    engine = std::make_shared<EvalEngine>(BorrowTable(table));
  }
  if (estimator_ctx == nullptr) {
    estimator_ctx =
        std::make_shared<EstimatorContext>(engine, dag, config.estimator);
  }
  BruteForceResult result;
  const AggregateView view = AggregateView::Evaluate(table, query);
  const size_t m = view.NumGroups();
  result.summary.num_groups = m;
  if (m == 0) return result;

  const AttributePartition partition =
      PartitionAttributes(table, query.group_by, query.avg_attribute);

  // --- All grouping patterns + coverage, deduped by coverage set. ---------
  std::vector<Pattern> gpatterns = EnumerateEqualityPatterns(
      table, partition.grouping_attributes, config.max_grouping_depth, 64);
  // Per-group fallbacks (single group-by attribute only).
  if (query.group_by.size() == 1) {
    for (size_t g = 0; g < m; ++g) {
      gpatterns.push_back(Pattern({SimplePredicate(
          query.group_by[0], CompareOp::kEq, view.group(g).key[0])}));
    }
  }
  struct GroupingCandidate {
    Pattern pattern;
    Bitset rows;
    Bitset coverage;
  };
  std::vector<GroupingCandidate> grouping;
  std::unordered_map<uint64_t, size_t> by_coverage;
  for (auto& p : gpatterns) {
    ++result.grouping_patterns_enumerated;
    Bitset rows = engine->Evaluate(p);
    Bitset coverage(m);
    for (size_t g = 0; g < m; ++g) {
      const auto& grp = view.group(g);
      bool all = !grp.rows.empty();
      for (size_t r : grp.rows) {
        if (!rows.Test(r)) {
          all = false;
          break;
        }
      }
      if (all) coverage.Set(g);
    }
    if (coverage.None()) continue;
    const uint64_t h = coverage.Hash();
    auto it = by_coverage.find(h);
    if (it == by_coverage.end()) {
      by_coverage.emplace(h, grouping.size());
      grouping.push_back(
          GroupingCandidate{std::move(p), std::move(rows), std::move(coverage)});
    } else if (p.Size() < grouping[it->second].pattern.Size()) {
      grouping[it->second] =
          GroupingCandidate{std::move(p), std::move(rows), std::move(coverage)};
    }
  }

  // --- All treatment patterns (atoms from the shared generator, expanded
  // exhaustively to the depth cap). ----------------------------------------
  const std::vector<SimplePredicate> atoms = GenerateAtomicTreatments(
      *engine, partition.treatment_attributes, config.treatment);
  std::vector<Pattern> tpatterns;
  {
    std::vector<SimplePredicate> current;
    std::function<void(size_t)> rec = [&](size_t start) {
      if (!current.empty()) tpatterns.emplace_back(current);
      if (current.size() >= config.max_treatment_depth) return;
      for (size_t a = start; a < atoms.size(); ++a) {
        // Skip conjunctions repeating an attribute with = (contradiction).
        bool conflict = false;
        for (const auto& c : current) {
          if (c.attribute == atoms[a].attribute &&
              (c.op == CompareOp::kEq || atoms[a].op == CompareOp::kEq ||
               c.op == atoms[a].op)) {
            conflict = true;
            break;
          }
        }
        if (conflict) continue;
        current.push_back(atoms[a]);
        rec(a + 1);
        current.pop_back();
      }
    };
    rec(0);
  }
  result.treatment_patterns_enumerated = tpatterns.size();

  // --- Evaluate every (grouping, treatment) CATE. --------------------------
  std::vector<Explanation> candidates(grouping.size());
  std::atomic<size_t> evals{0};
  std::atomic<bool> capped{false};
  ThreadPool pool(config.num_threads == 0 ? ThreadPool::DefaultThreads()
                                          : config.num_threads);
  pool.ParallelFor(grouping.size(), [&](size_t gi) {
    const GroupingCandidate& gc = grouping[gi];
    Explanation exp;
    exp.grouping_pattern = gc.pattern;
    exp.group_coverage = gc.coverage;
    std::optional<TreatmentSide> best_pos, best_neg;
    for (const auto& tp : tpatterns) {
      if (config.max_cate_evaluations != 0 &&
          evals.load() >= config.max_cate_evaluations) {
        capped.store(true);
        break;
      }
      evals.fetch_add(1);
      const EffectEstimate est =
          estimator_ctx->EstimateCate(tp, query.avg_attribute, gc.rows);
      if (!est.Significant(config.treatment.alpha)) continue;
      if (est.cate > 0 &&
          (!best_pos || est.cate > best_pos->effect.cate)) {
        best_pos = TreatmentSide{tp, est};
      }
      if (est.cate < 0 &&
          (!best_neg || est.cate < best_neg->effect.cate)) {
        best_neg = TreatmentSide{tp, est};
      }
    }
    exp.positive = best_pos;
    exp.negative = best_neg;
    candidates[gi] = std::move(exp);
  });
  result.cate_evaluations = evals.load();
  result.hit_evaluation_cap = capped.load();

  std::vector<Explanation> viable;
  for (auto& c : candidates) {
    if (c.Weight() > 0) viable.push_back(std::move(c));
  }

  // --- Exact (or LP-rounded) selection. ------------------------------------
  SelectionProblem problem;
  problem.num_groups = m;
  problem.k = config.k;
  problem.theta = config.theta;
  for (const auto& c : viable) {
    problem.candidates.push_back(
        SelectionCandidate{c.Weight(), c.group_coverage});
  }
  const SelectionResult sel =
      config.use_lp_rounding
          ? SolveByLpRounding(problem, 64, config.seed)
          : SolveExact(problem);

  Bitset covered(m);
  for (size_t j : sel.selected) {
    result.summary.explanations.push_back(viable[j]);
    result.summary.total_explainability += viable[j].Weight();
    covered |= viable[j].group_coverage;
  }
  std::sort(result.summary.explanations.begin(),
            result.summary.explanations.end(),
            [](const Explanation& a, const Explanation& b) {
              return a.Weight() > b.Weight();
            });
  result.summary.covered_groups = covered.Count();
  result.summary.coverage_satisfied =
      result.summary.covered_groups >= problem.RequiredCoverage();
  result.cache_stats.eval = engine->Stats();
  result.cache_stats.estimator = estimator_ctx->Stats();
  return result;
}

}  // namespace causumx
