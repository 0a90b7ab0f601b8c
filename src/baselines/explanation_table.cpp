#include "baselines/explanation_table.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/rng.h"

namespace causumx {

namespace {

// KL divergence contribution of one stratum: n * KL(p || q) with the
// usual 0 log 0 = 0 conventions.
double KlTerm(double n, double p, double q) {
  if (n <= 0) return 0.0;
  q = std::min(1.0 - 1e-9, std::max(1e-9, q));
  double kl = 0.0;
  if (p > 0) kl += p * std::log(p / q);
  if (p < 1) kl += (1 - p) * std::log((1 - p) / (1 - q));
  return n * kl;
}

// Residual divergence of the max-ent style estimate induced by a set of
// selected patterns: tuples are stratified by their pattern-match
// signature; the estimate assigns each stratum its empirical rate under
// the *selected* patterns only (iterative scaling approximated by
// signature-stratification — exact when patterns are nested or disjoint,
// the common case for greedy selections).
double ResidualKl(const Table& table, const std::vector<uint8_t>& label,
                  const std::vector<size_t>& rows,
                  const std::vector<Pattern>& selected) {
  // Signature per row.
  std::vector<uint32_t> sig(rows.size(), 0);
  for (size_t p = 0; p < selected.size(); ++p) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (selected[p].Matches(table, rows[i])) {
        sig[i] |= (1u << p);
      }
    }
  }
  // Stratum stats.
  struct Stat {
    double n = 0, pos = 0;
  };
  std::vector<std::pair<uint32_t, Stat>> strata;
  auto find = [&strata](uint32_t s) -> Stat& {
    for (auto& [key, st] : strata) {
      if (key == s) return st;
    }
    strata.emplace_back(s, Stat{});
    return strata.back().second;
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    Stat& st = find(sig[i]);
    st.n += 1;
    st.pos += label[rows[i]];
  }
  // Within each stratum the estimate equals the stratum rate -> KL of the
  // stratum against itself is 0; the divergence that remains is the
  // per-tuple label uncertainty, measured against the stratum estimate.
  double kl = 0.0;
  for (const auto& [_, st] : strata) {
    const double q = st.n > 0 ? st.pos / st.n : 0.0;
    // Each tuple is 0/1; sum of KL(label_i || q).
    // causumx-lint: allow(fp-accumulation) serial loop, insertion-ordered strata)
    kl += KlTerm(st.pos, 1.0, q) + KlTerm(st.n - st.pos, 0.0, q);
  }
  return kl;
}

}  // namespace

ExplanationTableResult RunExplanationTable(
    const Table& table, const std::string& outcome,
    const ExplanationTableConfig& config) {
  ExplanationTableResult result;
  const BinnedOutcome binned = BinOutcomeAtMean(table, outcome);
  if (binned.valid.None()) return result;

  std::vector<std::string> attrs;
  for (const auto& name : table.ColumnNames()) {
    if (name != outcome) attrs.push_back(name);
  }
  std::vector<CandidateRule> candidates =
      MineCandidateRules(table, binned, attrs, config.mining);

  // Gain-estimation sample.
  std::vector<size_t> all_rows = binned.valid.ToIndices();
  std::vector<size_t> rows;
  if (config.sample_rows > 0 && all_rows.size() > config.sample_rows) {
    Rng rng(config.seed);
    for (size_t idx : rng.SampleIndices(all_rows.size(),
                                        config.sample_rows)) {
      rows.push_back(all_rows[idx]);
    }
    std::sort(rows.begin(), rows.end());
  } else {
    rows = std::move(all_rows);
  }

  std::vector<Pattern> selected;
  std::vector<char> taken(candidates.size(), 0);
  double current_kl =
      ResidualKl(table, binned.label, rows, selected);

  while (result.entries.size() < config.max_patterns) {
    double best_gain = 1e-9;
    size_t best_idx = candidates.size();
    double best_kl = current_kl;
    // Signature-space doubles per added pattern; cap enumeration width.
    if (selected.size() >= 16) break;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (taken[i]) continue;
      std::vector<Pattern> trial = selected;
      trial.push_back(candidates[i].pattern);
      const double kl = ResidualKl(table, binned.label, rows, trial);
      const double gain = current_kl - kl;
      if (gain > best_gain) {
        best_gain = gain;
        best_idx = i;
        best_kl = kl;
      }
    }
    if (best_idx == candidates.size()) break;
    taken[best_idx] = 1;
    selected.push_back(candidates[best_idx].pattern);
    current_kl = best_kl;

    ExplanationTableEntry entry;
    entry.pattern = candidates[best_idx].pattern;
    entry.support = candidates[best_idx].support;
    entry.positive_rate = candidates[best_idx].PositiveRate();
    entry.gain = best_gain;
    result.entries.push_back(std::move(entry));
  }
  result.final_kl = current_kl;
  return result;
}

std::vector<std::pair<std::string, ExplanationTableResult>>
RunExplanationTableG(const Table& table, const AggregateView& view,
                     const std::string& outcome,
                     const ExplanationTableConfig& config) {
  std::vector<std::pair<std::string, ExplanationTableResult>> out;
  for (size_t g = 0; g < view.NumGroups(); ++g) {
    const std::span<const size_t> rows = view.group(g).rows;
    const Table sub = table.SelectRows({rows.begin(), rows.end()});
    ExplanationTableConfig per_group = config;
    per_group.max_patterns = std::max<size_t>(1, config.max_patterns / 2);
    out.emplace_back(view.group(g).KeyString(),
                     RunExplanationTable(sub, outcome, per_group));
  }
  return out;
}

}  // namespace causumx
