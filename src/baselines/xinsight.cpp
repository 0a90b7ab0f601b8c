#include "baselines/xinsight.h"

#include <algorithm>
#include <cmath>

namespace causumx {

XInsightResult RunXInsight(const Table& table, const AggregateView& view,
                           const CausalDag& dag,
                           const std::vector<std::string>& treatment_attrs,
                           const XInsightConfig& config) {
  XInsightResult result;
  const size_t m = view.NumGroups();
  result.pairs_total = m * (m - 1) / 2;

  EstimatorContext estimator(std::make_shared<EvalEngine>(BorrowTable(table)),
                             dag, config.estimator);
  const std::string& outcome = view.query().avg_attribute;

  // Shared atom set; per-pair we compare each atom's CATE in both groups.
  const std::vector<SimplePredicate> atoms =
      GenerateAtomicTreatments(*estimator.engine(), treatment_attrs,
                               config.treatment);

  // Row masks per group.
  std::vector<Bitset> group_rows(m, Bitset(table.NumRows()));
  for (size_t g = 0; g < m; ++g) {
    for (size_t r : view.group(g).rows) group_rows[g].Set(r);
  }

  // Cache per-group CATE of each atom (computed lazily).
  std::vector<std::vector<double>> cate(m);
  std::vector<std::vector<char>> cate_valid(m);
  auto group_cates = [&](size_t g) {
    if (!cate[g].empty()) return;
    cate[g].assign(atoms.size(), 0.0);
    cate_valid[g].assign(atoms.size(), 0);
    for (size_t a = 0; a < atoms.size(); ++a) {
      const EffectEstimate est = estimator.EstimateCate(
          Pattern({atoms[a]}), outcome, group_rows[g]);
      if (est.Significant(config.treatment.alpha)) {
        cate[g][a] = est.cate;
        cate_valid[g][a] = 1;
      }
    }
  };

  for (size_t a = 0; a < m; ++a) {
    for (size_t b = a + 1; b < m; ++b) {
      if (config.max_pairs != 0 &&
          result.pairs_processed >= config.max_pairs) {
        result.truncated = true;
        break;
      }
      ++result.pairs_processed;
      group_cates(a);
      group_cates(b);

      // Rank atoms by effect gap between the two groups.
      std::vector<std::pair<double, size_t>> gaps;
      for (size_t t = 0; t < atoms.size(); ++t) {
        if (!cate_valid[a][t] && !cate_valid[b][t]) continue;
        gaps.emplace_back(std::fabs(cate[a][t] - cate[b][t]), t);
      }
      std::sort(gaps.begin(), gaps.end(),
                [](const auto& x, const auto& y) { return x.first > y.first; });
      for (size_t t = 0; t < std::min(config.top_per_pair, gaps.size());
           ++t) {
        PairwiseExplanation exp;
        exp.group_a = view.group(a).KeyString();
        exp.group_b = view.group(b).KeyString();
        exp.treatment = Pattern({atoms[gaps[t].second]});
        exp.cate_a = cate[a][gaps[t].second];
        exp.cate_b = cate[b][gaps[t].second];
        exp.gap = gaps[t].first;
        result.output_bytes += exp.group_a.size() + exp.group_b.size() +
                               exp.treatment.ToString().size() + 64;
        result.explanations.push_back(std::move(exp));
      }
    }
    if (result.truncated) break;
  }
  return result;
}

}  // namespace causumx
