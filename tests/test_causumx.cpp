// End-to-end tests for Algorithm 1 (the CauSumX pipeline) against the
// synthetic ground truth and the framework's constraints.

#include <gtest/gtest.h>

#include "core/causumx.h"
#include "datagen/synthetic.h"
#include "util/bitset.h"

namespace causumx {
namespace {

CauSumXConfig SyntheticConfig(const GeneratedDataset& ds) {
  CauSumXConfig config;
  config.k = 3;
  config.theta = 0.75;
  config.grouping_attribute_allowlist = ds.grouping_attribute_hint;
  config.treatment_attribute_allowlist = ds.treatment_attribute_hint;
  config.grouping.include_per_group_patterns = false;
  return config;
}

TEST(CauSumXTest, SyntheticGroundTruthRecovered) {
  SyntheticOptions opt;
  opt.num_rows = 2000;
  opt.num_treatment_attrs = 4;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  const CauSumXResult result =
      RunCauSumX(ds.table, ds.default_query, ds.dag, SyntheticConfig(ds));

  ASSERT_FALSE(result.summary.explanations.empty());
  for (const auto& exp : result.summary.explanations) {
    // Positive treatments must set odd T's high or even T's low.
    ASSERT_TRUE(exp.positive.has_value());
    EXPECT_GT(exp.positive->effect.cate, 0);
    for (const auto& pred : exp.positive->pattern.predicates()) {
      const int t_index = std::stoi(pred.attribute.substr(1));
      const int64_t v = pred.value.AsInt();
      if (t_index % 2 == 1) {
        EXPECT_GE(v, 4) << pred.ToString();  // odd T: high value
      } else {
        EXPECT_LE(v, 2) << pred.ToString();  // even T: low value
      }
    }
    // Negative treatments: the reverse.
    ASSERT_TRUE(exp.negative.has_value());
    EXPECT_LT(exp.negative->effect.cate, 0);
    for (const auto& pred : exp.negative->pattern.predicates()) {
      const int t_index = std::stoi(pred.attribute.substr(1));
      const int64_t v = pred.value.AsInt();
      if (t_index % 2 == 1) {
        EXPECT_LE(v, 2) << pred.ToString();
      } else {
        EXPECT_GE(v, 4) << pred.ToString();
      }
    }
  }
}

TEST(CauSumXTest, ConstraintsRespected) {
  SyntheticOptions opt;
  opt.num_rows = 1500;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  CauSumXConfig config = SyntheticConfig(ds);
  config.k = 2;
  config.theta = 0.4;
  const CauSumXResult result =
      RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  EXPECT_LE(result.summary.explanations.size(), 2u);
  if (result.summary.coverage_satisfied) {
    EXPECT_GE(result.summary.CoverageFraction(), 0.4 - 1e-9);
  }
  // Incomparability: no two selected explanations share a coverage set.
  for (size_t i = 0; i < result.summary.explanations.size(); ++i) {
    for (size_t j = i + 1; j < result.summary.explanations.size(); ++j) {
      EXPECT_FALSE(result.summary.explanations[i].group_coverage ==
                   result.summary.explanations[j].group_coverage);
    }
  }
}

TEST(CauSumXTest, TotalExplainabilityIsSumOfWeights) {
  SyntheticOptions opt;
  opt.num_rows = 1200;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  const CauSumXResult result =
      RunCauSumX(ds.table, ds.default_query, ds.dag, SyntheticConfig(ds));
  double sum = 0;
  // causumx-lint: allow(fp-accumulation) serial test oracle, fixed order
  for (const auto& e : result.summary.explanations) sum += e.Weight();
  EXPECT_NEAR(result.summary.total_explainability, sum, 1e-9);
}

TEST(CauSumXTest, CoverageCountMatchesUnion) {
  SyntheticOptions opt;
  opt.num_rows = 1200;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  const CauSumXResult result =
      RunCauSumX(ds.table, ds.default_query, ds.dag, SyntheticConfig(ds));
  Bitset covered(result.summary.num_groups);
  for (const auto& e : result.summary.explanations) {
    covered |= e.group_coverage;
  }
  EXPECT_EQ(result.summary.covered_groups, covered.Count());
}

TEST(CauSumXTest, SolverVariantsAllProduceResults) {
  SyntheticOptions opt;
  opt.num_rows = 1500;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  CauSumXConfig config = SyntheticConfig(ds);

  config.solver = FinalStepSolver::kLpRounding;
  const auto lp = RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  config.solver = FinalStepSolver::kGreedy;
  const auto greedy = RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  config.solver = FinalStepSolver::kExact;
  const auto exact = RunCauSumX(ds.table, ds.default_query, ds.dag, config);

  EXPECT_FALSE(lp.summary.explanations.empty());
  EXPECT_FALSE(greedy.summary.explanations.empty());
  EXPECT_FALSE(exact.summary.explanations.empty());
  // Exact dominates the rounded solution in explainability whenever both
  // satisfy the constraints.
  if (exact.summary.coverage_satisfied && lp.summary.coverage_satisfied) {
    EXPECT_GE(exact.summary.total_explainability + 1e-6,
              lp.summary.total_explainability);
  }
}

TEST(CauSumXTest, DeterministicAcrossRuns) {
  SyntheticOptions opt;
  opt.num_rows = 1000;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  CauSumXConfig config = SyntheticConfig(ds);
  config.num_threads = 2;
  const auto a = RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  const auto b = RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  ASSERT_EQ(a.summary.explanations.size(), b.summary.explanations.size());
  EXPECT_DOUBLE_EQ(a.summary.total_explainability,
                   b.summary.total_explainability);
  for (size_t i = 0; i < a.summary.explanations.size(); ++i) {
    EXPECT_EQ(a.summary.explanations[i].grouping_pattern.ToString(),
              b.summary.explanations[i].grouping_pattern.ToString());
  }
}

TEST(CauSumXTest, PositiveOnlyMode) {
  SyntheticOptions opt;
  opt.num_rows = 1000;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  CauSumXConfig config = SyntheticConfig(ds);
  config.mine_negative = false;
  const auto result = RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  for (const auto& e : result.summary.explanations) {
    EXPECT_TRUE(e.positive.has_value());
    EXPECT_FALSE(e.negative.has_value());
  }
}

TEST(CauSumXTest, TreatmentAllowlistHonored) {
  SyntheticOptions opt;
  opt.num_rows = 1500;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  CauSumXConfig config = SyntheticConfig(ds);
  config.treatment_attribute_allowlist = {"T1"};
  const auto result = RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  for (const auto& e : result.summary.explanations) {
    if (e.positive) {
      for (const auto& pred : e.positive->pattern.predicates()) {
        EXPECT_EQ(pred.attribute, "T1");
      }
    }
  }
}

TEST(CauSumXTest, PhaseTimingsRecorded) {
  SyntheticOptions opt;
  opt.num_rows = 800;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  const auto result =
      RunCauSumX(ds.table, ds.default_query, ds.dag, SyntheticConfig(ds));
  EXPECT_EQ(result.timings.phases().size(), 3u);
  EXPECT_GE(result.timings.Get("grouping"), 0.0);
  EXPECT_GE(result.timings.Get("treatment"), 0.0);
  EXPECT_GE(result.timings.Get("selection"), 0.0);
}

TEST(CauSumXTest, EmptyViewHandled) {
  Table t;
  t.AddColumn("g", ColumnType::kCategorical);
  t.AddColumn("y", ColumnType::kDouble);
  GroupByAvgQuery q;
  q.group_by = {"g"};
  q.avg_attribute = "y";
  CausalDag dag;
  dag.AddNode("y");
  const auto result = RunCauSumX(t, q, dag, {});
  EXPECT_EQ(result.summary.num_groups, 0u);
  EXPECT_TRUE(result.summary.explanations.empty());
}

// The engine caches are an optimization, not a semantics change: a run
// with the predicate-bitset cache + CATE memo enabled must produce
// bitwise-identical explanations to a cache-bypass run.
TEST(CauSumXTest, CachedAndBypassRunsAreBitIdentical) {
  SyntheticOptions opt;
  opt.num_rows = 1500;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  CauSumXConfig config = SyntheticConfig(ds);
  config.num_threads = 2;

  const auto cached = RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  // The reference run: phases 1-2 over a caller-built cache-bypass
  // engine, then phase 3, composed as RunCauSumX composes them.
  CauSumXResult bypass;
  {
    auto engine = std::make_shared<EvalEngine>(
        BorrowTable(ds.table), EvalEngineOptions{.cache_enabled = false});
    const CandidateMiningResult mined = MineExplanationCandidates(
        ds.table, ds.default_query, ds.dag, config, engine);
    bypass.summary = SelectExplanations(mined.candidates,
                                        mined.view.NumGroups(), config);
    bypass.treatment_patterns_evaluated = mined.treatment_patterns_evaluated;
    bypass.cache_stats = mined.cache_stats;
  }

  ASSERT_EQ(cached.summary.explanations.size(),
            bypass.summary.explanations.size());
  ASSERT_FALSE(cached.summary.explanations.empty());
  EXPECT_EQ(cached.summary.total_explainability,
            bypass.summary.total_explainability);
  EXPECT_EQ(cached.treatment_patterns_evaluated,
            bypass.treatment_patterns_evaluated);
  for (size_t i = 0; i < cached.summary.explanations.size(); ++i) {
    const Explanation& a = cached.summary.explanations[i];
    const Explanation& b = bypass.summary.explanations[i];
    EXPECT_EQ(a.grouping_pattern.ToString(), b.grouping_pattern.ToString());
    ASSERT_EQ(a.positive.has_value(), b.positive.has_value());
    if (a.positive) {
      EXPECT_EQ(a.positive->pattern.ToString(), b.positive->pattern.ToString());
      EXPECT_EQ(a.positive->effect.cate, b.positive->effect.cate);
      EXPECT_EQ(a.positive->effect.p_value, b.positive->effect.p_value);
    }
    ASSERT_EQ(a.negative.has_value(), b.negative.has_value());
    if (a.negative) {
      EXPECT_EQ(a.negative->pattern.ToString(), b.negative->pattern.ToString());
      EXPECT_EQ(a.negative->effect.cate, b.negative->effect.cate);
      EXPECT_EQ(a.negative->effect.p_value, b.negative->effect.p_value);
    }
  }
  // The cached run exercised the caches; the bypass run did not.
  EXPECT_GT(cached.cache_stats.eval.bitsets_materialized, 0u);
  EXPECT_GT(cached.cache_stats.estimator.memo_hits, 0u);
  EXPECT_EQ(bypass.cache_stats.eval.bitsets_materialized, 0u);
  EXPECT_EQ(bypass.cache_stats.estimator.memo_hits, 0u);
}

TEST(CauSumXTest, CacheStatsReported) {
  SyntheticOptions opt;
  opt.num_rows = 1000;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  const auto result =
      RunCauSumX(ds.table, ds.default_query, ds.dag, SyntheticConfig(ds));
  const EngineCacheStats& stats = result.cache_stats;
  EXPECT_GT(stats.eval.predicates_interned, 0u);
  EXPECT_GT(stats.eval.bitsets_materialized, 0u);
  // Each atom's bitset is looked up far more often than it is built.
  EXPECT_GT(stats.eval.bitset_hits, stats.eval.bitsets_materialized);
  // With both signs mined, the negative walk's level-1 estimates are all
  // memo hits from the positive walk.
  EXPECT_GT(stats.estimator.memo_hits, 0u);
  EXPECT_GT(stats.estimator.memo_misses, 0u);
}

// Regression test for the config footgun: mutating apriori_support after
// construction must reach the grouping miner (the ctor also copies it
// into grouping.apriori.min_support; RunCauSumX re-propagates).
TEST(CauSumXTest, AprioriSupportMutationPropagates) {
  SyntheticOptions opt;
  opt.num_rows = 1500;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  CauSumXConfig config = SyntheticConfig(ds);

  config.apriori_support = 0.001;  // mutate after construction
  const auto loose = MineExplanationCandidates(ds.table, ds.default_query,
                                               ds.dag, config);
  config.apriori_support = 0.99;
  const auto strict = MineExplanationCandidates(ds.table, ds.default_query,
                                                ds.dag, config);
  ASSERT_GT(loose.num_grouping_candidates, 0u);
  // At 99% support, only near-universal patterns survive; if the mutated
  // value were ignored (stale ctor copy = 0.1), both runs would mine the
  // same candidate set.
  EXPECT_LT(strict.num_grouping_candidates, loose.num_grouping_candidates);
}

// Parameterized sweep over k: explainability is monotone non-decreasing
// in the budget (the Fig. 9(a) phenomenon).
class CauSumXVaryK : public ::testing::TestWithParam<size_t> {};

TEST_P(CauSumXVaryK, MoreBudgetNeverHurtsExplainability) {
  SyntheticOptions opt;
  opt.num_rows = 1500;
  static const GeneratedDataset ds = MakeSyntheticDataset(opt);
  CauSumXConfig config = SyntheticConfig(ds);
  config.theta = 0.3;
  config.solver = FinalStepSolver::kExact;  // deterministic comparison
  config.k = GetParam();
  const auto small = RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  config.k = GetParam() + 1;
  const auto large = RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  EXPECT_GE(large.summary.total_explainability + 1e-6,
            small.summary.total_explainability);
}

INSTANTIATE_TEST_SUITE_P(Budgets, CauSumXVaryK,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace causumx
