// Failure-injection and degenerate-input tests across the pipeline: the
// library must degrade gracefully (no crashes, meaningful empties) on
// pathological data.

#include <gtest/gtest.h>

#include <sstream>

#include "baselines/frl.h"
#include "baselines/ids.h"
#include "core/causumx.h"
#include "dataset/csv.h"
#include "mining/treatment_miner.h"
#include "service/explanation_service.h"
#include "util/rng.h"

namespace causumx {
namespace {

// The estimator under test over a private engine that borrows `t`
// (which outlives it).
EstimatorContext MakeEstimator(const Table& t, const CausalDag& g,
                               EstimatorOptions opt = {}) {
  return EstimatorContext(std::make_shared<EvalEngine>(BorrowTable(t)), g,
                          opt);
}

TEST(EdgeCaseTest, ConstantOutcomeYieldsNoExplanations) {
  Table t;
  t.AddColumn("g", ColumnType::kCategorical);
  t.AddColumn("x", ColumnType::kCategorical);
  t.AddColumn("y", ColumnType::kDouble);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    t.AddRow({Value(i % 2 ? "a" : "b"), Value(rng.NextBool(0.5) ? "1" : "0"),
              Value(7.0)});
  }
  CausalDag dag;
  dag.AddEdge("x", "y");
  GroupByAvgQuery q;
  q.group_by = {"g"};
  q.avg_attribute = "y";
  const CauSumXResult r = RunCauSumX(t, q, dag, {});
  EXPECT_TRUE(r.summary.explanations.empty());
  EXPECT_EQ(r.summary.num_groups, 2u);
}

TEST(EdgeCaseTest, AllNullOutcome) {
  Table t;
  t.AddColumn("g", ColumnType::kCategorical);
  t.AddColumn("y", ColumnType::kDouble);
  for (int i = 0; i < 50; ++i) {
    t.AddRow({Value("a"), Value()});
  }
  GroupByAvgQuery q;
  q.group_by = {"g"};
  q.avg_attribute = "y";
  CausalDag dag;
  dag.AddNode("y");
  const CauSumXResult r = RunCauSumX(t, q, dag, {});
  EXPECT_EQ(r.summary.num_groups, 0u);
}

TEST(EdgeCaseTest, SingleGroupView) {
  Table t;
  t.AddColumn("g", ColumnType::kCategorical);
  t.AddColumn("x", ColumnType::kCategorical);
  t.AddColumn("y", ColumnType::kDouble);
  Rng rng(2);
  for (int i = 0; i < 600; ++i) {
    const bool x = rng.NextBool(0.5);
    t.AddRow({Value("only"), Value(x ? "1" : "0"),
              Value((x ? 2.0 : 0.0) + rng.NextGaussian(0, 0.3))});
  }
  CausalDag dag;
  dag.AddEdge("x", "y");
  GroupByAvgQuery q;
  q.group_by = {"g"};
  q.avg_attribute = "y";
  CauSumXConfig config;
  config.k = 1;
  config.theta = 1.0;
  const CauSumXResult r = RunCauSumX(t, q, dag, config);
  ASSERT_EQ(r.summary.num_groups, 1u);
  ASSERT_EQ(r.summary.explanations.size(), 1u);
  EXPECT_TRUE(r.summary.coverage_satisfied);
  EXPECT_NEAR(r.summary.explanations[0].positive->effect.cate, 2.0, 0.3);
}

TEST(EdgeCaseTest, GroupByAttributeMissingThrows) {
  Table t;
  t.AddColumn("y", ColumnType::kDouble);
  t.AddRow({Value(1.0)});
  GroupByAvgQuery q;
  q.group_by = {"nope"};
  q.avg_attribute = "y";
  CausalDag dag;
  EXPECT_THROW(AggregateView::Evaluate(t, q), std::out_of_range);
}

TEST(EdgeCaseTest, TreatmentMinerEmptyAttributeList) {
  Table t;
  t.AddColumn("y", ColumnType::kDouble);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) t.AddRow({Value(rng.NextGaussian())});
  CausalDag dag;
  dag.AddNode("y");
  EstimatorContext est = MakeEstimator(t, dag);
  Bitset all(t.NumRows());
  all.SetAll();
  EXPECT_FALSE(
      MineTopTreatment(est, all, "y", CausalTreatmentAtoms(est, "y", {}, {}),
                       TreatmentSign::kPositive)
          .has_value());
}

TEST(EdgeCaseTest, TreatmentMinerEmptySubpopulation) {
  Table t;
  t.AddColumn("x", ColumnType::kCategorical);
  t.AddColumn("y", ColumnType::kDouble);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    t.AddRow({Value(rng.NextBool(0.5) ? "1" : "0"),
              Value(rng.NextGaussian())});
  }
  CausalDag dag;
  dag.AddEdge("x", "y");
  EstimatorContext est = MakeEstimator(t, dag);
  const Bitset empty(t.NumRows());
  EXPECT_FALSE(
      MineTopTreatment(est, empty, "y",
                       CausalTreatmentAtoms(est, "y", {"x"}, {}),
                       TreatmentSign::kPositive)
          .has_value());
}

TEST(EdgeCaseTest, ThetaZeroAlwaysFeasible) {
  Table t;
  t.AddColumn("g", ColumnType::kCategorical);
  t.AddColumn("x", ColumnType::kCategorical);
  t.AddColumn("y", ColumnType::kDouble);
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const bool x = rng.NextBool(0.5);
    t.AddRow({Value(i % 4 == 0 ? "a" : "b"), Value(x ? "1" : "0"),
              Value((x ? 1.0 : 0.0) + rng.NextGaussian(0, 0.2))});
  }
  CausalDag dag;
  dag.AddEdge("x", "y");
  GroupByAvgQuery q;
  q.group_by = {"g"};
  q.avg_attribute = "y";
  CauSumXConfig config;
  config.theta = 0.0;
  const CauSumXResult r = RunCauSumX(t, q, dag, config);
  EXPECT_TRUE(r.summary.coverage_satisfied);
}

TEST(EdgeCaseTest, KLargerThanCandidates) {
  Table t;
  t.AddColumn("g", ColumnType::kCategorical);
  t.AddColumn("x", ColumnType::kCategorical);
  t.AddColumn("y", ColumnType::kDouble);
  Rng rng(6);
  for (int i = 0; i < 400; ++i) {
    const bool x = rng.NextBool(0.5);
    t.AddRow({Value(i % 2 ? "a" : "b"), Value(x ? "1" : "0"),
              Value((x ? 1.5 : 0.0) + rng.NextGaussian(0, 0.2))});
  }
  CausalDag dag;
  dag.AddEdge("x", "y");
  GroupByAvgQuery q;
  q.group_by = {"g"};
  q.avg_attribute = "y";
  CauSumXConfig config;
  config.k = 50;  // far more than available candidates
  config.theta = 0.5;
  const CauSumXResult r = RunCauSumX(t, q, dag, config);
  EXPECT_LE(r.summary.explanations.size(), 50u);
  EXPECT_TRUE(r.summary.coverage_satisfied);
}

TEST(EdgeCaseTest, RuleBaselinesOnConstantOutcome) {
  Table t;
  t.AddColumn("x", ColumnType::kCategorical);
  t.AddColumn("y", ColumnType::kDouble);
  for (int i = 0; i < 200; ++i) {
    t.AddRow({Value(i % 2 ? "a" : "b"), Value(1.0)});
  }
  // Outcome constant: binning puts everything in class 1; baselines must
  // not crash and must report (near-)perfect accuracy trivially.
  const IdsResult ids = RunIds(t, "y", {});
  EXPECT_GE(ids.accuracy, 0.99);
  const FrlResult frl = RunFrl(t, "y", {});
  EXPECT_GE(frl.accuracy, 0.99);
}

TEST(EdgeCaseTest, CsvWithOnlyHeader) {
  std::istringstream in("a,b,c\n");
  const Table t = ReadCsv(in);
  EXPECT_EQ(t.NumRows(), 0u);
  EXPECT_EQ(t.NumColumns(), 3u);
}

TEST(EdgeCaseTest, ExplorationOnEmptyView) {
  Table t;
  t.AddColumn("g", ColumnType::kCategorical);
  t.AddColumn("y", ColumnType::kDouble);
  GroupByAvgQuery q;
  q.group_by = {"g"};
  q.avg_attribute = "y";
  CausalDag dag;
  dag.AddNode("y");
  ExplanationService service;
  service.RegisterTable("t", std::move(t));
  CauSumXConfig config;
  config.k = 3;
  config.theta = 0.5;
  const CauSumXResult r = service.Explain("t", q, dag, config);
  EXPECT_TRUE(r.summary.explanations.empty());
  EXPECT_EQ(r.view.NumGroups(), 0u);
}

TEST(EdgeCaseTest, NegativeOutcomesHandled) {
  // Entirely negative outcome values: sign conventions must still hold.
  Table t;
  t.AddColumn("g", ColumnType::kCategorical);
  t.AddColumn("x", ColumnType::kCategorical);
  t.AddColumn("y", ColumnType::kDouble);
  Rng rng(8);
  for (int i = 0; i < 800; ++i) {
    const bool x = rng.NextBool(0.5);
    t.AddRow({Value(i % 2 ? "a" : "b"), Value(x ? "1" : "0"),
              Value(-100.0 + (x ? 5.0 : 0.0) + rng.NextGaussian())});
  }
  CausalDag dag;
  dag.AddEdge("x", "y");
  GroupByAvgQuery q;
  q.group_by = {"g"};
  q.avg_attribute = "y";
  CauSumXConfig config;
  config.k = 2;
  config.theta = 1.0;
  const CauSumXResult r = RunCauSumX(t, q, dag, config);
  ASSERT_FALSE(r.summary.explanations.empty());
  const auto& exp = r.summary.explanations[0];
  ASSERT_TRUE(exp.positive.has_value());
  EXPECT_NEAR(exp.positive->effect.cate, 5.0, 0.5);
}

}  // namespace
}  // namespace causumx
