// Unit tests for the treatment-pattern lattice (Algorithm 2).

#include <gtest/gtest.h>

#include "mining/treatment_miner.h"
#include "util/rng.h"

namespace causumx {
namespace {

// Outcome = 3*(A=a1) + 6*(A=a1 AND C=c1) - 5*(B=b1) + noise.
// Under the CATE definition (treated vs everyone else), the pair
// A=a1 AND C=c1 strictly beats every singleton on the positive side, and
// conjunctions involving B=b1 dominate the negative side.
Table MakePlantedTable(size_t n, uint64_t seed) {
  Table t;
  t.AddColumn("A", ColumnType::kCategorical);
  t.AddColumn("B", ColumnType::kCategorical);
  t.AddColumn("C", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const bool a = rng.NextBool(0.5);
    const bool b = rng.NextBool(0.5);
    const bool c = rng.NextBool(0.5);
    double y = rng.NextGaussian(0, 0.5);
    if (a) y += 3.0;
    if (a && c) y += 6.0;
    if (b) y -= 5.0;
    t.AddRow({Value(a ? "a1" : "a0"), Value(b ? "b1" : "b0"),
              Value(c ? "c1" : "c0"), Value(y)});
  }
  return t;
}

CausalDag MakeDag() {
  CausalDag g;
  g.AddEdge("A", "Y");
  g.AddEdge("B", "Y");
  g.AddEdge("C", "Y");
  return g;
}

// The estimator under test over a private engine that borrows `t`
// (which outlives it).
EstimatorContext MakeEstimator(const Table& t, const CausalDag& g,
                               EstimatorOptions opt = {}) {
  return EstimatorContext(std::make_shared<EvalEngine>(BorrowTable(t)), g,
                          opt);
}

Bitset AllRows(const Table& t) {
  Bitset b(t.NumRows());
  b.SetAll();
  return b;
}

TEST(TreatmentMinerTest, AtomGenerationCategorical) {
  const Table t = MakePlantedTable(100, 1);
  EvalEngine engine(BorrowTable(t));
  TreatmentMinerOptions opt;
  const auto atoms = GenerateAtomicTreatments(engine, {"A", "B"}, opt);
  // Two values per attribute -> 4 equality atoms.
  EXPECT_EQ(atoms.size(), 4u);
  for (const auto& a : atoms) EXPECT_EQ(a.op, CompareOp::kEq);
}

TEST(TreatmentMinerTest, AtomGenerationNumericThresholds) {
  Table t;
  t.AddColumn("x", ColumnType::kDouble);
  Rng rng(2);
  for (int i = 0; i < 500; ++i) t.AddRow({Value(rng.NextGaussian())});
  EvalEngine engine(BorrowTable(t));
  TreatmentMinerOptions opt;
  opt.numeric_bins = 3;
  const auto atoms = GenerateAtomicTreatments(engine, {"x"}, opt);
  EXPECT_GE(atoms.size(), 4u);  // pairs of (<, >=) per threshold
  for (const auto& a : atoms) {
    EXPECT_TRUE(a.op == CompareOp::kLt || a.op == CompareOp::kGe);
  }
}

TEST(TreatmentMinerTest, ConstantAttributeSkipped) {
  Table t;
  t.AddColumn("x", ColumnType::kCategorical);
  t.AddColumn("y", ColumnType::kDouble);
  for (int i = 0; i < 50; ++i) t.AddRow({Value("same"), Value(1.0)});
  EvalEngine engine(BorrowTable(t));
  const auto atoms = GenerateAtomicTreatments(engine, {"x"}, {});
  EXPECT_TRUE(atoms.empty());
}

TEST(TreatmentMinerTest, FindsPlantedPositiveInteraction) {
  const Table t = MakePlantedTable(6000, 3);
  EstimatorContext est = MakeEstimator(t, MakeDag());
  TreatmentMinerOptions opt;
  opt.level_keep_fraction = 1.0;  // explore the full lattice in the test
  const auto result = MineTopTreatment(
      est, AllRows(t), "Y", {"A", "B", "C"}, TreatmentSign::kPositive, opt);
  ASSERT_TRUE(result.has_value());
  // The winning positive treatment must capture the A*C interaction.
  EXPECT_TRUE(result->pattern.UsesAttribute("A"));
  EXPECT_TRUE(result->pattern.UsesAttribute("C"));
  EXPECT_GT(result->effect.cate, 6.5);
  EXPECT_TRUE(result->effect.Significant());
}

TEST(TreatmentMinerTest, FindsPlantedNegative) {
  const Table t = MakePlantedTable(6000, 4);
  EstimatorContext est = MakeEstimator(t, MakeDag());
  TreatmentMinerOptions opt;
  opt.level_keep_fraction = 1.0;
  const auto result = MineTopTreatment(
      est, AllRows(t), "Y", {"A", "B", "C"}, TreatmentSign::kNegative, opt);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->pattern.UsesAttribute("B"));
  EXPECT_LT(result->effect.cate, -5.0);
}

TEST(TreatmentMinerTest, RespectsSubpopulation) {
  // Effect of A flips sign between the two halves of the table.
  Table t;
  t.AddColumn("grp", ColumnType::kCategorical);
  t.AddColumn("A", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  Rng rng(5);
  for (size_t i = 0; i < 4000; ++i) {
    const bool first = i < 2000;
    const bool a = rng.NextBool(0.5);
    const double y =
        (first ? 3.0 : -3.0) * (a ? 1.0 : 0.0) + rng.NextGaussian(0, 0.5);
    t.AddRow({Value(first ? "g1" : "g2"), Value(a ? "1" : "0"), Value(y)});
  }
  CausalDag g;
  g.AddEdge("A", "Y");
  EstimatorContext est = MakeEstimator(t, g);
  Bitset first_half(t.NumRows());
  for (size_t i = 0; i < 2000; ++i) first_half.Set(i);
  Bitset second_half(t.NumRows());
  for (size_t i = 2000; i < 4000; ++i) second_half.Set(i);

  const auto pos1 = MineTopTreatment(est, first_half, "Y", {"A"},
                                     TreatmentSign::kPositive);
  ASSERT_TRUE(pos1.has_value());
  EXPECT_NEAR(pos1->effect.cate, 3.0, 0.3);

  const auto pos2 = MineTopTreatment(est, second_half, "Y", {"A"},
                                     TreatmentSign::kPositive);
  ASSERT_TRUE(pos2.has_value());
  EXPECT_NEAR(pos2->effect.cate, 3.0, 0.3);  // A=0 has +3 effect there
}

TEST(TreatmentMinerTest, DagPrunesCausallyInertAttributes) {
  // D has no path to Y in the DAG: its patterns must never be evaluated.
  Table t = MakePlantedTable(2000, 6);
  // Rebuild with an extra inert column.
  Table t2;
  t2.AddColumn("A", ColumnType::kCategorical);
  t2.AddColumn("B", ColumnType::kCategorical);
  t2.AddColumn("C", ColumnType::kCategorical);
  t2.AddColumn("D", ColumnType::kCategorical);
  t2.AddColumn("Y", ColumnType::kDouble);
  Rng rng(7);
  for (size_t r = 0; r < t.NumRows(); ++r) {
    t2.AddRow({t.column("A").GetValue(r), t.column("B").GetValue(r),
               t.column("C").GetValue(r),
               Value(rng.NextBool(0.5) ? "d1" : "d0"),
               t.column("Y").GetValue(r)});
  }
  CausalDag g = MakeDag();
  g.AddNode("D");  // in the DAG but with no edge to Y
  EstimatorContext est = MakeEstimator(t2, g);
  const auto result = MineTopTreatment(est, AllRows(t2), "Y",
                                       {"A", "B", "C", "D"},
                                       TreatmentSign::kPositive);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->pattern.UsesAttribute("D"));
}

TEST(TreatmentMinerTest, NoSignificantTreatmentReturnsNull) {
  // Pure-noise outcome: nothing should clear the significance bar.
  Table t;
  t.AddColumn("A", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  Rng rng(8);
  for (size_t i = 0; i < 1000; ++i) {
    t.AddRow({Value(rng.NextBool(0.5) ? "1" : "0"),
              Value(rng.NextGaussian())});
  }
  CausalDag g;
  g.AddEdge("A", "Y");
  EstimatorContext est = MakeEstimator(t, g);
  TreatmentMinerOptions opt;
  opt.alpha = 0.001;  // strict bar to keep the test deterministic
  const auto result = MineTopTreatment(est, AllRows(t), "Y", {"A"},
                                       TreatmentSign::kPositive, opt);
  EXPECT_FALSE(result.has_value());
}

TEST(TreatmentMinerTest, StatsReportEvaluations) {
  const Table t = MakePlantedTable(2000, 9);
  EstimatorContext est = MakeEstimator(t, MakeDag());
  TreatmentMiningStats stats;
  const auto result = MineTopTreatment(est, AllRows(t), "Y", {"A", "B", "C"},
                                       TreatmentSign::kPositive, {}, &stats);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(stats.patterns_evaluated, 6u);  // at least the atoms
  EXPECT_GE(stats.levels_explored, 1u);
}

TEST(TreatmentMinerTest, MaxDepthOneStopsAtAtoms) {
  const Table t = MakePlantedTable(4000, 10);
  EstimatorContext est = MakeEstimator(t, MakeDag());
  TreatmentMinerOptions opt;
  opt.max_depth = 1;
  const auto result = MineTopTreatment(est, AllRows(t), "Y",
                                       {"A", "B", "C"},
                                       TreatmentSign::kPositive, opt);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->pattern.Size(), 1u);
  EXPECT_TRUE(result->pattern.UsesAttribute("A"));
}

}  // namespace
}  // namespace causumx
