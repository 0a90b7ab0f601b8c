// Unit tests for the treatment-pattern lattice (Algorithm 2).

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/causumx.h"
#include "datagen/registry.h"
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
  const auto result =
      MineTopTreatment(est, AllRows(t), "Y",
                       CausalTreatmentAtoms(est, "Y", {"A", "B", "C"}, opt),
                       TreatmentSign::kPositive, opt);
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
  const auto result =
      MineTopTreatment(est, AllRows(t), "Y",
                       CausalTreatmentAtoms(est, "Y", {"A", "B", "C"}, opt),
                       TreatmentSign::kNegative, opt);
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

  const auto pos1 = MineTopTreatment(est, first_half, "Y",
                                     CausalTreatmentAtoms(est, "Y", {"A"}, {}),
                                     TreatmentSign::kPositive);
  ASSERT_TRUE(pos1.has_value());
  EXPECT_NEAR(pos1->effect.cate, 3.0, 0.3);

  const auto pos2 = MineTopTreatment(est, second_half, "Y",
                                     CausalTreatmentAtoms(est, "Y", {"A"}, {}),
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
  const auto result = MineTopTreatment(
      est, AllRows(t2), "Y",
      CausalTreatmentAtoms(est, "Y", {"A", "B", "C", "D"}, {}),
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
  const auto result = MineTopTreatment(
      est, AllRows(t), "Y", CausalTreatmentAtoms(est, "Y", {"A"}, opt),
      TreatmentSign::kPositive, opt);
  EXPECT_FALSE(result.has_value());
}

TEST(TreatmentMinerTest, StatsReportEvaluations) {
  const Table t = MakePlantedTable(2000, 9);
  EstimatorContext est = MakeEstimator(t, MakeDag());
  TreatmentMiningStats stats;
  const auto result =
      MineTopTreatment(est, AllRows(t), "Y",
                       CausalTreatmentAtoms(est, "Y", {"A", "B", "C"}, {}),
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
  const auto result =
      MineTopTreatment(est, AllRows(t), "Y",
                       CausalTreatmentAtoms(est, "Y", {"A", "B", "C"}, opt),
                       TreatmentSign::kPositive, opt);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->pattern.Size(), 1u);
  EXPECT_TRUE(result->pattern.UsesAttribute("A"));
}

std::vector<std::string> AtomStrings(const std::vector<SimplePredicate>& v) {
  std::vector<std::string> out;
  for (const auto& p : v) out.push_back(p.ToString());
  return out;
}

TEST(TreatmentMinerTest, CausalTreatmentAtomsPrunesNonAncestors) {
  // A -> M -> Y (A is an indirect ancestor), D sits in the DAG with no
  // path to Y, X is missing from the DAG; Z is numeric and a parent of Y.
  Table t;
  t.AddColumn("X", ColumnType::kCategorical);
  t.AddColumn("D", ColumnType::kCategorical);
  t.AddColumn("Z", ColumnType::kDouble);
  t.AddColumn("A", ColumnType::kCategorical);
  t.AddColumn("M", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  Rng rng(11);
  for (size_t i = 0; i < 400; ++i) {
    t.AddRow({Value(rng.NextBool(0.5) ? "x1" : "x0"),
              Value(rng.NextBool(0.5) ? "d1" : "d0"),
              Value(rng.NextGaussian()),
              Value(rng.NextBool(0.5) ? "a1" : "a0"),
              Value(rng.NextBool(0.5) ? "m1" : "m0"),
              Value(rng.NextGaussian())});
  }
  CausalDag g;
  g.AddEdge("A", "M");
  g.AddEdge("M", "Y");
  g.AddEdge("Z", "Y");
  g.AddNode("D");
  EstimatorContext est = MakeEstimator(t, g);
  TreatmentMinerOptions opt;
  const auto atoms =
      CausalTreatmentAtoms(est, "Y", {"X", "D", "Z", "A", "M"}, opt);

  // Kept: the ancestors A, M, Z and the DAG-less X; pruned: D. The atoms
  // are GenerateAtomicTreatments' over the kept attributes, in the order
  // the attributes were given.
  const auto expected =
      GenerateAtomicTreatments(*est.engine(), {"X", "Z", "A", "M"}, opt);
  ASSERT_FALSE(expected.empty());
  EXPECT_TRUE(atoms == expected)
      << ::testing::PrintToString(AtomStrings(atoms)) << " vs "
      << ::testing::PrintToString(AtomStrings(expected));
  for (const auto& a : atoms) EXPECT_NE(a.attribute, "D");
  EXPECT_EQ(atoms.front().attribute, "X");
  EXPECT_EQ(atoms.back().attribute, "M");
}

TEST(TreatmentMinerTest, UnknownOutcomeThrows) {
  const Table t = MakePlantedTable(200, 12);
  EstimatorContext est = MakeEstimator(t, MakeDag());
  const auto atoms = CausalTreatmentAtoms(est, "Y", {"A", "B", "C"}, {});
  ASSERT_FALSE(atoms.empty());
  EXPECT_THROW(MineTopTreatment(est, AllRows(t), "nope", atoms,
                                TreatmentSign::kPositive),
               std::out_of_range);
}

// Phases 1–2 of MineExplanationCandidates, run serially, with every walk
// rebuilding its own atom list: the reference that one shared list per
// query must match.
struct PerWalkAtomsRun {
  std::vector<Explanation> candidates;
  size_t patterns_evaluated = 0;
  EstimatorCacheStats stats;
};

PerWalkAtomsRun MineWithPerWalkAtoms(const GeneratedDataset& ds,
                                     const CauSumXConfig& config,
                                     const AttributePartition& partition) {
  auto engine = std::make_shared<EvalEngine>(BorrowTable(ds.table));
  EstimatorContext est(engine, ds.dag, config.estimator);
  const GroupByAvgQuery& query = ds.default_query;
  const AggregateView view = AggregateView::Evaluate(ds.table, query);
  GroupingMinerOptions gopt = config.grouping;
  gopt.apriori.min_support = config.apriori_support;
  const std::vector<GroupingPattern> grouping = MineGroupingPatterns(
      ds.table, view, partition.grouping_attributes, gopt, engine.get());
  const std::vector<std::string>& attrs =
      config.treatment_attribute_allowlist.empty()
          ? partition.treatment_attributes
          : config.treatment_attribute_allowlist;

  PerWalkAtomsRun run;
  TreatmentMiningStats stats;
  for (const GroupingPattern& gp : grouping) {
    Explanation exp;
    exp.grouping_pattern = gp.pattern;
    exp.group_coverage = gp.group_coverage;
    for (TreatmentSign sign :
         {TreatmentSign::kPositive, TreatmentSign::kNegative}) {
      if (sign == TreatmentSign::kNegative && !config.mine_negative) break;
      const auto atoms = CausalTreatmentAtoms(est, query.avg_attribute,
                                              attrs, config.treatment);
      const auto top = MineTopTreatment(est, gp.rows, query.avg_attribute,
                                        atoms, sign, config.treatment,
                                        &stats);
      if (!top) continue;
      (sign == TreatmentSign::kPositive ? exp.positive : exp.negative) =
          TreatmentSide{top->pattern, top->effect};
    }
    if (exp.Weight() > 0.0) run.candidates.push_back(std::move(exp));
  }
  run.patterns_evaluated = stats.patterns_evaluated;
  run.stats = est.Stats();
  return run;
}

void ExpectSameSide(const std::optional<TreatmentSide>& a,
                    const std::optional<TreatmentSide>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) return;
  EXPECT_EQ(a->pattern, b->pattern);
  EXPECT_EQ(a->effect.cate, b->effect.cate);
  EXPECT_EQ(a->effect.p_value, b->effect.p_value);
  EXPECT_EQ(a->effect.n_treated, b->effect.n_treated);
}

TEST(TreatmentMinerTest, AtomsOncePerQueryMatchesAtomsPerWalk) {
  for (const char* name : {"Adult", "SO"}) {
    SCOPED_TRACE(name);
    const GeneratedDataset ds = MakeDatasetByName(name, 0.05);
    CauSumXConfig config;
    config.num_threads = 1;  // serial, so memo hit/miss counts are exact
    config.grouping_attribute_allowlist = ds.grouping_attribute_hint;

    const CandidateMiningResult mined = MineExplanationCandidates(
        ds.table, ds.default_query, ds.dag, config);
    const PerWalkAtomsRun ref =
        MineWithPerWalkAtoms(ds, config, mined.partition);

    // Both DAGs prune some treatment attributes (optimization (a) runs).
    EstimatorContext probe = MakeEstimator(ds.table, ds.dag);
    const std::vector<std::string>& attrs =
        mined.partition.treatment_attributes;
    EXPECT_LT(CausalTreatmentAtoms(probe, ds.default_query.avg_attribute,
                                   attrs, config.treatment)
                  .size(),
              GenerateAtomicTreatments(*probe.engine(), attrs,
                                       config.treatment)
                  .size());

    ASSERT_FALSE(mined.candidates.empty());
    ASSERT_EQ(mined.candidates.size(), ref.candidates.size());
    for (size_t i = 0; i < ref.candidates.size(); ++i) {
      const Explanation& a = mined.candidates[i];
      const Explanation& b = ref.candidates[i];
      EXPECT_EQ(a.grouping_pattern, b.grouping_pattern);
      EXPECT_TRUE(a.group_coverage == b.group_coverage);
      ExpectSameSide(a.positive, b.positive);
      ExpectSameSide(a.negative, b.negative);
    }
    EXPECT_EQ(mined.treatment_patterns_evaluated, ref.patterns_evaluated);
    EXPECT_EQ(mined.cache_stats.estimator.memo_hits, ref.stats.memo_hits);
    EXPECT_EQ(mined.cache_stats.estimator.memo_misses,
              ref.stats.memo_misses);
  }
}

}  // namespace
}  // namespace causumx
