// Unit tests for the ATE/CATE estimator — the causal core of the system.
// Validates recovery of known effects under randomized treatment, under
// confounding (where the DAG-driven adjustment is essential), and the
// overlap / sampling behaviors.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "causal/estimator_context.h"
#include "util/rng.h"
#include "util/stats.h"

namespace causumx {
namespace {

// Confounded world: Z ~ Bernoulli(0.5); T more likely when Z = 1;
// Y = effect * T + 10 * Z + noise. Naive difference-in-means is biased
// upward; adjusting for Z recovers `effect`.
Table MakeConfoundedTable(double effect, size_t n, uint64_t seed) {
  Table t;
  t.AddColumn("Z", ColumnType::kCategorical);
  t.AddColumn("T", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const bool z = rng.NextBool(0.5);
    const bool treated = rng.NextBool(z ? 0.8 : 0.2);
    const double y = effect * (treated ? 1.0 : 0.0) + 10.0 * (z ? 1.0 : 0.0) +
                     rng.NextGaussian(0, 1.0);
    t.AddRow({Value(z ? "1" : "0"), Value(treated ? "yes" : "no"), Value(y)});
  }
  return t;
}

CausalDag MakeConfoundedDag() {
  CausalDag g;
  g.AddEdge("Z", "T");
  g.AddEdge("Z", "Y");
  g.AddEdge("T", "Y");
  return g;
}

// The estimator under test over a private engine that borrows `t`
// (which outlives it).
EstimatorContext MakeEstimator(const Table& t, const CausalDag& g,
                               EstimatorOptions opt = {}) {
  return EstimatorContext(std::make_shared<EvalEngine>(BorrowTable(t)), g,
                          opt);
}

// ATE over the whole table.
EffectEstimate Ate(EstimatorContext& est, const Pattern& treatment,
                   const std::string& outcome) {
  Bitset all(est.table().NumRows());
  all.SetAll();
  return est.EstimateCate(treatment, outcome, all);
}

Pattern TreatYes() {
  return Pattern({SimplePredicate("T", CompareOp::kEq, Value("yes"))});
}

TEST(EstimatorTest, RandomizedTreatmentAteRecovered) {
  Table t;
  t.AddColumn("T", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  Rng rng(3);
  for (size_t i = 0; i < 4000; ++i) {
    const bool treated = rng.NextBool(0.5);
    t.AddRow({Value(treated ? "yes" : "no"),
              Value(3.0 * (treated ? 1.0 : 0.0) + rng.NextGaussian())});
  }
  CausalDag g;
  g.AddEdge("T", "Y");
  EstimatorContext est = MakeEstimator(t, g);
  const EffectEstimate e = Ate(est, TreatYes(), "Y");
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.cate, 3.0, 0.15);
  EXPECT_LT(e.p_value, 1e-6);
}

TEST(EstimatorTest, ConfoundingBiasRemovedByAdjustment) {
  const Table t = MakeConfoundedTable(2.0, 6000, 5);
  // With the correct DAG: adjusted estimate ~ 2.0.
  EstimatorContext adjusted = MakeEstimator(t, MakeConfoundedDag());
  const EffectEstimate good = Ate(adjusted, TreatYes(), "Y");
  ASSERT_TRUE(good.valid);
  EXPECT_NEAR(good.cate, 2.0, 0.25);

  // With an empty DAG (no recorded parents): naive difference, badly
  // biased by the +10 Z effect concentrated among the treated.
  CausalDag empty;
  empty.AddEdge("T", "Y");
  EstimatorContext naive = MakeEstimator(t, empty);
  const EffectEstimate biased = Ate(naive, TreatYes(), "Y");
  ASSERT_TRUE(biased.valid);
  EXPECT_GT(biased.cate, 5.0);  // ~2 + 6 of confounding bias
}

TEST(EstimatorTest, AdjustmentSetComesFromDag) {
  const Table t = MakeConfoundedTable(1.0, 100, 7);
  EstimatorContext est = MakeEstimator(t, MakeConfoundedDag());
  const auto z = est.AdjustmentSet(TreatYes(), "Y");
  ASSERT_EQ(z.size(), 1u);
  EXPECT_TRUE(z.count("Z"));
}

TEST(EstimatorTest, CateDiffersAcrossSubpopulations) {
  // Effect is +4 inside group A, -4 inside group B.
  Table t;
  t.AddColumn("grp", ColumnType::kCategorical);
  t.AddColumn("T", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  Rng rng(9);
  for (size_t i = 0; i < 4000; ++i) {
    const bool in_a = i % 2 == 0;
    const bool treated = rng.NextBool(0.5);
    const double effect = in_a ? 4.0 : -4.0;
    t.AddRow({Value(in_a ? "A" : "B"), Value(treated ? "yes" : "no"),
              Value(effect * (treated ? 1.0 : 0.0) + rng.NextGaussian())});
  }
  CausalDag g;
  g.AddEdge("T", "Y");
  EstimatorContext est = MakeEstimator(t, g);
  const Pattern in_a({SimplePredicate("grp", CompareOp::kEq, Value("A"))});
  const Pattern in_b({SimplePredicate("grp", CompareOp::kEq, Value("B"))});
  const EffectEstimate ea =
      est.EstimateCate(TreatYes(), "Y", est.engine()->Evaluate(in_a));
  const EffectEstimate eb =
      est.EstimateCate(TreatYes(), "Y", est.engine()->Evaluate(in_b));
  ASSERT_TRUE(ea.valid && eb.valid);
  EXPECT_NEAR(ea.cate, 4.0, 0.2);
  EXPECT_NEAR(eb.cate, -4.0, 0.2);
}

TEST(EstimatorTest, OverlapViolationInvalidates) {
  // Everyone treated: no control group.
  Table t;
  t.AddColumn("T", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  for (size_t i = 0; i < 100; ++i) {
    t.AddRow({Value("yes"), Value(1.0)});
  }
  CausalDag g;
  g.AddEdge("T", "Y");
  EstimatorContext est = MakeEstimator(t, g);
  const EffectEstimate e = Ate(est, TreatYes(), "Y");
  EXPECT_FALSE(e.valid);
}

TEST(EstimatorTest, TinySubpopulationInvalid) {
  const Table t = MakeConfoundedTable(1.0, 1000, 11);
  EstimatorContext est = MakeEstimator(t, MakeConfoundedDag());
  Bitset tiny(t.NumRows());
  for (size_t i = 0; i < 5; ++i) tiny.Set(i);
  const EffectEstimate e = est.EstimateCate(TreatYes(), "Y", tiny);
  EXPECT_FALSE(e.valid);
}

TEST(EstimatorTest, EmptyTreatmentInvalid) {
  const Table t = MakeConfoundedTable(1.0, 200, 13);
  EstimatorContext est = MakeEstimator(t, MakeConfoundedDag());
  EXPECT_FALSE(Ate(est, Pattern(), "Y").valid);
}

TEST(EstimatorTest, SamplingApproximatesFullEstimate) {
  const Table t = MakeConfoundedTable(2.5, 20000, 15);
  EstimatorOptions full_opt;
  full_opt.sample_cap = 0;
  EstimatorOptions sampled_opt;
  sampled_opt.sample_cap = 4000;
  EstimatorContext full = MakeEstimator(t, MakeConfoundedDag(), full_opt);
  EstimatorContext sampled = MakeEstimator(t, MakeConfoundedDag(), sampled_opt);
  const EffectEstimate ef = Ate(full, TreatYes(), "Y");
  const EffectEstimate es = Ate(sampled, TreatYes(), "Y");
  ASSERT_TRUE(ef.valid && es.valid);
  EXPECT_LE(es.n_used, 4000u);
  EXPECT_NEAR(ef.cate, es.cate, 0.3);
}

TEST(EstimatorTest, MultiPredicateTreatment) {
  // Y jumps only when both conditions hold.
  Table t;
  t.AddColumn("A", ColumnType::kCategorical);
  t.AddColumn("B", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  Rng rng(17);
  for (size_t i = 0; i < 4000; ++i) {
    const bool a = rng.NextBool(0.5);
    const bool b = rng.NextBool(0.5);
    const double y = (a && b ? 5.0 : 0.0) + rng.NextGaussian();
    t.AddRow({Value(a ? "1" : "0"), Value(b ? "1" : "0"), Value(y)});
  }
  CausalDag g;
  g.AddEdge("A", "Y");
  g.AddEdge("B", "Y");
  EstimatorContext est = MakeEstimator(t, g);
  const Pattern both({SimplePredicate("A", CompareOp::kEq, Value("1")),
                      SimplePredicate("B", CompareOp::kEq, Value("1"))});
  const EffectEstimate e = Ate(est, both, "Y");
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.cate, 5.0, 0.3);
}

// Parameterized recovery sweep: across a grid of true effect sizes, the
// adjusted estimate must land within 3 standard errors of the truth.
class EffectGridSweep : public ::testing::TestWithParam<double> {};

TEST_P(EffectGridSweep, RecoversEffectWithinThreeSigma) {
  const double truth = GetParam();
  const Table t = MakeConfoundedTable(truth, 5000, 21);
  EstimatorContext est = MakeEstimator(t, MakeConfoundedDag());
  const EffectEstimate e = Ate(est, TreatYes(), "Y");
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.cate, truth, 3.0 * e.std_error + 1e-9);
  if (std::fabs(truth) >= 1.0) {
    EXPECT_TRUE(e.Significant());
  }
}

INSTANTIATE_TEST_SUITE_P(Effects, EffectGridSweep,
                         ::testing::Values(-5.0, -2.0, -1.0, 0.0, 1.0, 2.0,
                                           5.0, 10.0));

TEST(EstimatorTest, DeterministicAcrossRuns) {
  const Table t = MakeConfoundedTable(2.0, 5000, 19);
  EstimatorOptions opt;
  opt.sample_cap = 1000;
  EstimatorContext est = MakeEstimator(t, MakeConfoundedDag(), opt);
  const EffectEstimate e1 = Ate(est, TreatYes(), "Y");
  const EffectEstimate e2 = Ate(est, TreatYes(), "Y");
  ASSERT_TRUE(e1.valid && e2.valid);
  EXPECT_DOUBLE_EQ(e1.cate, e2.cate);
  EXPECT_DOUBLE_EQ(e1.p_value, e2.p_value);
}

TEST(EstimatorTest, OutcomeStatsAreKeptWithTheSubpopulation) {
  const Table base = MakeConfoundedTable(2.0, 800, 21);
  auto table = std::make_shared<const Table>(base.Clone());
  auto engine = std::make_shared<EvalEngine>(table);
  EstimatorContext ctx(engine, MakeConfoundedDag(), EstimatorOptions{});
  const Bitset z1 = engine->Evaluate(
      Pattern({SimplePredicate("Z", CompareOp::kEq, Value("1"))}));
  RunningStats want;
  for (size_t r : z1.ToIndices()) want.Add(table->column("Y").GetNumeric(r));
  auto same = [&want](const RunningStats& got) {
    EXPECT_EQ(got.Count(), want.Count());
    EXPECT_EQ(got.Mean(), want.Mean());
    EXPECT_EQ(got.Variance(), want.Variance());
  };

  EstimatorContext::Scope first = ctx.Bind(z1, "Y");
  same(ctx.OutcomeStats(first));
  const size_t before = ctx.CacheBytes();
  // Interning the subpopulation keeps the stats with it.
  ctx.EstimateCate(TreatYes(), "Y", z1);
  EXPECT_GT(ctx.CacheBytes(), before);
  EstimatorContext::Scope second = ctx.Bind(z1, "Y");
  same(ctx.OutcomeStats(second));

  // An append that adds no Z = 1 row carries the subpopulation, and its
  // stats, into the derived context.
  Table grown = base.Clone();
  grown.AddRow({Value("0"), Value("no"), Value(3.0)});
  auto grown_table = std::make_shared<const Table>(std::move(grown));
  auto grown_engine = std::make_shared<EvalEngine>(grown_table, *engine, 0);
  EstimatorContext derived(grown_engine, ctx, 0);
  Bitset z1_grown = z1;
  z1_grown.Resize(grown_table->NumRows());
  EstimatorContext::Scope carried = derived.Bind(z1_grown, "Y");
  same(derived.OutcomeStats(carried));
}

TEST(EstimatorTest, OutcomeStatsOfAnUnknownOutcomeThrows) {
  const Table base = MakeConfoundedTable(2.0, 200, 22);
  auto engine = std::make_shared<EvalEngine>(
      std::make_shared<const Table>(base.Clone()));
  EstimatorContext ctx(engine, MakeConfoundedDag(), EstimatorOptions{});
  Bitset all(base.NumRows());
  all.SetAll();
  EstimatorContext::Scope scope = ctx.Bind(all, "NoSuchColumn");
  EXPECT_THROW(ctx.OutcomeStats(scope), std::out_of_range);
}

}  // namespace
}  // namespace causumx
