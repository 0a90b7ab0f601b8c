// Tests for the inverse-propensity-weighting estimation path (the
// Section 7 extension) and confidence intervals.

#include <gtest/gtest.h>

#include <cmath>

#include "causal/estimator_context.h"
#include "util/rng.h"

namespace causumx {
namespace {

// Confounded world identical to test_estimator: Y = effect*T + 10*Z + e,
// with Z driving both treatment propensity and outcome.
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

TEST(IpwTest, RemovesConfoundingBias) {
  const Table t = MakeConfoundedTable(2.0, 8000, 3);
  EstimatorOptions opt;
  opt.method = EstimationMethod::kIpw;
  EstimatorContext est = MakeEstimator(t, MakeConfoundedDag(), opt);
  const EffectEstimate e = Ate(est, TreatYes(), "Y");
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.cate, 2.0, 0.35);
  EXPECT_LT(e.p_value, 1e-4);
}

TEST(IpwTest, AgreesWithRegressionOnRandomizedData) {
  // No confounding: both estimators converge to the same effect.
  Table t;
  t.AddColumn("T", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  Rng rng(5);
  for (size_t i = 0; i < 6000; ++i) {
    const bool treated = rng.NextBool(0.5);
    t.AddRow({Value(treated ? "yes" : "no"),
              Value(4.0 * (treated ? 1.0 : 0.0) + rng.NextGaussian())});
  }
  CausalDag g;
  g.AddEdge("T", "Y");

  EstimatorOptions reg_opt;
  EstimatorOptions ipw_opt;
  ipw_opt.method = EstimationMethod::kIpw;
  EstimatorContext reg_est = MakeEstimator(t, g, reg_opt);
  EstimatorContext ipw_est = MakeEstimator(t, g, ipw_opt);
  const EffectEstimate reg = Ate(reg_est, TreatYes(), "Y");
  const EffectEstimate ipw = Ate(ipw_est, TreatYes(), "Y");
  ASSERT_TRUE(reg.valid && ipw.valid);
  EXPECT_NEAR(reg.cate, ipw.cate, 0.15);
  EXPECT_NEAR(ipw.cate, 4.0, 0.15);
}

TEST(IpwTest, RespectsOverlapGuards) {
  Table t;
  t.AddColumn("T", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  for (size_t i = 0; i < 200; ++i) {
    t.AddRow({Value("yes"), Value(1.0)});
  }
  CausalDag g;
  g.AddEdge("T", "Y");
  EstimatorOptions opt;
  opt.method = EstimationMethod::kIpw;
  EstimatorContext est = MakeEstimator(t, g, opt);
  EXPECT_FALSE(Ate(est, TreatYes(), "Y").valid);
}

TEST(IpwTest, NullEffectNotSignificant) {
  Table t;
  t.AddColumn("T", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  Rng rng(7);
  for (size_t i = 0; i < 3000; ++i) {
    t.AddRow({Value(rng.NextBool(0.5) ? "yes" : "no"),
              Value(rng.NextGaussian())});
  }
  CausalDag g;
  g.AddEdge("T", "Y");
  EstimatorOptions opt;
  opt.method = EstimationMethod::kIpw;
  EstimatorContext est = MakeEstimator(t, g, opt);
  const EffectEstimate e = Ate(est, TreatYes(), "Y");
  ASSERT_TRUE(e.valid);
  EXPECT_GT(e.p_value, 0.01);
  EXPECT_NEAR(e.cate, 0.0, 0.15);
}

TEST(IpwTest, SubpopulationCate) {
  const Table t = MakeConfoundedTable(3.0, 8000, 9);
  EstimatorOptions opt;
  opt.method = EstimationMethod::kIpw;
  EstimatorContext est = MakeEstimator(t, MakeConfoundedDag(), opt);
  // Restrict to the Z=1 stratum: within it there is no confounding left,
  // so the IPW CATE is the plain stratum effect.
  const Pattern z1({SimplePredicate("Z", CompareOp::kEq, Value("1"))});
  const EffectEstimate e = est.EstimateCate(TreatYes(), "Y",
                                           est.engine()->Evaluate(z1));
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.cate, 3.0, 0.35);
}

TEST(ConfidenceIntervalTest, CoversPointEstimate) {
  const Table t = MakeConfoundedTable(2.0, 4000, 11);
  EstimatorContext est = MakeEstimator(t, MakeConfoundedDag());
  const EffectEstimate e = Ate(est, TreatYes(), "Y");
  ASSERT_TRUE(e.valid);
  const auto [lo, hi] = e.ConfidenceInterval();
  EXPECT_LT(lo, e.cate);
  EXPECT_GT(hi, e.cate);
  EXPECT_NEAR(hi - lo, 2 * 1.959963984540054 * e.std_error, 1e-9);
  // A wider level gives a wider interval.
  const auto [lo99, hi99] = e.ConfidenceInterval(0.99);
  EXPECT_LT(lo99, lo);
  EXPECT_GT(hi99, hi);
}

TEST(ConfidenceIntervalTest, InvalidEstimateDegenerate) {
  EffectEstimate e;
  const auto [lo, hi] = e.ConfidenceInterval();
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 0.0);
}

// Property sweep: the 95% CI of the regression estimator should cover
// the true effect for most seeds (it is an asymptotically exact CI).
class CiCoverageSweep : public ::testing::TestWithParam<int> {};

TEST_P(CiCoverageSweep, IntervalUsuallyCoversTruth) {
  const double truth = 1.5;
  const Table t = MakeConfoundedTable(truth, 3000,
                                      static_cast<uint64_t>(GetParam()));
  EstimatorContext est = MakeEstimator(t, MakeConfoundedDag());
  const EffectEstimate e = Ate(est, TreatYes(), "Y");
  ASSERT_TRUE(e.valid);
  const auto [lo, hi] = e.ConfidenceInterval(0.999);  // generous level
  EXPECT_LE(lo, truth);
  EXPECT_GE(hi, truth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CiCoverageSweep, ::testing::Range(100, 110));

}  // namespace
}  // namespace causumx
