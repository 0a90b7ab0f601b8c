// Property-based tests for the LP/ILP machinery on random instances:
// solutions must satisfy their constraints and match the dense oracle
// solver, the LP bound must dominate integral solutions, and
// d-separation must predict vanishing partial correlations in
// linear-Gaussian data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "causal/dag.h"
#include "causal/independence.h"
#include "dense_simplex_oracle.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace causumx {
namespace {

class SimplexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Random feasible-by-construction LPs: constraints are built around a
// known interior point, so kOptimal is required and the optimum must
// (weakly) beat that point. The optimum is unique here, so the dense
// oracle must return the same objective and values.
TEST_P(SimplexPropertyTest, OptimumDominatesKnownFeasiblePoint) {
  Rng rng(GetParam());
  const size_t n = 2 + rng.NextBounded(4);
  const size_t m = 1 + rng.NextBounded(4);

  std::vector<double> interior(n);
  for (auto& x : interior) x = rng.NextDouble() * 2.0;

  LinearProgram lp;
  lp.objective.resize(n);
  for (auto& c : lp.objective) c = rng.NextDouble() * 4.0 - 2.0;
  lp.upper_bounds.assign(n, 5.0);
  for (size_t i = 0; i < m; ++i) {
    std::vector<double> row(n);
    double lhs = 0.0;
    for (size_t j = 0; j < n; ++j) {
      row[j] = rng.NextDouble() * 2.0 - 0.5;
      // causumx-lint: allow(fp-accumulation) test setup, fixed index order
      lhs += row[j] * interior[j];
    }
    // rhs strictly above the interior point's lhs -> point stays feasible.
    lp.AddRow(std::move(row), ConstraintSense::kLe,
              lhs + 0.5 + rng.NextDouble());
  }

  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal) << "seed " << GetParam();

  double interior_obj = 0.0;
  // causumx-lint: allow(fp-accumulation) serial dot product, test oracle
  for (size_t j = 0; j < n; ++j) interior_obj += lp.objective[j] * interior[j];
  EXPECT_GE(sol.objective_value + 1e-6, interior_obj);

  // The returned point must satisfy every constraint and bound.
  for (size_t i = 0; i < lp.rows.size(); ++i) {
    double lhs = 0.0;
    for (size_t j = 0; j < n; ++j) lhs += lp.rows[i][j] * sol.values[j];
    EXPECT_LE(lhs, lp.rhs[i] + 1e-6);
  }
  for (size_t j = 0; j < n; ++j) {
    EXPECT_GE(sol.values[j], -1e-9);
    EXPECT_LE(sol.values[j], 5.0 + 1e-6);
  }

  const LpSolution dense = DenseSolveLp(lp);
  ASSERT_EQ(dense.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective_value, dense.objective_value,
              1e-9 * std::max(1.0, std::fabs(dense.objective_value)));
  for (size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(sol.values[j], dense.values[j], 1e-9) << "x" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexPropertyTest,
                         ::testing::Range<uint64_t>(1, 200));

// Linear-Gaussian consistency: generate data from a random DAG's
// structural equations; every d-separated pair given a random single
// conditioner must show |partial correlation| near zero, and each direct
// edge must show strong dependence.
class DSeparationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DSeparationPropertyTest, DSeparationPredictsVanishingCorrelation) {
  Rng rng(GetParam() * 101 + 7);
  const size_t k = 5;
  std::vector<std::string> names;
  for (size_t i = 0; i < k; ++i) names.push_back("V" + std::to_string(i));

  // Random upper-triangular DAG with ~50% edge density and strong weights.
  CausalDag dag;
  for (const auto& n : names) dag.AddNode(n);
  std::vector<std::vector<double>> weight(k, std::vector<double>(k, 0.0));
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      if (rng.NextBool(0.5)) {
        dag.AddEdge(names[i], names[j]);
        weight[i][j] = rng.NextBool(0.5) ? 1.2 : -1.2;
      }
    }
  }

  Table t;
  for (const auto& n : names) t.AddColumn(n, ColumnType::kDouble);
  const size_t rows = 6000;
  std::vector<Value> row(k);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<double> vals(k, 0.0);
    for (size_t j = 0; j < k; ++j) {
      double v = rng.NextGaussian();
      for (size_t i = 0; i < j; ++i) v += weight[i][j] * vals[i];
      vals[j] = v;
      row[j] = Value(v);
    }
    t.AddRow(row);
  }

  FisherZTest test(t);
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = a + 1; b < k; ++b) {
      // A direct edge a -> b shows strong dependence once b's *other*
      // parents are controlled for (marginal correlation alone can be
      // diluted by cancelling parallel paths).
      if (dag.HasEdge(names[a], names[b])) {
        std::vector<std::string> other_parents;
        for (const auto& p : dag.Parents(names[b])) {
          if (p != names[a]) other_parents.push_back(p);
        }
        EXPECT_GT(std::fabs(test.PartialCorrelation(names[a], names[b],
                                                    other_parents)),
                  0.2)
            << names[a] << "->" << names[b];
      }
      for (size_t c = 0; c < k; ++c) {
        if (c == a || c == b) continue;
        if (dag.DSeparated(names[a], names[b], {names[c]})) {
          EXPECT_LT(std::fabs(test.PartialCorrelation(names[a], names[b],
                                                      {names[c]})),
                    0.08)
              << names[a] << " _||_ " << names[b] << " | " << names[c];
        }
      }
      if (dag.DSeparated(names[a], names[b], {})) {
        EXPECT_LT(std::fabs(test.PartialCorrelation(names[a], names[b], {})),
                  0.08);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DSeparationPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace causumx
