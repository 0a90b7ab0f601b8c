// Differential property tests: the bounded-variable SolveLp against the
// dense two-phase oracle it replaced (dense_simplex_oracle.h); the
// random sweep of test_property_solvers compares them too. Both must
// agree on the status, the objective (within 1e-9, relative to its
// magnitude), and the values that matter downstream. On the selection
// LPs that is every candidate variable g_j, which is all the rounding
// reads: the per-signature coverage variables t_c are not unique when
// the coverage row has slack, so each solver may return a different,
// equally optimal t. The selections built on the LP (randomized
// rounding and the exact branch and bound) must be identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/causumx.h"
#include "datagen/registry.h"
#include "dense_simplex_oracle.h"
#include "lp/rounding.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace causumx {
namespace {

void ExpectSameObjective(const LpSolution& got, const LpSolution& want,
                         const std::string& where) {
  ASSERT_EQ(got.status, want.status) << where;
  if (want.status != LpStatus::kOptimal) return;
  EXPECT_LE(std::fabs(got.objective_value - want.objective_value),
            1e-9 * std::max(1.0, std::fabs(want.objective_value)))
      << where;
}

void ExpectSameValues(const LpSolution& got, const LpSolution& want,
                      size_t count, double tol, const std::string& where) {
  if (want.status != LpStatus::kOptimal) return;
  ASSERT_EQ(got.values.size(), want.values.size()) << where;
  for (size_t j = 0; j < count; ++j) {
    EXPECT_NEAR(got.values[j], want.values[j], tol) << where << " x" << j;
  }
}

// Mixed senses, signs and bounds: >= and = rows (the artificial path),
// negative right-hand sides, infinite and finite upper bounds. These
// include infeasible and unbounded programs; statuses and objectives
// must agree.
TEST(LpOraclePropertyTest, MixedSenseSweepMatchesDense) {
  size_t optimal = 0, infeasible = 0, unbounded = 0;
  for (uint64_t seed = 1; seed < 400; ++seed) {
    Rng rng(seed * 7919 + 3);
    const size_t n = 2 + rng.NextBounded(5);
    const size_t m = 1 + rng.NextBounded(5);
    LinearProgram lp;
    lp.objective.resize(n);
    for (auto& c : lp.objective) c = rng.NextDouble() * 4.0 - 2.0;
    lp.upper_bounds.resize(n);
    for (auto& u : lp.upper_bounds) {
      u = rng.NextBool(0.3) ? LinearProgram::kInf : 0.5 + rng.NextDouble() * 3;
    }
    for (size_t i = 0; i < m; ++i) {
      std::vector<double> row(n);
      for (auto& a : row) a = rng.NextBool(0.3) ? 0.0 : rng.NextDouble() * 4 - 2;
      const double u = rng.NextDouble();
      const ConstraintSense sense = u < 0.5   ? ConstraintSense::kLe
                                    : u < 0.8 ? ConstraintSense::kGe
                                              : ConstraintSense::kEq;
      lp.AddRow(std::move(row), sense, rng.NextDouble() * 6.0 - 3.0);
    }
    const std::string where = "seed " + std::to_string(seed);
    const LpSolution got = SolveLp(lp);
    const LpSolution want = DenseSolveLp(lp);
    ExpectSameObjective(got, want, where);
    optimal += want.status == LpStatus::kOptimal;
    infeasible += want.status == LpStatus::kInfeasible;
    unbounded += want.status == LpStatus::kUnbounded;
  }
  // The sweep reaches every status.
  EXPECT_GT(optimal, 0u);
  EXPECT_GT(infeasible, 0u);
  EXPECT_GT(unbounded, 0u);
}

void ExpectSameSelections(const SelectionProblem& p, bool exact,
                          const std::string& where) {
  std::vector<size_t> counts;
  const LinearProgram lp = p.BuildReducedLp(&counts);
  const LpSolution got = SolveLp(lp);
  const LpSolution want = DenseSolveLp(lp);
  ExpectSameObjective(got, want, where);
  ExpectSameValues(got, want, p.candidates.size(), 1e-9, where);
  EXPECT_EQ(SolveByLpRounding(p).selected, DenseSolveByLpRounding(p).selected)
      << where;
  if (exact) {
    EXPECT_EQ(SolveExact(p).selected, DenseSolveExact(p).selected) << where;
  }
}

// Random selection problems with continuous weights.
TEST(LpOraclePropertyTest, RandomSelectionProblemsMatchDense) {
  for (uint64_t seed = 1; seed < 60; ++seed) {
    Rng rng(seed * 31 + 11);
    SelectionProblem p;
    p.num_groups = 4 + rng.NextBounded(20);
    p.k = 1 + rng.NextBounded(5);
    p.theta = 0.1 + 0.9 * rng.NextDouble();
    const size_t l = 2 + rng.NextBounded(14);
    for (size_t j = 0; j < l; ++j) {
      SelectionCandidate c{0.1 + rng.NextDouble() * 5.0,
                           Bitset(p.num_groups)};
      for (size_t g = 0; g < p.num_groups; ++g) {
        if (rng.NextBool(0.3)) c.coverage.Set(g);
      }
      p.candidates.push_back(std::move(c));
    }
    ExpectSameSelections(p, /*exact=*/true, "seed " + std::to_string(seed));
  }
}

// The five paper datasets' candidates at two scales, over the 63-cell
// k x theta grid. The dense branch and bound needs up to 15 s per cell
// on Accidents' theta in {0.1, 0.5, 0.6, 0.9} columns, so there the exact
// tier is compared on the other three columns only.
TEST(LpOraclePropertyTest, PaperDatasetGridMatchesDense) {
  size_t cells = 0;
  for (const double scale : {0.05, 0.2}) {
    for (const std::string& name : RegisteredDatasetNames()) {
      if (name == "Synthetic") continue;
      const GeneratedDataset ds = MakeDatasetByName(name, scale);
      const CandidateMiningResult mined = MineExplanationCandidates(
          ds.table, ds.default_query, ds.dag, CauSumXConfig{});
      SelectionProblem p;
      p.num_groups = mined.view.NumGroups();
      for (const Explanation& c : mined.candidates) {
        p.candidates.push_back({c.Weight(), c.group_coverage});
      }
      for (const size_t k : {1, 2, 3, 4, 5, 6, 7, 8, 10}) {
        for (const double theta : {0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 1.0}) {
          p.k = k;
          p.theta = theta;
          const bool slow_exact =
              name == "Accidents" &&
              !(theta == 0.25 || theta == 0.75 || theta == 1.0);
          ExpectSameSelections(p, !slow_exact,
                               name + " scale " + std::to_string(scale) +
                                   " k " + std::to_string(k) + " theta " +
                                   std::to_string(theta));
          ++cells;
        }
      }
    }
  }
  EXPECT_EQ(cells, 630u);
}

}  // namespace
}  // namespace causumx
