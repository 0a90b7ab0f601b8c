// Unit tests for the two-phase bounded-variable simplex LP solver.

#include <gtest/gtest.h>

#include "lp/simplex.h"

namespace causumx {
namespace {

TEST(SimplexTest, SimpleTwoVariableLp) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> x=4, y=0, obj 12.
  LinearProgram lp;
  lp.objective = {3, 2};
  lp.upper_bounds = {LinearProgram::kInf, LinearProgram::kInf};
  lp.AddRow({1, 1}, ConstraintSense::kLe, 4);
  lp.AddRow({1, 3}, ConstraintSense::kLe, 6);
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective_value, 12.0, 1e-6);
  EXPECT_NEAR(sol.values[0], 4.0, 1e-6);
  EXPECT_NEAR(sol.values[1], 0.0, 1e-6);
}

TEST(SimplexTest, InteriorOptimum) {
  // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> x=y=4/3, obj 8/3.
  LinearProgram lp;
  lp.objective = {1, 1};
  lp.upper_bounds = {LinearProgram::kInf, LinearProgram::kInf};
  lp.AddRow({2, 1}, ConstraintSense::kLe, 4);
  lp.AddRow({1, 2}, ConstraintSense::kLe, 4);
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective_value, 8.0 / 3.0, 1e-6);
  EXPECT_NEAR(sol.values[0], 4.0 / 3.0, 1e-6);
  EXPECT_NEAR(sol.values[1], 4.0 / 3.0, 1e-6);
}

TEST(SimplexTest, GeConstraintsNeedPhase1) {
  // max -x s.t. x >= 3 -> x = 3, obj -3.
  LinearProgram lp;
  lp.objective = {-1};
  lp.upper_bounds = {LinearProgram::kInf};
  lp.AddRow({1}, ConstraintSense::kGe, 3);
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.values[0], 3.0, 1e-6);
  EXPECT_NEAR(sol.objective_value, -3.0, 1e-6);
}

TEST(SimplexTest, EqualityConstraint) {
  // max x + 2y s.t. x + y = 5, y <= 3 -> y=3, x=2, obj 8.
  LinearProgram lp;
  lp.objective = {1, 2};
  lp.upper_bounds = {LinearProgram::kInf, 3.0};
  lp.AddRow({1, 1}, ConstraintSense::kEq, 5);
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.values[0], 2.0, 1e-6);
  EXPECT_NEAR(sol.values[1], 3.0, 1e-6);
  EXPECT_NEAR(sol.objective_value, 8.0, 1e-6);
}

TEST(SimplexTest, InfeasibleDetected) {
  // x <= 1 and x >= 2 simultaneously.
  LinearProgram lp;
  lp.objective = {1};
  lp.upper_bounds = {LinearProgram::kInf};
  lp.AddRow({1}, ConstraintSense::kLe, 1);
  lp.AddRow({1}, ConstraintSense::kGe, 2);
  EXPECT_EQ(SolveLp(lp).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  LinearProgram lp;
  lp.objective = {1};
  lp.upper_bounds = {LinearProgram::kInf};
  lp.AddRow({-1}, ConstraintSense::kLe, 0);  // x >= 0 only
  EXPECT_EQ(SolveLp(lp).status, LpStatus::kUnbounded);
}

TEST(SimplexTest, UpperBoundsRespected) {
  LinearProgram lp;
  lp.objective = {1, 1};
  lp.upper_bounds = {0.5, 0.25};
  lp.AddRow({1, 1}, ConstraintSense::kLe, 10);
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.values[0], 0.5, 1e-6);
  EXPECT_NEAR(sol.values[1], 0.25, 1e-6);
}

TEST(SimplexTest, NegativeRhsNormalized) {
  // -x <= -2  <=>  x >= 2.
  LinearProgram lp;
  lp.objective = {-1};
  lp.upper_bounds = {LinearProgram::kInf};
  lp.AddRow({-1}, ConstraintSense::kLe, -2);
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.values[0], 2.0, 1e-6);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex (degeneracy);
  // Bland's rule must still terminate at the optimum.
  LinearProgram lp;
  lp.objective = {1, 1};
  lp.upper_bounds = {LinearProgram::kInf, LinearProgram::kInf};
  lp.AddRow({1, 0}, ConstraintSense::kLe, 1);
  lp.AddRow({1, 0}, ConstraintSense::kLe, 1);
  lp.AddRow({0, 1}, ConstraintSense::kLe, 1);
  lp.AddRow({1, 1}, ConstraintSense::kLe, 2);
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective_value, 2.0, 1e-6);
}

TEST(SimplexTest, RowArityMismatchThrows) {
  LinearProgram lp;
  lp.objective = {1, 2};
  EXPECT_THROW(lp.AddRow({1}, ConstraintSense::kLe, 1),
               std::invalid_argument);
}

TEST(SimplexTest, MaxKCoverRelaxationShape) {
  // The Fig. 5 LP on a tiny instance: 3 patterns, 4 groups, k=1,
  // theta=0.5. Pattern coverages: {1,2}, {3}, {1,2,3,4} with weights
  // 5, 4, 3. LP should put most mass on the full-coverage pattern or mix.
  LinearProgram lp;
  lp.objective = {5, 4, 3, 0, 0, 0, 0};
  lp.upper_bounds.assign(7, 1.0);
  lp.AddRow({1, 1, 1, 0, 0, 0, 0}, ConstraintSense::kLe, 1);        // size
  lp.AddRow({-1, 0, -1, 1, 0, 0, 0}, ConstraintSense::kLe, 0);      // t1
  lp.AddRow({-1, 0, -1, 0, 1, 0, 0}, ConstraintSense::kLe, 0);      // t2
  lp.AddRow({0, -1, -1, 0, 0, 1, 0}, ConstraintSense::kLe, 0);      // t3
  lp.AddRow({0, 0, -1, 0, 0, 0, 1}, ConstraintSense::kLe, 0);       // t4
  lp.AddRow({0, 0, 0, 1, 1, 1, 1}, ConstraintSense::kGe, 2);        // cover
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  // Feasibility of rounding requires fractional mass on covering patterns.
  EXPECT_GT(sol.objective_value, 3.0 - 1e-6);
  double g_total = sol.values[0] + sol.values[1] + sol.values[2];
  EXPECT_LE(g_total, 1.0 + 1e-6);
}

TEST(SimplexTest, OptimumWithVariablesAtUpperBound) {
  // LP knapsack: max 5x + 4y + 3z s.t. 2x + 3y + z <= 5, all in [0, 1].
  // x and z sit at their upper bound (nonbasic there, no bound row), y is
  // basic at 2/3: objective 8 + 8/3.
  LinearProgram lp;
  lp.objective = {5, 4, 3};
  lp.upper_bounds = {1, 1, 1};
  lp.AddRow({2, 3, 1}, ConstraintSense::kLe, 5);
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.values[0], 1.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(sol.values[2], 1.0, 1e-9);
  EXPECT_NEAR(sol.objective_value, 8.0 + 8.0 / 3.0, 1e-9);
  EXPECT_GT(sol.pivots, 0u);
}

TEST(SimplexTest, PositiveGeRowTakesArtificialPath) {
  // max -x - 2y s.t. x + y >= 1.5, x + y <= 4, x in [0, 1]: the >= row's
  // surplus cannot start the basis, so phase 1 runs; x hits its bound
  // and y covers the rest.
  LinearProgram lp;
  lp.objective = {-1, -2};
  lp.upper_bounds = {1, LinearProgram::kInf};
  lp.AddRow({1, 1}, ConstraintSense::kGe, 1.5);
  lp.AddRow({1, 1}, ConstraintSense::kLe, 4);
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.values[0], 1.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 0.5, 1e-9);
  EXPECT_NEAR(sol.objective_value, -2.0, 1e-9);
}

TEST(SimplexTest, EqualityRowWithNegativeRhs) {
  // -x - y = -3 with y <= 2: max x + 2y -> y = 2, x = 1, objective 5.
  LinearProgram lp;
  lp.objective = {1, 2};
  lp.upper_bounds = {LinearProgram::kInf, 2};
  lp.AddRow({-1, -1}, ConstraintSense::kEq, -3);
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.values[0], 1.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 2.0, 1e-9);
  EXPECT_NEAR(sol.objective_value, 5.0, 1e-9);
}

TEST(SimplexTest, InfeasibleGeRowAgainstUpperBounds) {
  // x + y >= 3 cannot hold with x, y in [0, 1]: the bounds alone make it
  // infeasible, with no bound row in the tableau.
  LinearProgram lp;
  lp.objective = {1, 1};
  lp.upper_bounds = {1, 1};
  lp.AddRow({1, 1}, ConstraintSense::kGe, 3);
  EXPECT_EQ(SolveLp(lp).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedWithInfiniteUpperBound) {
  // y has no upper bound and x - y <= 1 never stops it.
  LinearProgram lp;
  lp.objective = {1, 1};
  lp.upper_bounds = {2, LinearProgram::kInf};
  lp.AddRow({1, -1}, ConstraintSense::kLe, 1);
  EXPECT_EQ(SolveLp(lp).status, LpStatus::kUnbounded);
}

TEST(SimplexTest, BealeCyclingExampleTerminates) {
  // Beale (1955), which cycles under textbook Dantzig pricing with
  // lowest-index ratio ties, must reach the optimum x4 = 1/25, x6 = 1,
  // objective 1/20 (maximizing the negated original objective).
  LinearProgram lp;
  lp.objective = {0.75, -150, 0.02, -6};
  lp.upper_bounds.assign(4, LinearProgram::kInf);
  lp.AddRow({0.25, -60, -0.04, 9}, ConstraintSense::kLe, 0);
  lp.AddRow({0.5, -90, -0.02, 3}, ConstraintSense::kLe, 0);
  lp.AddRow({0, 0, 1, 0}, ConstraintSense::kLe, 1);
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective_value, 0.05, 1e-9);
  EXPECT_NEAR(sol.values[0], 0.04, 1e-9);
  EXPECT_NEAR(sol.values[2], 1.0, 1e-9);
}

TEST(SimplexTest, ChvatalCyclingExampleFallsBackToBland) {
  // Chvatal's example cycles under this solver's Dantzig pricing (six
  // degenerate pivots repeat the starting basis). After 50 degenerate
  // steps pricing switches to Bland's rule, which leaves the vertex and
  // reaches x1 = x3 = 1, objective 1.
  LinearProgram lp;
  lp.objective = {10, -57, -9, -24};
  lp.upper_bounds.assign(4, LinearProgram::kInf);
  lp.AddRow({0.5, -5.5, -2.5, 9}, ConstraintSense::kLe, 0);
  lp.AddRow({0.5, -1.5, -0.5, 1}, ConstraintSense::kLe, 0);
  lp.AddRow({1, 0, 0, 0}, ConstraintSense::kLe, 1);
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective_value, 1.0, 1e-9);
  EXPECT_NEAR(sol.values[0], 1.0, 1e-9);
  EXPECT_NEAR(sol.values[2], 1.0, 1e-9);
  EXPECT_GT(sol.pivots, 50u);
}

TEST(SimplexTest, IterationLimitReported) {
  // The knapsack above needs more than one step.
  LinearProgram lp;
  lp.objective = {5, 4, 3};
  lp.upper_bounds = {1, 1, 1};
  lp.AddRow({2, 3, 1}, ConstraintSense::kLe, 5);
  const LpSolution sol = SolveLp(lp, /*max_iterations=*/1);
  EXPECT_EQ(sol.status, LpStatus::kIterLimit);
  EXPECT_EQ(sol.pivots, 1u);
}

}  // namespace
}  // namespace causumx
