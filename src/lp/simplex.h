// Two-phase bounded-variable primal simplex LP solver.
//
// Solves  max c^T x  s.t.  A x {<=,>=,=} b,  0 <= x <= ub.
// This replaces the paper prototype's use of z3 for the LP relaxation of
// the explanation-selection ILP (Fig. 5). Upper bounds stay implicit: a
// nonbasic variable sits at either bound and moves between them by a
// flip, so the tableau has one row per constraint and no bound rows. The
// starting basis is the slacks; only a row whose slack would start
// negative (a >= row with positive rhs, an = row) gets a phase-1
// artificial. Pricing is Dantzig's rule, falling back to Bland's rule
// after a run of degenerate steps, and a pivot rewrites only the nonzero
// columns of the pivot row. On the reduced selection LP of Accidents at
// scale 0.2 (130 candidates) that is a 130 x 389 tableau.

#ifndef CAUSUMX_LP_SIMPLEX_H_
#define CAUSUMX_LP_SIMPLEX_H_

#include <limits>
#include <string>
#include <vector>

namespace causumx {

/// Row sense for a linear constraint.
enum class ConstraintSense { kLe, kGe, kEq };

/// A linear program in the standard "rows + bounds" form.
struct LinearProgram {
  /// Objective coefficients (maximization).
  std::vector<double> objective;
  /// Constraint matrix rows (dense), senses, and right-hand sides.
  std::vector<std::vector<double>> rows;
  std::vector<ConstraintSense> senses;
  std::vector<double> rhs;
  /// Per-variable upper bounds (lower bounds are 0). Use kInf for free-up.
  std::vector<double> upper_bounds;

  static constexpr double kInf = std::numeric_limits<double>::infinity();

  size_t NumVars() const { return objective.size(); }
  size_t NumRows() const { return rows.size(); }

  /// Appends a constraint; `row` must have NumVars entries.
  void AddRow(std::vector<double> row, ConstraintSense sense, double b);
};

/// Solver outcome.
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit };

const char* LpStatusName(LpStatus s);

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective_value = 0.0;
  std::vector<double> values;  ///< primal values, one per variable.
  size_t pivots = 0;           ///< simplex pivots plus bound flips made.
};

/// Solves the LP. `max_iterations` bounds the pivots plus bound flips of
/// both phases together (kIterLimit past it); the Bland fallback makes
/// reaching it on a bounded, feasible LP a formality.
LpSolution SolveLp(const LinearProgram& lp, size_t max_iterations = 100'000);

}  // namespace causumx

#endif  // CAUSUMX_LP_SIMPLEX_H_
