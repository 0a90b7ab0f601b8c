// Test oracle: the dense two-phase tableau simplex that SolveLp used
// before it became a bounded-variable solver, and copies of the branch
// and bound (lp/ilp.cpp) and the randomized rounding (lp/rounding.cpp)
// that call it instead of SolveLp. The dense solver turns every finite
// upper bound into an extra <= row, gives every row a phase-1
// artificial, rewrites the whole tableau on each pivot, and prices with
// Bland's rule throughout. Slow but simple: test_property_lp compares
// SolveLp's status, objective and values, and the selections built on
// them, against it.

#ifndef CAUSUMX_TESTS_DENSE_SIMPLEX_ORACLE_H_
#define CAUSUMX_TESTS_DENSE_SIMPLEX_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <optional>
#include <stack>
#include <vector>

#include "lp/ilp.h"
#include "lp/rounding.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace causumx {

namespace dense_oracle_internal {

constexpr double kEps = 1e-9;

// Internal standard-form tableau solver:
//   max c^T x  s.t.  A x = b,  x >= 0,  b >= 0,
// starting from the given basis (one basic variable per row).
// Returns kOptimal/kUnbounded/kIterLimit; the tableau and basis are
// updated in place.
inline LpStatus RunSimplex(std::vector<std::vector<double>>& a,  // m x n
                    std::vector<double>& b,               // m
                    std::vector<double>& c,               // n (reduced costs)
                    double& objective,                    // running objective
                    std::vector<size_t>& basis,           // m
                    size_t max_iterations) {
  const size_t m = a.size();
  const size_t n = c.size();
  for (size_t iter = 0; iter < max_iterations; ++iter) {
    // Bland's rule: entering variable = smallest index with positive
    // reduced cost (maximization).
    size_t enter = n;
    for (size_t j = 0; j < n; ++j) {
      if (c[j] > kEps) {
        enter = j;
        break;
      }
    }
    if (enter == n) return LpStatus::kOptimal;

    // Ratio test: leaving row = min b_i / a_ie over a_ie > 0, Bland tiebreak
    // on basic variable index.
    size_t leave = m;
    double best_ratio = 0.0;
    for (size_t i = 0; i < m; ++i) {
      if (a[i][enter] > kEps) {
        const double ratio = b[i] / a[i][enter];
        if (leave == m || ratio < best_ratio - kEps ||
            (std::fabs(ratio - best_ratio) <= kEps &&
             basis[i] < basis[leave])) {
          leave = i;
          best_ratio = ratio;
        }
      }
    }
    if (leave == m) return LpStatus::kUnbounded;

    // Pivot on (leave, enter).
    const double piv = a[leave][enter];
    for (size_t j = 0; j < n; ++j) a[leave][j] /= piv;
    b[leave] /= piv;
    for (size_t i = 0; i < m; ++i) {
      if (i == leave) continue;
      const double f = a[i][enter];
      if (std::fabs(f) <= kEps) continue;
      for (size_t j = 0; j < n; ++j) a[i][j] -= f * a[leave][j];
      b[i] -= f * b[leave];
      if (b[i] < 0 && b[i] > -kEps) b[i] = 0;
    }
    const double fc = c[enter];
    if (std::fabs(fc) > kEps) {
      for (size_t j = 0; j < n; ++j) c[j] -= fc * a[leave][j];
      objective += fc * b[leave];
    }
    basis[leave] = enter;
  }
  return LpStatus::kIterLimit;
}

}  // namespace dense_oracle_internal

inline LpSolution DenseSolveLp(const LinearProgram& lp,
                               size_t max_iterations = 100'000) {
  using dense_oracle_internal::kEps;
  using dense_oracle_internal::RunSimplex;
  LpSolution sol;
  const size_t n0 = lp.NumVars();

  // Convert to standard form:
  //  * finite upper bounds become extra <= rows,
  //  * <= rows gain a slack, >= rows a surplus (negated slack),
  //  * all rows normalized to b >= 0,
  //  * phase-1 artificials for rows lacking an identity column.
  std::vector<std::vector<double>> rows = lp.rows;
  std::vector<ConstraintSense> senses = lp.senses;
  std::vector<double> rhs = lp.rhs;
  for (size_t j = 0; j < n0 && j < lp.upper_bounds.size(); ++j) {
    const double ub = lp.upper_bounds[j];
    if (std::isfinite(ub)) {
      std::vector<double> row(n0, 0.0);
      row[j] = 1.0;
      rows.push_back(std::move(row));
      senses.push_back(ConstraintSense::kLe);
      rhs.push_back(ub);
    }
  }
  const size_t m = rows.size();

  // Count slack columns.
  size_t num_slacks = 0;
  for (auto s : senses) {
    if (s != ConstraintSense::kEq) ++num_slacks;
  }
  const size_t n1 = n0 + num_slacks;        // structural + slack
  const size_t n_total = n1 + m;            // + one artificial per row

  std::vector<std::vector<double>> a(m, std::vector<double>(n_total, 0.0));
  std::vector<double> b(m, 0.0);
  std::vector<size_t> basis(m, 0);

  size_t slack_col = n0;
  for (size_t i = 0; i < m; ++i) {
    double sign = 1.0;
    if (rhs[i] < 0) sign = -1.0;  // normalize to b >= 0
    for (size_t j = 0; j < n0; ++j) a[i][j] = sign * rows[i][j];
    b[i] = sign * rhs[i];
    if (senses[i] != ConstraintSense::kEq) {
      const double slack_sign =
          (senses[i] == ConstraintSense::kLe) ? 1.0 : -1.0;
      a[i][slack_col] = sign * slack_sign;
      ++slack_col;
    }
    // Artificial column for every row; phase 1 drives them out. (For rows
    // whose slack already forms an identity column this is redundant but
    // harmless — the artificial simply never enters.)
    a[i][n1 + i] = 1.0;
    basis[i] = n1 + i;
  }

  // Phase 1: minimize sum of artificials == max -sum(artificials).
  std::vector<double> c1(n_total, 0.0);
  for (size_t i = 0; i < m; ++i) c1[n1 + i] = -1.0;
  // Price out the initial basis (reduced costs must be zero on basics).
  double obj1 = 0.0;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n_total; ++j) c1[j] += a[i][j];
    obj1 -= b[i];  // causumx-lint: allow(fp-accumulation) serial fixed row order)
  }
  // (c1 := c1 - sum over basic rows of (coef of artificial = -1)*row.)
  LpStatus st = RunSimplex(a, b, c1, obj1, basis, max_iterations);
  if (st == LpStatus::kIterLimit) {
    sol.status = st;
    return sol;
  }
  if (obj1 < -1e-6) {
    sol.status = LpStatus::kInfeasible;
    return sol;
  }
  // Drive any artificial still in the basis to zero by pivoting it out on
  // a nonzero structural column, or drop the (redundant) row.
  for (size_t i = 0; i < m; ++i) {
    if (basis[i] < n1) continue;
    size_t pivot_col = n_total;
    for (size_t j = 0; j < n1; ++j) {
      if (std::fabs(a[i][j]) > kEps) {
        pivot_col = j;
        break;
      }
    }
    if (pivot_col == n_total) continue;  // all-zero row; harmless.
    const double piv = a[i][pivot_col];
    for (size_t j = 0; j < n_total; ++j) a[i][j] /= piv;
    b[i] /= piv;
    for (size_t r = 0; r < m; ++r) {
      if (r == i) continue;
      const double f = a[r][pivot_col];
      if (std::fabs(f) <= kEps) continue;
      for (size_t j = 0; j < n_total; ++j) a[r][j] -= f * a[i][j];
      b[r] -= f * b[i];
    }
    basis[i] = pivot_col;
  }

  // Phase 2: original objective over structural + slack columns;
  // artificials pinned at zero by excluding them (zero cost, and we forbid
  // them from entering by making their reduced cost very negative).
  std::vector<double> c2(n_total, 0.0);
  for (size_t j = 0; j < n0; ++j) c2[j] = lp.objective[j];
  // Price out the current basis.
  double obj2 = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const size_t bj = basis[i];
    const double cb = bj < n0 ? lp.objective[bj] : 0.0;
    if (cb == 0.0) continue;
    for (size_t j = 0; j < n_total; ++j) c2[j] -= cb * a[i][j];
    obj2 += cb * b[i];  // causumx-lint: allow(fp-accumulation) serial fixed row order)
  }
  for (size_t i = 0; i < m; ++i) c2[n1 + i] = -1e30;  // block artificials
  st = RunSimplex(a, b, c2, obj2, basis, max_iterations);
  if (st != LpStatus::kOptimal) {
    sol.status = st;
    return sol;
  }

  sol.status = LpStatus::kOptimal;
  sol.values.assign(n0, 0.0);
  for (size_t i = 0; i < m; ++i) {
    if (basis[i] < n0) sol.values[basis[i]] = b[i];
  }
  sol.objective_value = 0.0;
  for (size_t j = 0; j < n0; ++j) {
    sol.objective_value += lp.objective[j] * sol.values[j];
  }
  return sol;
}


namespace dense_oracle_internal {

constexpr double kIntTol = 1e-6;

struct Node {
  // Variable fixings: -1 = free, 0/1 = fixed.
  std::vector<int8_t> fixed;
};

// Applies fixings to a copy of the base LP via bound rows.
inline LinearProgram WithFixings(const LinearProgram& base,
                          const std::vector<int8_t>& fixed) {
  LinearProgram lp = base;
  for (size_t j = 0; j < fixed.size(); ++j) {
    if (fixed[j] < 0) continue;
    std::vector<double> row(base.NumVars(), 0.0);
    row[j] = 1.0;
    lp.AddRow(std::move(row), ConstraintSense::kEq,
              static_cast<double>(fixed[j]));
  }
  return lp;
}

// Index of the most fractional free binary variable, or nullopt if all
// binaries are integral.
inline std::optional<size_t> MostFractional(const std::vector<double>& x,
                                     const std::vector<int8_t>& fixed,
                                     size_t num_binary) {
  std::optional<size_t> best;
  double best_dist = kIntTol;
  for (size_t j = 0; j < x.size() && j < num_binary; ++j) {
    if (fixed[j] >= 0) continue;
    const double frac = x[j] - std::floor(x[j]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_dist) {
      best_dist = dist;
      best = j;
    }
  }
  return best;
}

// Evaluates a chosen index set against the problem constraints.
inline SelectionResult Evaluate(const SelectionProblem& p,
                         const std::vector<size_t>& selected) {
  SelectionResult r;
  r.selected = selected;
  std::sort(r.selected.begin(), r.selected.end());
  r.selected.erase(std::unique(r.selected.begin(), r.selected.end()),
                   r.selected.end());
  Bitset covered(p.num_groups);
  for (size_t j : r.selected) {
    r.total_weight += p.candidates[j].weight;
    covered |= p.candidates[j].coverage;
  }
  r.covered_groups = covered.Count();
  r.feasible = r.selected.size() <= p.k &&
               r.covered_groups >= p.RequiredCoverage();
  return r;
}

inline bool Better(const SelectionResult& a, const SelectionResult& b) {
  // Feasible beats infeasible; then weight; then coverage.
  if (a.feasible != b.feasible) return a.feasible;
  if (a.feasible) return a.total_weight > b.total_weight;
  if (a.covered_groups != b.covered_groups) {
    return a.covered_groups > b.covered_groups;
  }
  return a.total_weight > b.total_weight;
}

}  // namespace dense_oracle_internal

inline IlpSolution DenseSolveBinaryIlp(const LinearProgram& base,
                                       size_t max_nodes,
                                       size_t num_binary_vars) {
  using namespace dense_oracle_internal;
  IlpSolution incumbent;

  LinearProgram lp = base;
  if (num_binary_vars == 0 || num_binary_vars > lp.NumVars()) {
    num_binary_vars = lp.NumVars();
  }
  // Ensure binary upper bounds on the binary prefix; continuous suffix
  // variables keep their declared bounds (default 1.0 if unset).
  if (lp.upper_bounds.size() < lp.NumVars()) {
    lp.upper_bounds.resize(lp.NumVars(), 1.0);
  }
  for (size_t j = 0; j < num_binary_vars; ++j) lp.upper_bounds[j] = 1.0;

  std::stack<Node> stack;
  stack.push(Node{std::vector<int8_t>(lp.NumVars(), -1)});
  size_t nodes = 0;
  bool exhausted = false;

  while (!stack.empty()) {
    if (++nodes > max_nodes) {
      exhausted = true;
      break;
    }
    Node node = std::move(stack.top());
    stack.pop();

    const LpSolution relax = DenseSolveLp(WithFixings(lp, node.fixed));
    if (relax.status != LpStatus::kOptimal) continue;  // prune infeasible
    if (incumbent.status == LpStatus::kOptimal &&
        relax.objective_value <= incumbent.objective_value + 1e-9) {
      continue;  // bound
    }

    const auto branch_var =
        MostFractional(relax.values, node.fixed, num_binary_vars);
    if (!branch_var) {
      // Binary prefix integral (within tolerance) — round it and accept;
      // continuous suffix values pass through.
      IlpSolution cand;
      cand.status = LpStatus::kOptimal;
      cand.values.resize(relax.values.size());
      for (size_t j = 0; j < relax.values.size(); ++j) {
        cand.values[j] = j < num_binary_vars ? std::round(relax.values[j])
                                             : relax.values[j];
      }
      cand.objective_value = 0.0;
      for (size_t j = 0; j < lp.NumVars(); ++j) {
        cand.objective_value += lp.objective[j] * cand.values[j];
      }
      if (incumbent.status != LpStatus::kOptimal ||
          cand.objective_value > incumbent.objective_value) {
        incumbent = std::move(cand);
      }
      continue;
    }

    // Branch: try the rounded-up child first (depth-first on 1 tends to
    // find good incumbents early for cover-style problems).
    Node zero = node, one = node;
    zero.fixed[*branch_var] = 0;
    one.fixed[*branch_var] = 1;
    stack.push(std::move(zero));
    stack.push(std::move(one));
  }

  if (incumbent.status != LpStatus::kOptimal) {
    incumbent.status = exhausted ? LpStatus::kIterLimit : LpStatus::kInfeasible;
  } else if (exhausted) {
    incumbent.status = LpStatus::kIterLimit;  // best-effort incumbent
  }
  return incumbent;
}


inline SelectionResult DenseSolveByLpRounding(const SelectionProblem& p,
                                              size_t rounds = 64,
                                              uint64_t seed = 1234) {
  using dense_oracle_internal::Better;
  using dense_oracle_internal::Evaluate;
  SelectionResult best;
  if (p.candidates.empty()) {
    best.feasible = p.RequiredCoverage() == 0;
    return best;
  }
  std::vector<size_t> sig_counts;
  const LpSolution lp = DenseSolveLp(p.BuildReducedLp(&sig_counts));
  if (lp.status != LpStatus::kOptimal) {
    // LP infeasible => ILP infeasible (Prop. A.1(1)); report best effort 0.
    return best;
  }
  best.lp_feasible = true;
  const size_t l = p.candidates.size();

  // Sampling weights g_j / k (clip tiny negatives from the solver).
  std::vector<double> weights(l, 0.0);
  for (size_t j = 0; j < l; ++j) {
    weights[j] = std::max(0.0, lp.values[j]);
  }

  Rng rng(seed);
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<size_t> pick;
    pick.reserve(p.k);
    for (size_t draw = 0; draw < p.k; ++draw) {
      pick.push_back(rng.NextWeighted(weights));
    }
    SelectionResult cand = Evaluate(p, pick);
    cand.lp_feasible = true;
    cand.lp_objective = lp.objective_value;
    if (round == 0 || Better(cand, best)) best = std::move(cand);
  }
  best.lp_objective = lp.objective_value;
  return best;
}

inline SelectionResult DenseSolveExact(const SelectionProblem& p) {
  using dense_oracle_internal::Evaluate;
  SelectionResult best;
  if (p.candidates.empty()) {
    best.feasible = p.RequiredCoverage() == 0;
    return best;
  }
  std::vector<size_t> sig_counts;
  const IlpSolution ilp =
      DenseSolveBinaryIlp(p.BuildReducedLp(&sig_counts), 100'000,
                     /*num_binary_vars=*/p.candidates.size());
  if (ilp.status != LpStatus::kOptimal &&
      ilp.status != LpStatus::kIterLimit) {
    return best;
  }
  std::vector<size_t> selected;
  for (size_t j = 0; j < p.candidates.size(); ++j) {
    if (ilp.values[j] > 0.5) selected.push_back(j);
  }
  best = Evaluate(p, selected);
  best.lp_feasible = true;
  best.lp_objective = ilp.objective_value;
  return best;
}

}  // namespace causumx

#endif  // CAUSUMX_TESTS_DENSE_SIMPLEX_ORACLE_H_
