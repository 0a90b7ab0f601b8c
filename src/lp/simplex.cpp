#include "lp/simplex.h"

#include <cmath>
#include <stdexcept>

namespace causumx {

void LinearProgram::AddRow(std::vector<double> row, ConstraintSense sense,
                           double b) {
  if (row.size() != NumVars()) {
    throw std::invalid_argument("LP row arity mismatch");
  }
  rows.push_back(std::move(row));
  senses.push_back(sense);
  rhs.push_back(b);
}

const char* LpStatusName(LpStatus s) {
  switch (s) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterLimit:
      return "iteration-limit";
  }
  return "?";
}

namespace {

constexpr double kEps = 1e-9;
constexpr size_t kNone = static_cast<size_t>(-1);
// Consecutive degenerate steps after which pricing switches from
// Dantzig's rule to Bland's; the first step that moves switches it back.
constexpr size_t kDegenerateRunLimit = 50;

// A bounded-variable primal simplex over the tableau B^-1 [A | S | R]:
// structural columns, one slack per inequality row, and an artificial
// only for a row whose slack cannot start the basis feasibly. Every
// variable lies in [0, upper]; a nonbasic one sits at either bound, and
// reaching its other bound is a flip, not a pivot.
class BoundedSimplex {
 public:
  explicit BoundedSimplex(const LinearProgram& lp);

  // Solves; the solution counts its pivots plus bound flips.
  LpSolution Solve(size_t max_iterations);

 private:
  double& At(size_t i, size_t j) { return t_[i * n_ + j]; }
  double Value(size_t j) const {
    if (row_of_[j] != kNone) return beta_[row_of_[j]];
    return at_upper_[j] ? upper_[j] : 0.0;
  }

  // Runs pricing, ratio test and update until optimal, unbounded, or
  // `max_iterations` total steps.
  LpStatus Run(size_t max_iterations);
  // Makes column `enter` basic in row `r`: the row ops and the reduced
  // costs touch only the nonzero columns of the pivot row.
  void Pivot(size_t r, size_t enter);
  // Keeps basic values inside their bounds against round-off.
  void ClampBasic(size_t i);

  const LinearProgram& lp_;
  size_t m_ = 0;           // rows
  size_t n_ = 0;           // structural + slack + artificial columns
  size_t n0_ = 0;          // structural columns
  size_t first_art_ = 0;   // artificial columns are [first_art_, n_)
  std::vector<double> t_;  // m_ x n_, row-major
  std::vector<double> beta_;      // value of the basic variable per row
  std::vector<size_t> basis_;     // basic column per row
  std::vector<size_t> row_of_;    // row of a basic column, else kNone
  std::vector<char> at_upper_;    // nonbasic column sits at its upper bound
  std::vector<double> upper_;
  std::vector<double> d_;         // reduced costs of the current phase
  std::vector<size_t> nz_;        // nonzero columns of the pivot row
  size_t steps_ = 0;
  bool bad_bounds_ = false;
};

BoundedSimplex::BoundedSimplex(const LinearProgram& lp)
    : lp_(lp), m_(lp.NumRows()), n0_(lp.NumVars()) {
  // A row keeps its slack as the starting basic variable when the slack
  // is nonnegative with every structural at 0; the rest need artificials.
  size_t num_slacks = 0, num_art = 0;
  std::vector<char> slack_basic(m_, 0);
  for (size_t i = 0; i < m_; ++i) {
    if (lp.senses[i] == ConstraintSense::kEq) {
      ++num_art;
      continue;
    }
    ++num_slacks;
    const double slack_value =
        lp.senses[i] == ConstraintSense::kLe ? lp.rhs[i] : -lp.rhs[i];
    slack_basic[i] = slack_value >= 0.0;
    if (!slack_basic[i]) ++num_art;
  }
  first_art_ = n0_ + num_slacks;
  n_ = first_art_ + num_art;
  t_.assign(m_ * n_, 0.0);
  beta_.assign(m_, 0.0);
  basis_.assign(m_, kNone);
  row_of_.assign(n_, kNone);
  at_upper_.assign(n_, 0);
  upper_.assign(n_, LinearProgram::kInf);
  for (size_t j = 0; j < n0_ && j < lp.upper_bounds.size(); ++j) {
    upper_[j] = lp.upper_bounds[j];
    if (upper_[j] < 0.0) bad_bounds_ = true;
  }

  size_t slack_col = n0_, art_col = first_art_;
  for (size_t i = 0; i < m_; ++i) {
    const bool has_slack = lp.senses[i] != ConstraintSense::kEq;
    const double slack_sign =
        lp.senses[i] == ConstraintSense::kGe ? -1.0 : 1.0;
    // Scale the row so its basic column is +1 and its value nonnegative.
    const double sign = slack_basic[i] ? slack_sign
                                       : (lp.rhs[i] < 0.0 ? -1.0 : 1.0);
    for (size_t j = 0; j < n0_; ++j) At(i, j) = sign * lp.rows[i][j];
    beta_[i] = sign * lp.rhs[i];
    if (has_slack) At(i, slack_col) = sign * slack_sign;
    size_t basic = has_slack ? slack_col : kNone;
    if (has_slack) ++slack_col;
    if (!slack_basic[i]) {
      At(i, art_col) = 1.0;
      basic = art_col++;
    }
    basis_[i] = basic;
    row_of_[basic] = i;
  }
  nz_.reserve(n_);
}

void BoundedSimplex::ClampBasic(size_t i) {
  const double ub = upper_[basis_[i]];
  if (beta_[i] < 0.0 && beta_[i] > -kEps) beta_[i] = 0.0;
  if (beta_[i] > ub && beta_[i] < ub + kEps) beta_[i] = ub;
}

void BoundedSimplex::Pivot(size_t r, size_t enter) {
  double* pivot_row = &t_[r * n_];
  const double piv = pivot_row[enter];
  nz_.clear();
  for (size_t j = 0; j < n_; ++j) {
    if (pivot_row[j] != 0.0) {
      pivot_row[j] /= piv;
      nz_.push_back(j);
    }
  }
  pivot_row[enter] = 1.0;
  for (size_t i = 0; i < m_; ++i) {
    if (i == r) continue;
    double* row = &t_[i * n_];
    const double f = row[enter];
    if (f == 0.0) continue;
    for (size_t j : nz_) row[j] -= f * pivot_row[j];
    row[enter] = 0.0;
  }
  const double fc = d_[enter];
  if (fc != 0.0) {
    for (size_t j : nz_) d_[j] -= fc * pivot_row[j];
  }
  d_[enter] = 0.0;
  const size_t leaving = basis_[r];
  row_of_[leaving] = kNone;
  basis_[r] = enter;
  row_of_[enter] = r;
  at_upper_[enter] = 0;
}

LpStatus BoundedSimplex::Run(size_t max_iterations) {
  size_t degenerate_run = 0;
  while (true) {
    if (steps_ >= max_iterations) return LpStatus::kIterLimit;
    const bool bland = degenerate_run >= kDegenerateRunLimit;

    // Pricing (maximization): a column at its lower bound enters upward
    // on a positive reduced cost, one at its upper bound downward on a
    // negative one. Dantzig takes the largest |d_j| (lowest index on a
    // tie), Bland the lowest index. Artificials never re-enter.
    size_t enter = kNone;
    double best_gain = 0.0;
    for (size_t j = 0; j < first_art_; ++j) {
      if (row_of_[j] != kNone) continue;
      const double gain = at_upper_[j] ? -d_[j] : d_[j];
      if (gain <= kEps) continue;
      if (bland) {
        enter = j;
        break;
      }
      if (gain > best_gain) {
        best_gain = gain;
        enter = j;
      }
    }
    if (enter == kNone) return LpStatus::kOptimal;
    const double dir = at_upper_[enter] ? -1.0 : 1.0;

    // Ratio test. Moving the entering column by `step` in `dir` changes
    // row i's basic value by -dir * alpha_i * step; the entering column's
    // own flip to its other bound wins ties against every row.
    double step = upper_[enter];
    size_t leave = kNone;
    bool leave_at_upper = false;
    double leave_alpha = 0.0;
    for (size_t i = 0; i < m_; ++i) {
      const double alpha = dir * At(i, enter);
      double ratio;
      bool to_upper = false;
      if (alpha > kEps) {
        ratio = beta_[i] / alpha;
      } else if (alpha < -kEps) {
        const double ub = upper_[basis_[i]];
        if (!std::isfinite(ub)) continue;
        ratio = (ub - beta_[i]) / -alpha;
        to_upper = true;
      } else {
        continue;
      }
      if (ratio < 0.0) ratio = 0.0;
      bool take;
      if (leave == kNone) {
        take = !std::isfinite(step) || ratio < step - kEps;
      } else if (ratio < step - kEps) {
        take = true;
      } else if (ratio <= step + kEps) {
        // A tie: Bland keeps the lowest basic index; Dantzig the largest
        // pivot, for stability.
        take = bland ? basis_[i] < basis_[leave]
                     : std::fabs(alpha) > std::fabs(leave_alpha);
      } else {
        take = false;
      }
      if (take) {
        leave = i;
        step = ratio;
        leave_at_upper = to_upper;
        leave_alpha = alpha;
      }
    }
    if (leave == kNone && !std::isfinite(step)) return LpStatus::kUnbounded;

    ++steps_;
    degenerate_run = step <= kEps ? degenerate_run + 1 : 0;
    const double delta = dir * step;
    for (size_t i = 0; i < m_; ++i) {
      if (i == leave) continue;
      const double a = At(i, enter);
      if (a != 0.0) {
        beta_[i] -= a * delta;
        ClampBasic(i);
      }
    }
    if (leave == kNone) {
      at_upper_[enter] = !at_upper_[enter];  // bound flip, basis unchanged
      continue;
    }
    const double entering_value =
        (at_upper_[enter] ? upper_[enter] : 0.0) + delta;
    const size_t leaving = basis_[leave];
    Pivot(leave, enter);
    at_upper_[leaving] = leave_at_upper;
    beta_[leave] = entering_value;
    ClampBasic(leave);
  }
}

LpSolution BoundedSimplex::Solve(size_t max_iterations) {
  LpSolution sol;
  if (bad_bounds_) return sol;  // an upper bound below 0: infeasible

  // Phase 1: maximize -sum(artificials). Only rows with an artificial
  // contribute to the reduced costs.
  d_.assign(n_, 0.0);
  if (first_art_ < n_) {
    for (size_t i = 0; i < m_; ++i) {
      if (basis_[i] < first_art_) continue;
      for (size_t j = 0; j < first_art_; ++j) {
        // causumx-lint: allow(fp-accumulation) serial fixed row order
        d_[j] += At(i, j);
      }
    }
    const LpStatus st = Run(max_iterations);
    sol.pivots = steps_;
    if (st == LpStatus::kIterLimit) {
      sol.status = st;
      return sol;
    }
    double infeasibility = 0.0;
    for (size_t i = 0; i < m_; ++i) {
      // causumx-lint: allow(fp-accumulation) serial fixed row order
      if (basis_[i] >= first_art_) infeasibility += beta_[i];
    }
    if (infeasibility > 1e-6) {
      sol.status = LpStatus::kInfeasible;
      return sol;
    }
    // Pin the artificials at 0 and pivot each basic one out on the
    // largest entry of its row; a row with none is redundant and keeps
    // its artificial at 0, which no entering column can move.
    for (size_t j = first_art_; j < n_; ++j) upper_[j] = 0.0;
    for (size_t i = 0; i < m_; ++i) {
      if (basis_[i] < first_art_) continue;
      size_t col = kNone;
      double best = kEps;
      for (size_t j = 0; j < first_art_; ++j) {
        if (row_of_[j] == kNone && std::fabs(At(i, j)) > best) {
          best = std::fabs(At(i, j));
          col = j;
        }
      }
      beta_[i] = 0.0;
      if (col == kNone) continue;
      const double value = Value(col);
      Pivot(i, col);
      beta_[i] = value;
      ++steps_;
    }
  }

  // Phase 2: the LP's own objective, priced out over the current basis.
  d_.assign(n_, 0.0);
  for (size_t j = 0; j < n0_; ++j) d_[j] = lp_.objective[j];
  for (size_t i = 0; i < m_; ++i) {
    const size_t bj = basis_[i];
    const double cb = bj < n0_ ? lp_.objective[bj] : 0.0;
    if (cb == 0.0) continue;
    for (size_t j = 0; j < n_; ++j) d_[j] -= cb * At(i, j);
  }
  const LpStatus st = Run(max_iterations);
  sol.pivots = steps_;
  if (st != LpStatus::kOptimal) {
    sol.status = st;
    return sol;
  }
  sol.status = LpStatus::kOptimal;
  sol.values.assign(n0_, 0.0);
  sol.objective_value = 0.0;
  for (size_t j = 0; j < n0_; ++j) {
    sol.values[j] = Value(j);
    // causumx-lint: allow(fp-accumulation) serial fixed index order
    sol.objective_value += lp_.objective[j] * sol.values[j];
  }
  return sol;
}

}  // namespace

LpSolution SolveLp(const LinearProgram& lp, size_t max_iterations) {
  return BoundedSimplex(lp).Solve(max_iterations);
}

}  // namespace causumx
