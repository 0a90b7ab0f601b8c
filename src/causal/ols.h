// Ordinary least squares with standard errors.
//
// The paper computes CATE values "using the DoWhy library, utilizing
// their linear regression approach" (Section 6); we implement the same
// estimand natively, solved via normal equations with ridge-of-last-resort
// regularization for rank-deficient designs.
//
// FitOls over a dense DesignMatrix is the per-row reference fit: the
// effect estimator (causal/estimator_context.cpp) no longer builds a
// design. It assembles the same normal equations from cached
// treatment-independent Gram blocks plus a per-treatment row, solves them
// with CholeskySolve, and must match FitOls bit for bit — the
// differential tests use FitOls as their oracle.

#ifndef CAUSUMX_CAUSAL_OLS_H_
#define CAUSUMX_CAUSAL_OLS_H_

#include <cstddef>
#include <vector>

namespace causumx {

class ThreadPool;

/// Result of an OLS fit y ~ X (X includes any intercept column).
struct OlsResult {
  bool ok = false;                   ///< false if the solve failed.
  std::vector<double> coefficients;  ///< beta, one per design column.
  std::vector<double> std_errors;    ///< standard error per coefficient.
  double residual_variance = 0.0;    ///< s^2 = RSS / (n - p).
  size_t n = 0;                      ///< rows used.
  size_t p = 0;                      ///< design columns.

  /// t-statistic for coefficient j (0 when its SE is 0).
  double TStat(size_t j) const;
  /// Two-sided p-value for coefficient j under t(n - p).
  double PValue(size_t j) const;
};

/// Dense row-major design matrix.
class DesignMatrix {
 public:
  DesignMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// Row-chunk size of the deterministic normal-equation accumulation: the
/// X^T X / X^T y / RSS sums are computed as per-chunk partials merged in
/// ascending chunk order, so the fit is a function of the design alone —
/// identical with or without a pool, at any thread count. Designs of up
/// to one chunk reproduce the historical fully-serial accumulation
/// exactly.
inline constexpr size_t kOlsChunkRows = 16384;

/// Fits y ~ X by OLS. Returns ok=false when n <= p or the normal equations
/// are singular beyond repair. `pool` (optional) computes the per-chunk
/// partial sums in parallel; the result is bit-identical to pool = null.
OlsResult FitOls(const DesignMatrix& x, const std::vector<double>& y,
                 ThreadPool* pool = nullptr);

/// Solves the symmetric positive (semi)definite system A b = c in-place via
/// Cholesky with diagonal jitter fallback, and overwrites `a` with the
/// full inverse (FitOls reads its diagonal). Returns false when singular.
bool SolveSpd(std::vector<std::vector<double>>* a, std::vector<double>* b);

/// SolveSpd's arithmetic without the full inverse: `a` is the row-major
/// n x n matrix (n = b->size(); the jitter fallback may modify its
/// diagonal) and `b` becomes the solution. When `inv` is non-null it
/// receives column `inv_col` of A^-1 — each inverse column is solved on
/// its own, so these are exactly the doubles SolveSpd writes there.
bool CholeskySolve(std::vector<double>* a, std::vector<double>* b,
                   size_t inv_col = 0, std::vector<double>* inv = nullptr);

}  // namespace causumx

#endif  // CAUSUMX_CAUSAL_OLS_H_
