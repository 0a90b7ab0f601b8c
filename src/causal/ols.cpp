#include "causal/ols.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"
#include "util/thread_pool.h"

namespace causumx {

double OlsResult::TStat(size_t j) const {
  if (j >= coefficients.size() || std_errors[j] <= 0.0) return 0.0;
  return coefficients[j] / std_errors[j];
}

double OlsResult::PValue(size_t j) const {
  if (n <= p) return 1.0;
  return TwoSidedPValueT(TStat(j), static_cast<double>(n - p));
}

namespace {

// Cholesky A = L L^T of the row-major n x n symmetric `a` into the
// row-major lower factor `l`. On a near-singular pivot the diagonal of
// `a` gets jitter and the factorization retries once; OLS designs with
// collinear one-hot blocks hit this routinely. False when singular.
bool CholeskyWithJitter(double* a, size_t n, std::vector<double>* l_out) {
  std::vector<double>& l = *l_out;
  for (int attempt = 0; attempt < 2; ++attempt) {
    l.assign(n * n, 0.0);
    bool failed = false;
    for (size_t i = 0; i < n && !failed; ++i) {
      for (size_t j = 0; j <= i; ++j) {
        double sum = a[i * n + j];
        for (size_t k = 0; k < j; ++k) sum -= l[i * n + k] * l[j * n + k];
        if (i == j) {
          if (sum <= 1e-12) {
            failed = true;
            break;
          }
          l[i * n + i] = std::sqrt(sum);
        } else {
          l[i * n + j] = sum / l[j * n + j];
        }
      }
    }
    if (!failed) return true;
    if (attempt == 1) return false;
    double max_diag = 0.0;
    for (size_t i = 0; i < n; ++i) max_diag = std::max(max_diag, a[i * n + i]);
    const double jitter = std::max(1e-8, 1e-10 * max_diag);
    for (size_t i = 0; i < n; ++i) a[i * n + i] += jitter;
  }
  return false;
}

// Factors `a` (n = b->size()) and overwrites `b` with the solution of
// A x = b: the forward solve L z = b, then back-substitution L^T x = z.
bool FactorAndSolve(double* a, std::vector<double>* b,
                    std::vector<double>* l_out) {
  const size_t n = b->size();
  if (!CholeskyWithJitter(a, n, l_out)) return false;
  const std::vector<double>& l = *l_out;
  std::vector<double>& x = *b;
  std::vector<double> z(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double sum = x[i];
    for (size_t k = 0; k < i; ++k) sum -= l[i * n + k] * z[k];
    z[i] = sum / l[i * n + i];
  }
  for (size_t i = n; i-- > 0;) {
    double sum = z[i];
    for (size_t k = i + 1; k < n; ++k) sum -= l[k * n + i] * x[k];
    x[i] = sum / l[i * n + i];
  }
  return true;
}

// Column `col` of (L L^T)^-1 into `out` (n entries), solved on its own:
// the forward solve L z = e_col, then back-substitution L^T x = z.
void InverseColumn(const std::vector<double>& l, size_t n, size_t col,
                   double* out) {
  std::vector<double> z(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double sum = i == col ? 1.0 : 0.0;
    for (size_t k = 0; k < i; ++k) sum -= l[i * n + k] * z[k];
    z[i] = sum / l[i * n + i];
  }
  for (size_t i = n; i-- > 0;) {
    double sum = z[i];
    for (size_t k = i + 1; k < n; ++k) sum -= l[k * n + i] * out[k];
    out[i] = sum / l[i * n + i];
  }
}

}  // namespace

bool CholeskySolve(std::vector<double>* a, std::vector<double>* b,
                   size_t inv_col, std::vector<double>* inv) {
  std::vector<double> l;
  if (!FactorAndSolve(a->data(), b, &l)) return false;
  if (inv != nullptr) {
    inv->assign(b->size(), 0.0);
    InverseColumn(l, b->size(), inv_col, inv->data());
  }
  return true;
}

bool SolveSpd(std::vector<std::vector<double>>* a_ptr,
              std::vector<double>* b_ptr) {
  auto& a = *a_ptr;
  const size_t n = a.size();
  std::vector<double> flat(n * n);
  for (size_t i = 0; i < n; ++i) {
    std::copy(a[i].begin(), a[i].end(), flat.begin() + i * n);
  }
  std::vector<double> l;
  if (!FactorAndSolve(flat.data(), b_ptr, &l)) return false;
  // Overwrite a with the inverse of A, solved column by column.
  std::vector<double> column(n);
  for (size_t col = 0; col < n; ++col) {
    InverseColumn(l, n, col, column.data());
    for (size_t i = 0; i < n; ++i) a[i][col] = column[i];
  }
  return true;
}

OlsResult FitOls(const DesignMatrix& x, const std::vector<double>& y,
                 ThreadPool* pool) {
  OlsResult res;
  const size_t n = x.rows();
  const size_t p = x.cols();
  res.n = n;
  res.p = p;
  if (n <= p || p == 0) return res;

  // Normal equations: (X^T X) beta = X^T y, accumulated as fixed-size
  // row-chunk partials (upper triangle only) merged in chunk order —
  // the sharded execution path's determinism recipe: the chunk
  // decomposition depends only on kOlsChunkRows, so any thread count
  // (including none) produces the same floating-point result.
  const size_t num_chunks = (n + kOlsChunkRows - 1) / kOlsChunkRows;
  const size_t tri = p * (p + 1) / 2;  // packed upper triangle
  std::vector<std::vector<double>> part_xtx(num_chunks);
  std::vector<std::vector<double>> part_xty(num_chunks);
  ThreadPool::RunOn(pool, num_chunks, [&](size_t c) {
    std::vector<double>& cx = part_xtx[c];
    std::vector<double>& cy = part_xty[c];
    cx.assign(tri, 0.0);
    cy.assign(p, 0.0);
    const size_t end = std::min(n, (c + 1) * kOlsChunkRows);
    for (size_t r = c * kOlsChunkRows; r < end; ++r) {
      size_t base = 0;
      for (size_t i = 0; i < p; ++i) {
        const double xi = x.At(r, i);
        if (xi == 0.0) {
          base += p - i;
          continue;
        }
        cy[i] += xi * y[r];
        for (size_t j = i; j < p; ++j) {
          cx[base + j - i] += xi * x.At(r, j);
        }
        base += p - i;
      }
    }
  });
  std::vector<std::vector<double>> xtx(p, std::vector<double>(p, 0.0));
  std::vector<double> xty(p, 0.0);
  for (size_t c = 0; c < num_chunks; ++c) {
    size_t base = 0;
    for (size_t i = 0; i < p; ++i) {
      xty[i] += part_xty[c][i];
      for (size_t j = i; j < p; ++j) {
        xtx[i][j] += part_xtx[c][base + j - i];
      }
      base += p - i;
    }
  }
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < i; ++j) xtx[i][j] = xtx[j][i];
  }

  std::vector<std::vector<double>> xtx_inv = xtx;
  std::vector<double> beta = xty;
  if (!SolveSpd(&xtx_inv, &beta)) return res;

  // Residual variance and coefficient standard errors; the RSS uses the
  // same chunked deterministic reduction.
  std::vector<double> part_rss(num_chunks, 0.0);
  ThreadPool::RunOn(pool, num_chunks, [&](size_t c) {
    double rss_c = 0.0;
    const size_t end = std::min(n, (c + 1) * kOlsChunkRows);
    for (size_t r = c * kOlsChunkRows; r < end; ++r) {
      double pred = 0.0;
      for (size_t j = 0; j < p; ++j) pred += x.At(r, j) * beta[j];
      const double e = y[r] - pred;
      rss_c += e * e;  // causumx-lint: allow(fp-accumulation) per-chunk serial partial; fixed chunk boundaries)
    }
    part_rss[c] = rss_c;
  });
  double rss = 0.0;
  // causumx-lint: allow(fp-accumulation) fixed chunk-index order, thread-count independent)
  for (size_t c = 0; c < num_chunks; ++c) rss += part_rss[c];
  const double dof = static_cast<double>(n - p);
  res.residual_variance = rss / dof;
  res.coefficients = std::move(beta);
  res.std_errors.resize(p);
  for (size_t j = 0; j < p; ++j) {
    const double var = res.residual_variance * xtx_inv[j][j];
    res.std_errors[j] = var > 0 ? std::sqrt(var) : 0.0;
  }
  res.ok = true;
  return res;
}

}  // namespace causumx
