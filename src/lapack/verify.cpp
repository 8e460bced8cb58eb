#include "lapack/verify.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace irrlu::la {

double max_abs(ConstMatrixView<double> a) {
  double m = 0;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i) m = std::max(m, std::abs(a(i, j)));
  return m;
}

double lu_residual(ConstMatrixView<double> lu, const int* ipiv,
                   ConstMatrixView<double> a) {
  const int m = a.rows(), n = a.cols();
  IRRLU_CHECK(lu.rows() == m && lu.cols() == n);
  const int kmin = std::min(m, n);

  // R = L * U (m x n), with L m x kmin unit-lower and U kmin x n upper.
  std::vector<double> r(static_cast<std::size_t>(m) * n, 0.0);
  for (int j = 0; j < n; ++j) {
    double* rj = r.data() + static_cast<std::size_t>(j) * m;
    for (int p = 0; p < kmin; ++p) {
      const double u = p <= j ? lu(p, j) : 0.0;
      if (u == 0.0) continue;
      rj[p] += u;  // L(p,p) = 1
      for (int i = p + 1; i < m; ++i) rj[i] += lu(i, p) * u;
    }
  }
  // Undo the row interchanges: R <- P * R, where getrf computed P*A = L*U
  // via forward swaps; applying the swaps to R in reverse order maps rows
  // of L*U back to the original ordering of A.
  for (int j = kmin - 1; j >= 0; --j) {
    if (ipiv[j] != j)
      for (int c = 0; c < n; ++c)
        std::swap(r[static_cast<std::size_t>(c) * m + j],
                  r[static_cast<std::size_t>(c) * m + ipiv[j]]);
  }
  double diff = 0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      diff = std::max(diff,
                      std::abs(r[static_cast<std::size_t>(j) * m + i] -
                               a(i, j)));
  const double denom = max_abs(a) * std::max(1, std::max(m, n)) *
                       std::numeric_limits<double>::epsilon();
  return denom > 0 ? diff / denom : diff;
}

double trsm_backward_error(Uplo uplo, Trans trans, Diag diag,
                           ConstMatrixView<double> t,
                           ConstMatrixView<double> x,
                           ConstMatrixView<double> b) {
  const int m = x.rows(), n = x.cols();
  IRRLU_CHECK(b.rows() == m && b.cols() == n);
  IRRLU_CHECK(t.rows() >= m && t.cols() >= m);
  auto E = [&](int i, int j) -> double {
    const double v = trans == Trans::No ? t(i, j) : t(j, i);
    const bool in_tri = (uplo == Uplo::Lower) == (trans == Trans::No)
                            ? (j <= i)
                            : (j >= i);
    if (i == j) return diag == Diag::Unit ? 1.0 : v;
    return in_tri ? v : 0.0;
  };
  double worst = 0;
  for (int col = 0; col < n; ++col) {
    double rmax = 0, bmax = 0;
    for (int i = 0; i < m; ++i) {
      double acc = 0;
      for (int j = 0; j < m; ++j) acc += E(i, j) * x(j, col);
      rmax = std::max(rmax, std::abs(b(i, col) - acc));
      bmax = std::max(bmax, std::abs(b(i, col)));
    }
    if (bmax > 0) worst = std::max(worst, rmax / bmax);
  }
  return worst;
}

double solve_residual(ConstMatrixView<double> a, const double* x,
                      const double* b) {
  const int n = a.rows();
  IRRLU_CHECK(a.cols() == n);
  double rmax = 0, bmax = 0;
  for (int i = 0; i < n; ++i) {
    double acc = 0;
    for (int j = 0; j < n; ++j) acc += a(i, j) * x[j];
    rmax = std::max(rmax, std::abs(b[i] - acc));
    bmax = std::max(bmax, std::abs(b[i]));
  }
  return bmax > 0 ? rmax / bmax : rmax;
}

}  // namespace irrlu::la
