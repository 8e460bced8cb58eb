#include "lapack/blas.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "common/error.hpp"
#include "lapack/microkernel.hpp"

namespace irrlu::la {

template <typename T>
int iamax(int n, const T* x, int incx) {
  if (n <= 0 || incx <= 0) return -1;
  int best = 0;
  auto bestv = std::abs(x[0]);  // magnitude type (double for complex)
  if (std::isnan(bestv)) return 0;
  for (int i = 1; i < n; ++i) {
    const auto v = std::abs(x[static_cast<std::ptrdiff_t>(i) * incx]);
    // A NaN magnitude outranks every finite one (first NaN wins), so the
    // result never depends on how '>' happens to order NaN comparisons.
    if (std::isnan(v)) return i;
    if (v > bestv) {
      bestv = v;
      best = i;
    }
  }
  return best;
}

template <typename T>
void scal(int n, T alpha, T* x, int incx) {
  for (int i = 0; i < n; ++i) x[static_cast<std::ptrdiff_t>(i) * incx] *= alpha;
}

template <typename T>
void swap(int n, T* x, int incx, T* y, int incy) {
  for (int i = 0; i < n; ++i)
    std::swap(x[static_cast<std::ptrdiff_t>(i) * incx],
              y[static_cast<std::ptrdiff_t>(i) * incy]);
}

template <typename T>
void ger(int m, int n, T alpha, const T* x, int incx, const T* y, int incy,
         T* a, int lda) {
  if (m <= 0 || n <= 0) return;
  if (incx == 1) {
    mk::ger_unit(m, n, alpha, x, y, incy, a, lda);
    return;
  }
  for (int j = 0; j < n; ++j) {
    const T yj = alpha * y[static_cast<std::ptrdiff_t>(j) * incy];
    if (yj == T{}) continue;
    T* col = a + static_cast<std::ptrdiff_t>(j) * lda;
    for (int i = 0; i < m; ++i)
      col[i] += x[static_cast<std::ptrdiff_t>(i) * incx] * yj;
  }
}

template <typename T>
void gemv(Trans trans, int m, int n, T alpha, const T* a, int lda, const T* x,
          int incx, T beta, T* y, int incy) {
  if (incx == 1 && incy == 1) {
    mk::gemv_unit(trans, m, n, alpha, a, lda, x, beta, y);
    return;
  }
  const int ylen = trans == Trans::No ? m : n;
  if (beta == T{}) {
    for (int i = 0; i < ylen; ++i)
      y[static_cast<std::ptrdiff_t>(i) * incy] = T{};
  } else if (beta != T(1)) {
    for (int i = 0; i < ylen; ++i)
      y[static_cast<std::ptrdiff_t>(i) * incy] *= beta;
  }
  if (trans == Trans::No) {
    for (int j = 0; j < n; ++j) {
      const T xj = alpha * x[static_cast<std::ptrdiff_t>(j) * incx];
      const T* col = a + static_cast<std::ptrdiff_t>(j) * lda;
      for (int i = 0; i < m; ++i)
        y[static_cast<std::ptrdiff_t>(i) * incy] += col[i] * xj;
    }
  } else {
    for (int j = 0; j < n; ++j) {
      const T* col = a + static_cast<std::ptrdiff_t>(j) * lda;
      T acc{};
      for (int i = 0; i < m; ++i)
        acc += col[i] * x[static_cast<std::ptrdiff_t>(i) * incx];
      y[static_cast<std::ptrdiff_t>(j) * incy] += alpha * acc;
    }
  }
}

template <typename T>
void trsv(Uplo uplo, Trans trans, Diag diag, int m, const T* a, int lda,
          T* x, int incx, int nrhs, int ldx) {
  auto X = [&](int i, int c) -> T& {
    return x[static_cast<std::ptrdiff_t>(c) * ldx +
             static_cast<std::ptrdiff_t>(i) * incx];
  };
  auto A = [&](int i, int j) -> T {
    return a[static_cast<std::ptrdiff_t>(j) * lda + i];
  };
  const bool lower = (uplo == Uplo::Lower) == (trans == Trans::No);
  // Effective element accessor folding the transpose.
  auto E = [&](int i, int j) -> T {
    return trans == Trans::No ? A(i, j) : A(j, i);
  };
  // Row i of X: x_i <- (x_i - sum_{j in [j0, j1)} E(i, j) x_j) / E(i, i).
  // Rows outer, columns inner: each element of row i of A is read once
  // for kCols columns, whose independent substitutions interleave for
  // instruction-level parallelism. Every column keeps the one-column
  // operation order, so nrhs does not change its bits; the remainder loop
  // is the one-column form.
  constexpr int kCols = 8;
  auto row = [&](int i, int j0, int j1) {
    auto finish = [&](T acc) {
      return diag == Diag::Unit ? acc : acc / E(i, i);
    };
    int c = 0;
    for (; c + kCols <= nrhs; c += kCols) {
      T acc[kCols];
      for (int k = 0; k < kCols; ++k) acc[k] = X(i, c + k);
      for (int j = j0; j < j1; ++j) {
        const T e = E(i, j);
        for (int k = 0; k < kCols; ++k) acc[k] -= e * X(j, c + k);
      }
      for (int k = 0; k < kCols; ++k) X(i, c + k) = finish(acc[k]);
    }
    for (; c < nrhs; ++c) {
      T acc = X(i, c);
      for (int j = j0; j < j1; ++j) acc -= E(i, j) * X(j, c);
      X(i, c) = finish(acc);
    }
  };
  if (lower) {
    for (int i = 0; i < m; ++i) row(i, 0, i);
  } else {
    for (int i = m - 1; i >= 0; --i) row(i, i + 1, m);
  }
}

namespace {

/// Unblocked substitution solve of op(A) X = B (Side::Left) or X op(A) = B
/// (Side::Right) with alpha already applied. This is the pre-engine
/// reference algorithm; the blocked trsm uses it for the on-diagonal
/// blocks and ref::trsm exposes it for cross-checking.
template <typename T>
void trsm_substitute(Side side, Uplo uplo, Trans trans, Diag diag, int m,
                     int n, const T* a, int lda, T* b, int ldb) {
  auto A = [&](int i, int j) -> T {
    return a[static_cast<std::ptrdiff_t>(j) * lda + i];
  };
  const bool lower = (uplo == Uplo::Lower) == (trans == Trans::No);
  auto E = [&](int i, int j) -> T {
    return trans == Trans::No ? A(i, j) : A(j, i);
  };
  if (side == Side::Left) {
    // Solve op(A) X = B column by column.
    for (int col = 0; col < n; ++col) {
      T* x = b + static_cast<std::ptrdiff_t>(col) * ldb;
      if (lower) {
        for (int i = 0; i < m; ++i) {
          T acc = x[i];
          for (int j = 0; j < i; ++j) acc -= E(i, j) * x[j];
          x[i] = diag == Diag::Unit ? acc : acc / E(i, i);
        }
      } else {
        for (int i = m - 1; i >= 0; --i) {
          T acc = x[i];
          for (int j = i + 1; j < m; ++j) acc -= E(i, j) * x[j];
          x[i] = diag == Diag::Unit ? acc : acc / E(i, i);
        }
      }
    }
  } else {
    // Solve X op(A) = B; A is n x n. For each column j of X in
    // dependency order:
    //   X(:,j) = (B(:,j) - sum_{p processed} X(:,p) E(p, j)) / E(j, j)
    if (lower) {
      // op(A) lower: column j of X depends on columns p > j.
      for (int j = n - 1; j >= 0; --j) {
        T* xj = b + static_cast<std::ptrdiff_t>(j) * ldb;
        for (int p = j + 1; p < n; ++p) {
          const T e = E(p, j);
          if (e == T{}) continue;
          const T* xp = b + static_cast<std::ptrdiff_t>(p) * ldb;
          for (int i = 0; i < m; ++i) xj[i] -= xp[i] * e;
        }
        if (diag == Diag::NonUnit) {
          const T d = E(j, j);
          for (int i = 0; i < m; ++i) xj[i] /= d;
        }
      }
    } else {
      // op(A) upper: column j of X depends on columns p < j.
      for (int j = 0; j < n; ++j) {
        T* xj = b + static_cast<std::ptrdiff_t>(j) * ldb;
        for (int p = 0; p < j; ++p) {
          const T e = E(p, j);
          if (e == T{}) continue;
          const T* xp = b + static_cast<std::ptrdiff_t>(p) * ldb;
          for (int i = 0; i < m; ++i) xj[i] -= xp[i] * e;
        }
        if (diag == Diag::NonUnit) {
          const T d = E(j, j);
          for (int i = 0; i < m; ++i) xj[i] /= d;
        }
      }
    }
  }
}

template <typename T>
void scale_matrix(int m, int n, T alpha, T* b, int ldb) {
  if (alpha == T(1)) return;
  for (int j = 0; j < n; ++j) {
    T* bj = b + static_cast<std::ptrdiff_t>(j) * ldb;
    for (int i = 0; i < m; ++i) bj[i] *= alpha;
  }
}

/// Order of the on-diagonal triangular blocks of the blocked trsm; above
/// this the GEMM updates dominate and run through the packed engine.
constexpr int kTrsmBlock = 16;

/// Engine base case: contiguity-aware small substitution (alpha already
/// applied by the caller).
template <typename T>
void trsm_small(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n,
                const T* a, int lda, T* b, int ldb) {
  if (side == Side::Left)
    mk::trsm_left_small(uplo, trans, diag, m, n, a, lda, b, ldb);
  else
    mk::trsm_right_small(uplo, trans, diag, m, n, a, lda, b, ldb);
}

}  // namespace

template <typename T>
void gemm(Trans transa, Trans transb, int m, int n, int k, T alpha,
          const T* a, int lda, const T* b, int ldb, T beta, T* c, int ldc) {
  if (m <= 0 || n <= 0) return;
  if (beta != T(1)) {
    for (int j = 0; j < n; ++j) {
      T* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
      if (beta == T{})
        std::fill(cj, cj + m, T{});
      else
        for (int i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
  if (k <= 0 || alpha == T{}) return;
  mk::gemm_packed(transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n, T alpha,
          const T* a, int lda, T* b, int ldb) {
  if (m <= 0 || n <= 0) return;
  scale_matrix(m, n, alpha, b, ldb);
  const int tri = side == Side::Left ? m : n;
  if (tri <= kTrsmBlock) {
    trsm_small(side, uplo, trans, diag, m, n, a, lda, b, ldb);
    return;
  }

  // Blocked substitution: small on-diagonal solves + packed GEMM updates
  // of the remaining panel. `lower` refers to the effective triangle
  // op(A); the stored-layout pointers below fold the transpose.
  const bool lower = (uplo == Uplo::Lower) == (trans == Trans::No);
  auto diag_block = [&](int j0) -> const T* {
    return a + static_cast<std::ptrdiff_t>(j0) * lda + j0;
  };
  const int last = (tri - 1) / kTrsmBlock * kTrsmBlock;

  if (side == Side::Left) {
    if (lower) {
      // Forward: solve the top block, eliminate it from the rows below.
      for (int i0 = 0; i0 < tri; i0 += kTrsmBlock) {
        const int ib = std::min(kTrsmBlock, tri - i0);
        trsm_small(side, uplo, trans, diag, ib, n, diag_block(i0), lda,
                        b + i0, ldb);
        const int rm = tri - i0 - ib;
        if (rm > 0) {
          // op(A)(i0+ib.., i0..i0+ib) is stored at (i0+ib, i0) for
          // Trans::No and at (i0, i0+ib) for Trans::Yes.
          const T* ab = trans == Trans::No
                            ? a + static_cast<std::ptrdiff_t>(i0) * lda +
                                  i0 + ib
                            : a + static_cast<std::ptrdiff_t>(i0 + ib) * lda +
                                  i0;
          gemm(trans, Trans::No, rm, n, ib, T(-1), ab, lda, b + i0, ldb,
               T(1), b + i0 + ib, ldb);
        }
      }
    } else {
      // Backward: solve the bottom block, eliminate it from the rows
      // above.
      for (int i0 = last; i0 >= 0; i0 -= kTrsmBlock) {
        const int ib = std::min(kTrsmBlock, tri - i0);
        trsm_small(side, uplo, trans, diag, ib, n, diag_block(i0), lda,
                        b + i0, ldb);
        if (i0 > 0) {
          // op(A)(0..i0, i0..i0+ib) is stored at (0, i0) for Trans::No
          // and at (i0, 0) for Trans::Yes.
          const T* ab = trans == Trans::No
                            ? a + static_cast<std::ptrdiff_t>(i0) * lda
                            : a + i0;
          gemm(trans, Trans::No, i0, n, ib, T(-1), ab, lda, b + i0, ldb,
               T(1), b, ldb);
        }
      }
    }
  } else {
    if (lower) {
      // op(A) lower: right-most column block of X first, then eliminate
      // it from the columns to its left.
      for (int j0 = last; j0 >= 0; j0 -= kTrsmBlock) {
        const int jb = std::min(kTrsmBlock, tri - j0);
        trsm_small(side, uplo, trans, diag, m, jb, diag_block(j0), lda,
                        b + static_cast<std::ptrdiff_t>(j0) * ldb, ldb);
        if (j0 > 0) {
          // op(A)(j0..j0+jb, 0..j0) is stored at (j0, 0) for Trans::No
          // and at (0, j0) for Trans::Yes.
          const T* ab = trans == Trans::No
                            ? a + j0
                            : a + static_cast<std::ptrdiff_t>(j0) * lda;
          gemm(Trans::No, trans, m, j0, jb, T(-1),
               b + static_cast<std::ptrdiff_t>(j0) * ldb, ldb, ab, lda, T(1),
               b, ldb);
        }
      }
    } else {
      // op(A) upper: left-most column block first, then eliminate it from
      // the columns to its right.
      for (int j0 = 0; j0 < tri; j0 += kTrsmBlock) {
        const int jb = std::min(kTrsmBlock, tri - j0);
        trsm_small(side, uplo, trans, diag, m, jb, diag_block(j0), lda,
                        b + static_cast<std::ptrdiff_t>(j0) * ldb, ldb);
        const int rn = tri - j0 - jb;
        if (rn > 0) {
          // op(A)(j0..j0+jb, j0+jb..) is stored at (j0, j0+jb) for
          // Trans::No and at (j0+jb, j0) for Trans::Yes.
          const T* ab = trans == Trans::No
                            ? a + static_cast<std::ptrdiff_t>(j0 + jb) * lda +
                                  j0
                            : a + static_cast<std::ptrdiff_t>(j0) * lda + j0 +
                                  jb;
          gemm(Trans::No, trans, m, rn, jb, T(-1),
               b + static_cast<std::ptrdiff_t>(j0) * ldb, ldb, ab, lda, T(1),
               b + static_cast<std::ptrdiff_t>(j0 + jb) * ldb, ldb);
        }
      }
    }
  }
}

namespace ref {

template <typename T>
void gemm(Trans transa, Trans transb, int m, int n, int k, T alpha,
          const T* a, int lda, const T* b, int ldb, T beta, T* c, int ldc) {
  if (m <= 0 || n <= 0) return;
  if (beta != T(1)) {
    for (int j = 0; j < n; ++j) {
      T* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
      if (beta == T{})
        std::fill(cj, cj + m, T{});
      else
        for (int i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
  if (k <= 0 || alpha == T{}) return;
  auto A = [&](int i, int p) -> T {
    return transa == Trans::No
               ? a[static_cast<std::ptrdiff_t>(p) * lda + i]
               : a[static_cast<std::ptrdiff_t>(i) * lda + p];
  };
  auto B = [&](int p, int j) -> T {
    return transb == Trans::No
               ? b[static_cast<std::ptrdiff_t>(j) * ldb + p]
               : b[static_cast<std::ptrdiff_t>(p) * ldb + j];
  };
  for (int j = 0; j < n; ++j) {
    T* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
    for (int i = 0; i < m; ++i) {
      T acc{};
      for (int p = 0; p < k; ++p) acc += A(i, p) * B(p, j);
      cj[i] += alpha * acc;
    }
  }
}

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n, T alpha,
          const T* a, int lda, T* b, int ldb) {
  if (m <= 0 || n <= 0) return;
  scale_matrix(m, n, alpha, b, ldb);
  trsm_substitute(side, uplo, trans, diag, m, n, a, lda, b, ldb);
}

#define IRRLU_INSTANTIATE_REF(T)                                             \
  template void gemm<T>(Trans, Trans, int, int, int, T, const T*, int,       \
                        const T*, int, T, T*, int);                          \
  template void trsm<T>(Side, Uplo, Trans, Diag, int, int, T, const T*, int, \
                        T*, int);

IRRLU_INSTANTIATE_REF(float)
IRRLU_INSTANTIATE_REF(double)
IRRLU_INSTANTIATE_REF(std::complex<double>)

#undef IRRLU_INSTANTIATE_REF

}  // namespace ref

#define IRRLU_INSTANTIATE_BLAS(T)                                             \
  template int iamax<T>(int, const T*, int);                                  \
  template void scal<T>(int, T, T*, int);                                     \
  template void swap<T>(int, T*, int, T*, int);                               \
  template void ger<T>(int, int, T, const T*, int, const T*, int, T*, int);   \
  template void gemv<T>(Trans, int, int, T, const T*, int, const T*, int, T,  \
                        T*, int);                                             \
  template void trsv<T>(Uplo, Trans, Diag, int, const T*, int, T*, int, int, \
                        int);                                                 \
  template void gemm<T>(Trans, Trans, int, int, int, T, const T*, int,        \
                        const T*, int, T, T*, int);                           \
  template void trsm<T>(Side, Uplo, Trans, Diag, int, int, T, const T*, int,  \
                        T*, int);

IRRLU_INSTANTIATE_BLAS(float)
IRRLU_INSTANTIATE_BLAS(double)
IRRLU_INSTANTIATE_BLAS(std::complex<double>)

#undef IRRLU_INSTANTIATE_BLAS

}  // namespace irrlu::la
