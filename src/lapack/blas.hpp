// Single-matrix column-major BLAS kernels (levels 1-3). These are the
// reference implementations used by the tests, the building blocks of the
// single-matrix LAPACK routines, and the per-thread-block bodies of the
// batched kernels. No external BLAS is assumed anywhere in the project.
#pragma once

#include <cstddef>

#include "lapack/types.hpp"

namespace irrlu::la {

// ----- level 1 -----

/// Index of the element of x (stride incx, length n) with maximum |.|;
/// returns -1 for n <= 0 or incx <= 0 (the 0-based analog of LAPACK's
/// "invalid" 0). Ties resolve to the first occurrence, and the first NaN
/// magnitude wins outright, so pivot selection is well-defined on
/// NaN-contaminated columns (LAPACK IxAMAX semantics).
template <typename T>
int iamax(int n, const T* x, int incx);

/// x *= alpha.
template <typename T>
void scal(int n, T alpha, T* x, int incx);

/// Swap vectors x and y.
template <typename T>
void swap(int n, T* x, int incx, T* y, int incy);

// ----- level 2 -----

/// A += alpha * x * y^T  (A is m x n, leading dimension lda).
template <typename T>
void ger(int m, int n, T alpha, const T* x, int incx, const T* y, int incy,
         T* a, int lda);

/// y = alpha*op(A)*x + beta*y.
template <typename T>
void gemv(Trans trans, int m, int n, T alpha, const T* a, int lda, const T* x,
          int incx, T beta, T* y, int incy);

/// Solve op(A) * X = X in place for the nrhs columns of X (column c starts
/// at x + c * ldx, its elements incx apart); A triangular m x m. Every
/// column gets the one-column operation order, so its bits do not depend
/// on nrhs.
template <typename T>
void trsv(Uplo uplo, Trans trans, Diag diag, int m, const T* a, int lda, T* x,
          int incx, int nrhs = 1, int ldx = 0);

// ----- level 3 -----

/// C = alpha*op(A)*op(B) + beta*C, with C m x n and inner dimension k.
/// Runs through the packed micro-kernel engine (lapack/microkernel.hpp)
/// for every transpose combination; correct for all aliasing-free inputs
/// including m/n/k == 0.
template <typename T>
void gemm(Trans transa, Trans transb, int m, int n, int k, T alpha,
          const T* a, int lda, const T* b, int ldb, T beta, T* c, int ldc);

/// B = alpha * op(A)^{-1} * B (Side::Left) or alpha * B * op(A)^{-1}
/// (Side::Right); A triangular, B m x n. In-place; blocked (small
/// on-diagonal substitution solves + packed GEMM panel updates).
template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n, T alpha,
          const T* a, int lda, T* b, int ldb);

/// Retained naive reference implementations (the pre-engine algorithms):
/// plain triple-loop gemm and unblocked substitution trsm. Used by the
/// tests to cross-check the packed engine and by bench_blas_core to track
/// the speedup trajectory. Not performance code — do not call from hot
/// paths.
namespace ref {

template <typename T>
void gemm(Trans transa, Trans transb, int m, int n, int k, T alpha,
          const T* a, int lda, const T* b, int ldb, T beta, T* c, int ldc);

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n, T alpha,
          const T* a, int lda, T* b, int ldb);

}  // namespace ref

}  // namespace irrlu::la
