// Numerical verification helpers: norms, LU reconstruction residuals, and
// backward errors for triangular solves. Used throughout the tests and by
// the Figure-6 benchmark (which reports the max backward error over a
// batch, as the paper does).
#pragma once

#include "common/matrix_view.hpp"
#include "lapack/types.hpp"

namespace irrlu::la {

/// max |a(i,j)|.
double max_abs(ConstMatrixView<double> a);

/// Relative LU residual ||P*L*U - A||_max / (||A||_max * max(m,n) * eps)
/// computed from a factored matrix `lu` (L unit-lower + U upper packed, as
/// produced by getrf), the pivot vector, and the original matrix `a`.
/// Values of O(1..10) indicate a backward-stable factorization.
double lu_residual(ConstMatrixView<double> lu, const int* ipiv,
                   ConstMatrixView<double> a);

/// Backward error of a triangular solve op(T) X = B:
///   max_j ||B(:,j) - op(T) X(:,j)||_inf / ||B(:,j)||_inf
/// with `x` the computed solution and `b` the original right-hand sides.
/// This is the metric of the paper's Figure 6.
double trsm_backward_error(Uplo uplo, Trans trans, Diag diag,
                           ConstMatrixView<double> t,
                           ConstMatrixView<double> x,
                           ConstMatrixView<double> b);

/// Componentwise relative residual ||b - A x||_inf / ||b||_inf for a dense
/// linear system.
double solve_residual(ConstMatrixView<double> a, const double* x,
                      const double* b);

}  // namespace irrlu::la
