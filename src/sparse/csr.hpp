// Compressed-sparse-row matrix and the permutation/scaling transforms the
// direct solver pipeline needs (§III-A: P (Dr A Dc Q) P^T = L U).
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace irrlu::sparse {

class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(int n, std::vector<int> ptr, std::vector<int> ind,
            std::vector<double> val)
      : n_(n), ptr_(std::move(ptr)), ind_(std::move(ind)),
        val_(std::move(val)) {
    IRRLU_CHECK(static_cast<int>(ptr_.size()) == n_ + 1);
    IRRLU_CHECK(ind_.size() == val_.size());
  }

  /// Builds from unordered (row, col, value) triplets; duplicates are
  /// summed.
  static CsrMatrix from_triplets(
      int n, const std::vector<std::tuple<int, int, double>>& triplets);

  int rows() const { return n_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(ind_.size()); }
  const std::vector<int>& ptr() const { return ptr_; }
  const std::vector<int>& ind() const { return ind_; }
  const std::vector<double>& val() const { return val_; }
  std::vector<double>& val() { return val_; }

  /// y = A x.
  void multiply(const double* x, double* y) const;

  /// Normwise relative residual
  /// ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf).
  double residual(const double* x, const double* b) const;

  /// Componentwise (Oettli–Prager) backward error
  /// max_i |b - A x|_i / (|A| |x| + |b|)_i, rows with a zero denominator
  /// contributing |r_i| directly. For finite x this is <= 1, so a
  /// non-finite return value certifies that x itself contains NaN/Inf.
  /// The quantity adaptive iterative refinement drives to ~machine eps.
  /// A non-null `r` also receives the residual b - A x, bitwise
  /// b[i] - y[i] for y from multiply(); a non-finite return may leave it
  /// partly written.
  double componentwise_residual(const double* x, const double* b,
                                double* r = nullptr) const;

  double norm_inf() const;

  /// ||A||_1 = max_j sum_i |a_ij| (the norm the Hager condition estimate
  /// pairs with).
  double norm_1() const;

  /// Returns Dr * A * Dc (diagonal scalings).
  CsrMatrix scaled(const std::vector<double>& dr,
                   const std::vector<double>& dc) const;

  /// Returns A(:, q): column j of the result is column q[j] of A.
  CsrMatrix permute_columns(const std::vector<int>& q) const;

  /// Returns P A P^T where new index i corresponds to old index perm[i]
  /// (i.e. result(i, j) = A(perm[i], perm[j])).
  CsrMatrix permute_symmetric(const std::vector<int>& perm) const;

  /// Values-independent, order-stable 64-bit hash of the sparsity pattern:
  /// FNV-1a over (n, ptr, ind). Two matrices with the same structure hash
  /// identically whatever their values (the refactor cache key of the
  /// solver service); any structural change — dimension, row lengths,
  /// column indices — changes the hash with overwhelming probability.
  /// "Order-stable" because CSR structure is canonical here: from_triplets
  /// sorts within rows, so insertion order never leaks into the hash.
  std::uint64_t pattern_hash() const;

  /// Exact structural equality (same n, ptr, ind) — the collision-proof
  /// check a pattern-keyed cache pairs with pattern_hash(). Values are
  /// ignored.
  bool same_pattern(const CsrMatrix& other) const;

 private:
  int n_ = 0;
  std::vector<int> ptr_, ind_;
  std::vector<double> val_;
};

/// 5-point (2D) / 7-point (3D) Laplacian with an optional diagonal shift
/// (negative shift => indefinite Helmholtz-like operator). Handy model
/// problems for the solver tests and benchmarks.
CsrMatrix laplacian2d(int nx, int ny, double shift = 0.0);
CsrMatrix laplacian3d(int nx, int ny, int nz, double shift = 0.0);

}  // namespace irrlu::sparse
