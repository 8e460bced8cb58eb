#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

namespace irrlu::sparse {

CsrMatrix CsrMatrix::from_triplets(
    int n, const std::vector<std::tuple<int, int, double>>& triplets) {
  IRRLU_CHECK(n >= 0);
  const auto nn = static_cast<std::size_t>(n);
  // Two stable counting sorts (by column, then by row) order the triplets
  // by (row, column) with duplicates in input order.
  std::vector<std::size_t> col_start(nn + 1, 0), row_start(nn + 1, 0);
  for (const auto& [i, j, v] : triplets) {
    IRRLU_CHECK(i >= 0 && i < n && j >= 0 && j < n);
    ++col_start[static_cast<std::size_t>(j) + 1];
    ++row_start[static_cast<std::size_t>(i) + 1];
  }
  for (std::size_t k = 0; k < nn; ++k) {
    col_start[k + 1] += col_start[k];
    row_start[k + 1] += row_start[k];
  }
  std::vector<std::size_t> by_col(triplets.size()), order(triplets.size());
  for (std::size_t t = 0; t < triplets.size(); ++t)
    by_col[col_start[static_cast<std::size_t>(std::get<1>(triplets[t]))]++] =
        t;
  for (std::size_t t : by_col)
    order[row_start[static_cast<std::size_t>(std::get<0>(triplets[t]))]++] =
        t;
  // Each entry sums its duplicates from 0.0 in input order (so a lone
  // -0.0 stores +0.0, as a default-initialized accumulator gives).
  std::vector<int> ptr(nn + 1, 0);
  std::vector<int> ind;
  std::vector<double> val;
  std::size_t k = 0;
  for (std::size_t i = 0; i < nn; ++i) {
    // The scatter left row_start[i] at the end of row i.
    while (k < row_start[i]) {
      const int j = std::get<1>(triplets[order[k]]);
      double sum = 0.0;
      for (; k < row_start[i] && std::get<1>(triplets[order[k]]) == j; ++k)
        sum += std::get<2>(triplets[order[k]]);
      ind.push_back(j);
      val.push_back(sum);
    }
    ptr[i + 1] = static_cast<int>(ind.size());
  }
  return CsrMatrix(n, std::move(ptr), std::move(ind), std::move(val));
}

void CsrMatrix::multiply(const double* x, double* y) const {
  for (int i = 0; i < n_; ++i) {
    double acc = 0;
    for (int k = ptr_[static_cast<std::size_t>(i)];
         k < ptr_[static_cast<std::size_t>(i) + 1]; ++k)
      acc += val_[static_cast<std::size_t>(k)] *
             x[ind_[static_cast<std::size_t>(k)]];
    y[i] = acc;
  }
}

double CsrMatrix::norm_inf() const {
  double best = 0;
  for (int i = 0; i < n_; ++i) {
    double s = 0;
    for (int k = ptr_[static_cast<std::size_t>(i)];
         k < ptr_[static_cast<std::size_t>(i) + 1]; ++k)
      s += std::abs(val_[static_cast<std::size_t>(k)]);
    best = std::max(best, s);
  }
  return best;
}

double CsrMatrix::residual(const double* x, const double* b) const {
  double rmax = 0, xmax = 0, bmax = 0;
  for (int i = 0; i < n_; ++i) {
    double acc = 0;
    for (int k = ptr_[static_cast<std::size_t>(i)];
         k < ptr_[static_cast<std::size_t>(i) + 1]; ++k)
      acc += val_[static_cast<std::size_t>(k)] *
             x[ind_[static_cast<std::size_t>(k)]];
    rmax = std::max(rmax, std::abs(b[i] - acc));
    xmax = std::max(xmax, std::abs(x[i]));
    bmax = std::max(bmax, std::abs(b[i]));
  }
  const double denom = norm_inf() * xmax + bmax;
  return denom > 0 ? rmax / denom : rmax;
}

double CsrMatrix::componentwise_residual(const double* x, const double* b,
                                         double* r) const {
  double berr = 0;
  for (int i = 0; i < n_; ++i) {
    double acc = 0, absacc = 0;
    for (int k = ptr_[static_cast<std::size_t>(i)];
         k < ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
      const double axk = val_[static_cast<std::size_t>(k)] *
                         x[ind_[static_cast<std::size_t>(k)]];
      acc += axk;
      absacc += std::abs(axk);
    }
    if (r != nullptr) r[i] = b[i] - acc;
    const double ri = std::abs(b[i] - acc);
    const double di = absacc + std::abs(b[i]);
    const double e = di > 0 ? ri / di : ri;
    // std::max would silently drop a NaN row (NaN comparisons are false);
    // a non-finite x MUST surface as a non-finite backward error.
    if (!std::isfinite(e)) return std::numeric_limits<double>::quiet_NaN();
    berr = std::max(berr, e);
  }
  return berr;
}

double CsrMatrix::norm_1() const {
  std::vector<double> colsum(static_cast<std::size_t>(n_), 0.0);
  for (std::size_t k = 0; k < ind_.size(); ++k)
    colsum[static_cast<std::size_t>(ind_[k])] += std::abs(val_[k]);
  double best = 0;
  for (double s : colsum) best = std::max(best, s);
  return best;
}

CsrMatrix CsrMatrix::scaled(const std::vector<double>& dr,
                            const std::vector<double>& dc) const {
  CsrMatrix out = *this;
  for (int i = 0; i < n_; ++i)
    for (int k = ptr_[static_cast<std::size_t>(i)];
         k < ptr_[static_cast<std::size_t>(i) + 1]; ++k)
      out.val_[static_cast<std::size_t>(k)] =
          dr[static_cast<std::size_t>(i)] * val_[static_cast<std::size_t>(k)] *
          dc[static_cast<std::size_t>(ind_[static_cast<std::size_t>(k)])];
  return out;
}

CsrMatrix CsrMatrix::permute_columns(const std::vector<int>& q) const {
  // result(:, j) = A(:, q[j])  <=>  result(i, q_inv[j0]) = A(i, j0).
  std::vector<int> qinv(static_cast<std::size_t>(n_));
  for (int j = 0; j < n_; ++j)
    qinv[static_cast<std::size_t>(q[static_cast<std::size_t>(j)])] = j;
  CsrMatrix out = *this;
  for (int i = 0; i < n_; ++i) {
    const int lo = ptr_[static_cast<std::size_t>(i)];
    const int hi = ptr_[static_cast<std::size_t>(i) + 1];
    std::vector<std::pair<int, double>> row;
    row.reserve(static_cast<std::size_t>(hi - lo));
    for (int k = lo; k < hi; ++k)
      row.emplace_back(
          qinv[static_cast<std::size_t>(ind_[static_cast<std::size_t>(k)])],
          val_[static_cast<std::size_t>(k)]);
    std::sort(row.begin(), row.end());
    for (int k = lo; k < hi; ++k) {
      out.ind_[static_cast<std::size_t>(k)] =
          row[static_cast<std::size_t>(k - lo)].first;
      out.val_[static_cast<std::size_t>(k)] =
          row[static_cast<std::size_t>(k - lo)].second;
    }
  }
  return out;
}

CsrMatrix CsrMatrix::permute_symmetric(const std::vector<int>& perm) const {
  std::vector<int> iperm(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i)
    iperm[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = i;
  std::vector<int> ptr(static_cast<std::size_t>(n_) + 1, 0);
  std::vector<int> ind(ind_.size());
  std::vector<double> val(val_.size());
  for (int i = 0; i < n_; ++i) {
    const int oi = perm[static_cast<std::size_t>(i)];
    ptr[static_cast<std::size_t>(i) + 1] =
        ptr[static_cast<std::size_t>(i)] +
        (ptr_[static_cast<std::size_t>(oi) + 1] -
         ptr_[static_cast<std::size_t>(oi)]);
  }
  for (int i = 0; i < n_; ++i) {
    const int oi = perm[static_cast<std::size_t>(i)];
    std::vector<std::pair<int, double>> row;
    for (int k = ptr_[static_cast<std::size_t>(oi)];
         k < ptr_[static_cast<std::size_t>(oi) + 1]; ++k)
      row.emplace_back(
          iperm[static_cast<std::size_t>(ind_[static_cast<std::size_t>(k)])],
          val_[static_cast<std::size_t>(k)]);
    std::sort(row.begin(), row.end());
    int k0 = ptr[static_cast<std::size_t>(i)];
    for (const auto& [j, v] : row) {
      ind[static_cast<std::size_t>(k0)] = j;
      val[static_cast<std::size_t>(k0)] = v;
      ++k0;
    }
  }
  return CsrMatrix(n_, std::move(ptr), std::move(ind), std::move(val));
}

namespace {

/// FNV-1a over a span of 32-bit words (hashing the ints themselves, not
/// their byte layout, keeps the result independent of endianness).
std::uint64_t fnv1a_words(std::uint64_t h, const int* words, std::size_t n) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(words[i]));
    h *= kPrime;
  }
  return h;
}

}  // namespace

std::uint64_t CsrMatrix::pattern_hash() const {
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
  std::uint64_t h = fnv1a_words(kBasis, &n_, 1);
  h = fnv1a_words(h, ptr_.data(), ptr_.size());
  h = fnv1a_words(h, ind_.data(), ind_.size());
  return h;
}

bool CsrMatrix::same_pattern(const CsrMatrix& other) const {
  return n_ == other.n_ && ptr_ == other.ptr_ && ind_ == other.ind_;
}

CsrMatrix laplacian2d(int nx, int ny, double shift) {
  std::vector<std::tuple<int, int, double>> t;
  auto id = [&](int x, int y) { return y * nx + x; };
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x) {
      const int v = id(x, y);
      t.emplace_back(v, v, 4.0 + shift);
      if (x > 0) t.emplace_back(v, id(x - 1, y), -1.0);
      if (x + 1 < nx) t.emplace_back(v, id(x + 1, y), -1.0);
      if (y > 0) t.emplace_back(v, id(x, y - 1), -1.0);
      if (y + 1 < ny) t.emplace_back(v, id(x, y + 1), -1.0);
    }
  return CsrMatrix::from_triplets(nx * ny, t);
}

CsrMatrix laplacian3d(int nx, int ny, int nz, double shift) {
  std::vector<std::tuple<int, int, double>> t;
  auto id = [&](int x, int y, int z) { return (z * ny + y) * nx + x; };
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x) {
        const int v = id(x, y, z);
        t.emplace_back(v, v, 6.0 + shift);
        if (x > 0) t.emplace_back(v, id(x - 1, y, z), -1.0);
        if (x + 1 < nx) t.emplace_back(v, id(x + 1, y, z), -1.0);
        if (y > 0) t.emplace_back(v, id(x, y - 1, z), -1.0);
        if (y + 1 < ny) t.emplace_back(v, id(x, y + 1, z), -1.0);
        if (z > 0) t.emplace_back(v, id(x, y, z - 1), -1.0);
        if (z + 1 < nz) t.emplace_back(v, id(x, y, z + 1), -1.0);
      }
  return CsrMatrix::from_triplets(nx * ny * nz, t);
}

}  // namespace irrlu::sparse
