// Tests for the Householder QR substrate and the irregular-batch QR
// (irr_geqrf) — the paper's future-work decomposition, built on the same
// interface + DCWI concepts as irrLU.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/matrix_view.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "irrblas/irr_kernels.hpp"
#include "irrblas/vbatch.hpp"
#include "lapack/blas.hpp"
#include "lapack/qr.hpp"
#include "lapack/verify.hpp"

namespace la = irrlu::la;
using namespace irrlu::batch;
using irrlu::Matrix;
using irrlu::Rng;
using irrlu::gpusim::Device;
using irrlu::gpusim::DeviceModel;

namespace {

/// ||Q R - A0||_max / (||A0||_max * max(m,n) * eps), reconstructing Q R by
/// applying the stored reflectors to R.
double qr_residual(irrlu::ConstMatrixView<double> qr, const double* tau,
                   irrlu::ConstMatrixView<double> a0) {
  const int m = a0.rows(), n = a0.cols();
  const int k = std::min(m, n);
  // R: upper part of qr, m x n.
  Matrix<double> r(m, n, 0.0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= std::min(j, m - 1); ++i) r(i, j) = qr(i, j);
  // Q R = H_0 H_1 ... H_{k-1} R.
  std::vector<double> work(static_cast<std::size_t>(n));
  la::apply_q(la::Trans::No, m, n, k, qr.data(), qr.ld(), tau, r.data(),
              r.ld(), work.data());
  double diff = 0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      diff = std::max(diff, std::abs(r(i, j) - a0(i, j)));
  const double denom = la::max_abs(a0) * std::max(1, std::max(m, n)) *
                       std::numeric_limits<double>::epsilon();
  return denom > 0 ? diff / denom : diff;
}

/// ||Q^T Q - I||_max via applying Q^T then Q to the identity.
double orthogonality(irrlu::ConstMatrixView<double> qr, const double* tau) {
  const int m = qr.rows();
  const int k = std::min(m, qr.cols());
  Matrix<double> e(m, m, 0.0);
  for (int i = 0; i < m; ++i) e(i, i) = 1.0;
  std::vector<double> work(static_cast<std::size_t>(m));
  la::apply_q(la::Trans::Yes, m, m, k, qr.data(), qr.ld(), tau, e.data(), m,
              work.data());
  la::apply_q(la::Trans::No, m, m, k, qr.data(), qr.ld(), tau, e.data(), m,
              work.data());
  double diff = 0;
  for (int j = 0; j < m; ++j)
    for (int i = 0; i < m; ++i)
      diff = std::max(diff, std::abs(e(i, j) - (i == j ? 1.0 : 0.0)));
  return diff;
}

}  // namespace

TEST(Larfg, AnnihilatesColumn) {
  std::vector<double> x = {3.0, 4.0, 0.0};
  double x0 = 0.0;  // alpha = 0, ||[0;3;4]|| = 5
  const double tau = la::larfg(3, &x0, x.data(), 1);
  EXPECT_GT(tau, 0.0);
  EXPECT_NEAR(std::abs(x0), 5.0, 1e-14);  // beta = -sign(alpha)*norm
}

TEST(Larfg, ZeroTailGivesZeroTau) {
  std::vector<double> x = {0.0, 0.0};
  double x0 = 7.0;
  EXPECT_EQ(la::larfg(3, &x0, x.data(), 1), 0.0);
  EXPECT_EQ(x0, 7.0);
}

TEST(Geqr2, FactorsAndStaysOrthogonal) {
  Rng rng(3);
  for (auto [m, n] : {std::pair{12, 12}, std::pair{20, 8}, std::pair{6, 15},
                      std::pair{1, 1}}) {
    Matrix<double> a(m, n), a0(m, n);
    rng.fill_uniform(a.view());
    a0 = a;
    std::vector<double> tau(static_cast<std::size_t>(std::min(m, n)));
    std::vector<double> work(static_cast<std::size_t>(n));
    la::geqr2(m, n, a.data(), m, tau.data(), work.data());
    EXPECT_LT(qr_residual(a.view(), tau.data(), a0.view()), 40.0)
        << m << "x" << n;
    EXPECT_LT(orthogonality(a.view(), tau.data()), 1e-13) << m << "x" << n;
  }
}

TEST(Larft, MatchesReflectorProduct) {
  // Verify I - V T V^T == H_0 H_1 ... H_{k-1} by applying both to random
  // vectors.
  Rng rng(7);
  const int m = 15, k = 5;
  Matrix<double> a(m, k), a0(m, k);
  rng.fill_uniform(a.view());
  a0 = a;
  std::vector<double> tau(k), work(static_cast<std::size_t>(k));
  la::geqr2(m, k, a.data(), m, tau.data(), work.data());
  Matrix<double> t(k, k, 0.0);
  la::larft(m, k, a.data(), m, tau.data(), t.data(), k);

  // Masked V with unit diagonal.
  Matrix<double> v(m, k, 0.0);
  for (int c = 0; c < k; ++c) {
    v(c, c) = 1.0;
    for (int r = c + 1; r < m; ++r) v(r, c) = a(r, c);
  }
  std::vector<double> x(static_cast<std::size_t>(m)), y1, y2;
  for (auto& e : x) e = rng.uniform(-1, 1);
  // y1 = (I - V T V^T) x.
  std::vector<double> w1(static_cast<std::size_t>(k), 0.0),
      w2(static_cast<std::size_t>(k), 0.0);
  y1 = x;
  la::gemv(la::Trans::Yes, m, k, 1.0, v.data(), m, x.data(), 1, 0.0,
           w1.data(), 1);
  for (int r = 0; r < k; ++r) {  // w2 = T w1 (T upper triangular dense-ok)
    double acc = 0;
    for (int c = r; c < k; ++c) acc += t(r, c) * w1[static_cast<std::size_t>(c)];
    w2[static_cast<std::size_t>(r)] = acc;
  }
  la::gemv(la::Trans::No, m, k, -1.0, v.data(), m, w2.data(), 1, 1.0,
           y1.data(), 1);
  // For forward columnwise LARFT: I - V T V^T == Q = H_0 H_1 ... H_{k-1}
  // (the transpose uses T^T, which is what irr_geqrf's update applies).
  y2 = x;
  Matrix<double> c(m, 1);
  for (int i = 0; i < m; ++i) c(i, 0) = x[static_cast<std::size_t>(i)];
  std::vector<double> wk(1);
  la::apply_q(la::Trans::No, m, 1, k, a.data(), m, tau.data(), c.data(), m,
              wk.data());
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(y1[static_cast<std::size_t>(i)], c(i, 0), 1e-12);
}

TEST(IrrGeqrf, FactorsIrregularBatch) {
  Device dev(DeviceModel::a100());
  Rng rng(11);
  const int bs = 25;
  auto m = rng.uniform_sizes(bs, 1, 90);
  auto n = rng.uniform_sizes(bs, 1, 90);
  VBatch<double> A(dev, m, n), A0(dev, m, n);
  A.fill_uniform(rng);
  A0.copy_from(A);
  TauBatch<double> tau(dev, m, n);
  irr_geqrf<double>(dev, dev.stream(), 90, 90, A.ptrs(), A.lda(), A.m_vec(),
                    A.n_vec(), tau.ptrs(), bs);
  dev.synchronize_all();
  for (int i = 0; i < bs; ++i) {
    EXPECT_LT(qr_residual(A.view(i), tau.tau_of(i), A0.view(i)), 60.0)
        << "matrix " << i << " " << m[static_cast<std::size_t>(i)] << "x"
        << n[static_cast<std::size_t>(i)];
    EXPECT_LT(orthogonality(A.view(i), tau.tau_of(i)), 1e-12)
        << "matrix " << i;
  }
}

TEST(IrrGeqrf, MatchesSingleMatrixReference) {
  Device dev(DeviceModel::a100());
  Rng rng(13);
  std::vector<int> m = {40, 7, 23}, n = {40, 7, 23};
  VBatch<double> A(dev, m, n), R(dev, m, n);
  A.fill_uniform(rng);
  R.copy_from(A);
  TauBatch<double> tau(dev, m, n);
  irr_geqrf<double>(dev, dev.stream(), 40, 40, A.ptrs(), A.lda(), A.m_vec(),
                    A.n_vec(), tau.ptrs(), 3, /*nb=*/8);
  dev.synchronize_all();
  for (int i = 0; i < 3; ++i) {
    const int mi = m[static_cast<std::size_t>(i)];
    std::vector<double> t(static_cast<std::size_t>(mi)),
        w(static_cast<std::size_t>(mi));
    la::geqr2(mi, mi, R.view(i).data(), mi, t.data(), w.data());
    // Same reflectors and R up to roundoff (identical pivot-free algebra,
    // different blocking => compare through the residual, and R's diagonal
    // magnitudes directly).
    for (int d = 0; d < mi; ++d)
      EXPECT_NEAR(std::abs(A.view(i)(d, d)), std::abs(R.view(i)(d, d)),
                  1e-9 * (1.0 + std::abs(R.view(i)(d, d))));
  }
}

TEST(IrrGeqrf, TallAndWideShapes) {
  Device dev(DeviceModel::a100());
  Rng rng(17);
  std::vector<int> m = {120, 5, 64, 1};
  std::vector<int> n = {10, 80, 64, 1};
  VBatch<double> A(dev, m, n), A0(dev, m, n);
  A.fill_uniform(rng);
  A0.copy_from(A);
  TauBatch<double> tau(dev, m, n);
  irr_geqrf<double>(dev, dev.stream(), 120, 80, A.ptrs(), A.lda(), A.m_vec(),
                    A.n_vec(), tau.ptrs(), 4, /*nb=*/16);
  dev.synchronize_all();
  for (int i = 0; i < 4; ++i)
    EXPECT_LT(qr_residual(A.view(i), tau.tau_of(i), A0.view(i)), 60.0)
        << "matrix " << i;
}

TEST(IrrGeqrf, GlobalPanelPathOnSmallSharedMemory) {
  // MI100's 64 KB LDS forces the global-memory panel for tall panels.
  Device dev(DeviceModel::mi100());
  Rng rng(19);
  std::vector<int> m = {600}, n = {64};
  VBatch<double> A(dev, m, n), A0(dev, m, n);
  A.fill_uniform(rng);
  A0.copy_from(A);
  TauBatch<double> tau(dev, m, n);
  irr_geqrf<double>(dev, dev.stream(), 600, 64, A.ptrs(), A.lda(), A.m_vec(),
                    A.n_vec(), tau.ptrs(), 1);
  dev.synchronize_all();
  EXPECT_LT(qr_residual(A.view(0), tau.tau_of(0), A0.view(0)), 100.0);
  // The profile must show the global-path kernel was used.
  EXPECT_GE(dev.profile().count("irr_geqr2_global"), 1u);
}
