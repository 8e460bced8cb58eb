// Tests for the irregular-batch kernels: DCWI inference, irrGEMM, irrTRSM,
// the panel kernels, irrLASWP and the irrLU driver — all validated against
// the single-matrix LAPACK substrate on randomized non-uniform batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "irrblas/dcwi.hpp"
#include "irrblas/irr_kernels.hpp"
#include "irrblas/vbatch.hpp"
#include "lapack/blas.hpp"
#include "lapack/lapack.hpp"
#include "lapack/verify.hpp"
#include "trace/trace.hpp"

namespace la = irrlu::la;
using namespace irrlu::batch;
using irrlu::Matrix;
using irrlu::Rng;
using irrlu::gpusim::Device;
using irrlu::gpusim::DeviceModel;

namespace {

double batch_max_diff(const VBatch<double>& a, const VBatch<double>& b) {
  double d = 0;
  for (int i = 0; i < a.batch_size(); ++i) {
    auto va = a.view(i);
    auto vb = b.view(i);
    for (int j = 0; j < va.cols(); ++j)
      for (int r = 0; r < va.rows(); ++r)
        d = std::max(d, std::abs(va(r, j) - vb(r, j)));
  }
  return d;
}

}  // namespace

// ------------------------------------------------------------------ DCWI

TEST(Dcwi, GemmFullWorkload) {
  const auto w = dcwi_gemm(la::Trans::No, la::Trans::No, 10, 8, 6, 0, 0, 0,
                           0, 0, 0, 10, 8, 6);
  EXPECT_EQ(w.m, 10);
  EXPECT_EQ(w.n, 8);
  EXPECT_EQ(w.k, 6);
  EXPECT_FALSE(w.none());
}

TEST(Dcwi, GemmPartialFromOffsets) {
  // 12x12 matrix, offset (5,5): only 7 rows/cols remain; required 10.
  const auto w = dcwi_gemm(la::Trans::No, la::Trans::No, 10, 10, 10, 5, 5, 5,
                           5, 5, 5, 12, 12, 12);
  EXPECT_EQ(w.m, 7);
  EXPECT_EQ(w.n, 7);
  EXPECT_EQ(w.k, 7);
}

TEST(Dcwi, GemmNoneWhenOffsetBeyondLocal) {
  const auto w = dcwi_gemm(la::Trans::No, la::Trans::No, 10, 10, 10, 6, 6, 6,
                           6, 6, 6, 4, 4, 4);
  EXPECT_TRUE(w.none());
}

TEST(Dcwi, GemmTransposeSwapsOffsetRoles) {
  // The paper's §IV-B example: for C = A^T B, (Ai, Aj) compare against
  // (k, m) instead of (m, k).
  const auto wn = dcwi_gemm(la::Trans::No, la::Trans::No, 8, 8, 8, 2, 6, 0,
                            0, 0, 0, 10, 10, 10);
  EXPECT_EQ(wn.m, 8);  // m limited by max(Ai=2, Ci=0) -> 10-2=8
  EXPECT_EQ(wn.k, 4);  // k limited by Aj=6 -> 10-6=4
  const auto wt = dcwi_gemm(la::Trans::Yes, la::Trans::No, 8, 8, 8, 2, 6, 0,
                            0, 0, 0, 10, 10, 10);
  EXPECT_EQ(wt.m, 4);  // roles swapped: m limited by Aj=6
  EXPECT_EQ(wt.k, 8);  // k limited by Ai=2
}

TEST(Dcwi, GemmConflictingOffsetsTakeLarger) {
  const auto w = dcwi_gemm(la::Trans::No, la::Trans::No, 10, 10, 10, 3, 0, 0,
                           0, 7, 0, 10, 10, 10);
  EXPECT_EQ(w.m, 3);  // max(Ai=3, Ci=7) = 7 -> 10-7
}

TEST(Dcwi, TrsmSides) {
  const auto l = dcwi_trsm(la::Side::Left, 8, 16, 2, 2, 2, 4, 12, 20);
  EXPECT_EQ(l.m, 8);   // min(8, 12-2)
  EXPECT_EQ(l.n, 16);  // min(16, 20-4)
  const auto r = dcwi_trsm(la::Side::Right, 16, 8, 2, 2, 4, 2, 20, 12);
  EXPECT_EQ(r.m, 16);
  EXPECT_EQ(r.n, 8);
  EXPECT_TRUE(dcwi_trsm(la::Side::Left, 8, 8, 9, 9, 9, 0, 9, 9).none());
}

TEST(Dcwi, LuAndLaswp) {
  const auto w = dcwi_lu(32, 32, 10, 10, 25, 18);
  EXPECT_EQ(w.m, 15);
  EXPECT_EQ(w.n, 8);
  EXPECT_EQ(w.kmin(), 8);

  // Matrix 20x14, panel at j=8 width 8: kmin=14 -> 6 pivot rows remain.
  const auto s = dcwi_laswp(8, 8, 20, 14);
  EXPECT_EQ(s.rows, 6);
  EXPECT_EQ(s.wl, 8);
  EXPECT_EQ(s.wr_off, 16);
  EXPECT_EQ(s.wr, 0);  // no columns right of the panel (n=14 < 16)

  EXPECT_TRUE(dcwi_laswp(14, 8, 20, 14).none());  // matrix fully factored
}

// --------------------------------------------------------------- irrGEMM

class IrrGemmTrans
    : public ::testing::TestWithParam<std::pair<la::Trans, la::Trans>> {};

TEST_P(IrrGemmTrans, MatchesPerMatrixReference) {
  const auto [ta, tb] = GetParam();
  Device dev(DeviceModel::a100());
  Rng rng(77);
  const int bs = 30;
  // Square matrices of irregular sizes: every operand indexed inside an
  // n_i x n_i matrix; the operation multiplies leading blocks.
  auto sizes = rng.uniform_sizes(bs, 1, 90);
  VBatch<double> A(dev, sizes), B(dev, sizes), C(dev, sizes), Cref(dev,
                                                                   sizes);
  A.fill_uniform(rng);
  B.fill_uniform(rng);
  C.fill_uniform(rng);
  Cref.copy_from(C);

  const int req = 90;
  irr_gemm<double>(dev, dev.stream(), ta, tb, req, req, req, 1.5, A.ptrs(),
                   A.lda(), 0, 0, B.ptrs(), B.lda(), 0, 0, -0.5, C.ptrs(),
                   C.lda(), 0, 0, A.m_vec(), A.n_vec(), A.m_vec(), bs);
  dev.synchronize_all();

  for (int i = 0; i < bs; ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    la::gemm(ta, tb, n, n, n, 1.5, A.view(i).data(), n, B.view(i).data(), n,
             -0.5, Cref.view(i).data(), n);
  }
  EXPECT_LT(batch_max_diff(C, Cref), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    TransCombos, IrrGemmTrans,
    ::testing::Values(std::pair{la::Trans::No, la::Trans::No},
                      std::pair{la::Trans::Yes, la::Trans::No},
                      std::pair{la::Trans::No, la::Trans::Yes},
                      std::pair{la::Trans::Yes, la::Trans::Yes}));

TEST(IrrGemm, OffsetsAddressSubblocks) {
  Device dev(DeviceModel::a100());
  Rng rng(3);
  const int bs = 12;
  auto sizes = rng.uniform_sizes(bs, 1, 40);
  VBatch<double> A(dev, sizes), C(dev, sizes), Cref(dev, sizes);
  A.fill_uniform(rng);
  C.fill_uniform(rng);
  Cref.copy_from(C);

  // C(4.., 4..) -= A(4.., 0..4) * A(0..4, 4..) — the LU trailing update
  // shape with j = 0, jb = 4.
  const int jb = 4, req = 40;
  irr_gemm<double>(dev, dev.stream(), la::Trans::No, la::Trans::No, req - jb,
                   req - jb, jb, -1.0, A.ptrs(), A.lda(), jb, 0, A.ptrs(),
                   A.lda(), 0, jb, 1.0, C.ptrs(), C.lda(), jb, jb,
                   A.m_vec(), A.n_vec(), A.m_vec(), bs);
  dev.synchronize_all();

  for (int i = 0; i < bs; ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    const int r = n - jb;
    if (r <= 0) continue;  // DCWI: no workload for matrices <= jb
    auto a = A.view(i);
    la::gemm(la::Trans::No, la::Trans::No, r, r, jb, -1.0, &a(jb, 0), n,
             &a(0, jb), n, 1.0, &Cref.view(i)(jb, jb), n);
  }
  EXPECT_LT(batch_max_diff(C, Cref), 1e-12);
}

TEST(IrrGemm, NoWorkloadLeavesMemoryUntouched) {
  Device dev(DeviceModel::a100());
  std::vector<int> sizes = {3, 5};
  VBatch<double> A(dev, sizes), C(dev, sizes);
  Rng rng(5);
  A.fill_uniform(rng);
  C.fill_uniform(rng);
  VBatch<double> canary(dev, sizes);
  canary.copy_from(C);

  // Offsets beyond both matrices: nothing may change, even with beta = 0.
  irr_gemm<double>(dev, dev.stream(), la::Trans::No, la::Trans::No, 16, 16,
                   16, 1.0, A.ptrs(), A.lda(), 8, 8, A.ptrs(), A.lda(), 8, 8,
                   0.0, C.ptrs(), C.lda(), 8, 8, A.m_vec(), A.n_vec(),
                   A.m_vec(), 2);
  dev.synchronize_all();
  EXPECT_EQ(batch_max_diff(C, canary), 0.0);
}

TEST(IrrGemm, BetaScalesEvenWhenKExhausted) {
  // A matrix whose k range is exhausted by the offset must still have its
  // C block scaled by beta (partial workload type "beta-only").
  Device dev(DeviceModel::a100());
  std::vector<int> sizes = {6};
  VBatch<double> A(dev, sizes), C(dev, sizes);
  Rng rng(6);
  A.fill_uniform(rng);
  C.fill_uniform(rng);
  const double c00 = C.view(0)(2, 2);
  // k offset = 6 kills the product; C offset (2,2) selects a 4x4 block.
  irr_gemm<double>(dev, dev.stream(), la::Trans::No, la::Trans::No, 16, 16,
                   16, 1.0, A.ptrs(), A.lda(), 2, 6, A.ptrs(), A.lda(), 6, 2,
                   0.5, C.ptrs(), C.lda(), 2, 2, A.m_vec(), A.n_vec(),
                   A.m_vec(), 1);
  dev.synchronize_all();
  EXPECT_DOUBLE_EQ(C.view(0)(2, 2), 0.5 * c00);
  EXPECT_NE(C.view(0)(1, 1), 0.5 * c00);  // outside the offset block
}

TEST(IrrGemm, LargeSingleMatrixCrossesTiles) {
  Device dev(DeviceModel::a100());
  Rng rng(8);
  std::vector<int> sizes = {150};  // > 2x2 tiles of 64
  VBatch<double> A(dev, sizes), B(dev, sizes), C(dev, sizes), Cref(dev,
                                                                   sizes);
  A.fill_uniform(rng);
  B.fill_uniform(rng);
  C.fill_uniform(rng);
  Cref.copy_from(C);
  irr_gemm<double>(dev, dev.stream(), la::Trans::No, la::Trans::No, 150, 150,
                   150, 1.0, A.ptrs(), A.lda(), 0, 0, B.ptrs(), B.lda(), 0,
                   0, 1.0, C.ptrs(), C.lda(), 0, 0, A.m_vec(), A.n_vec(),
                   A.m_vec(), 1);
  dev.synchronize_all();
  la::gemm(la::Trans::No, la::Trans::No, 150, 150, 150, 1.0,
           A.view(0).data(), 150, B.view(0).data(), 150, 1.0,
           Cref.view(0).data(), 150);
  EXPECT_LT(batch_max_diff(C, Cref), 1e-10);
}

// --------------------------------------------------------------- irrTRSM

struct IrrTrsmCase {
  la::Side side;
  la::Uplo uplo;
  la::Trans trans;
  la::Diag diag;
};

class IrrTrsmParam : public ::testing::TestWithParam<IrrTrsmCase> {};

TEST_P(IrrTrsmParam, SolvesIrregularBatch) {
  const auto p = GetParam();
  Device dev(DeviceModel::a100());
  Rng rng(19);
  const int bs = 24;
  // Triangles up to 100 (forces recursion past the base size of 32) with
  // irregular rhs counts.
  std::vector<int> tri = rng.uniform_sizes(bs, 1, 100);
  std::vector<int> rhs = rng.uniform_sizes(bs, 1, 50);
  const auto& bm = p.side == la::Side::Left ? tri : rhs;  // B rows
  const auto& bn = p.side == la::Side::Left ? rhs : tri;  // B cols

  VBatch<double> T(dev, tri, tri), B(dev, bm, bn), B0(dev, bm, bn);
  T.fill_uniform(rng);
  for (int i = 0; i < bs; ++i) {
    auto t = T.view(i);
    for (int d = 0; d < t.rows(); ++d) t(d, d) += 4.0;
  }
  B.fill_uniform(rng);
  B0.copy_from(B);

  const int mreq = p.side == la::Side::Left ? 100 : 50;
  const int nreq = p.side == la::Side::Left ? 50 : 100;
  irr_trsm<double>(dev, dev.stream(), p.side, p.uplo, p.trans, p.diag, mreq,
                   nreq, 1.0, T.ptrs(), T.lda(), 0, 0, B.ptrs(), B.lda(), 0,
                   0, B.m_vec(), B.n_vec(), bs);
  dev.synchronize_all();

  // Compare against the single-matrix reference solve.
  VBatch<double> Bref(dev, bm, bn);
  Bref.copy_from(B0);
  for (int i = 0; i < bs; ++i)
    la::trsm(p.side, p.uplo, p.trans, p.diag, Bref.view(i).rows(),
             Bref.view(i).cols(), 1.0, T.view(i).data(), T.view(i).ld(),
             Bref.view(i).data(), Bref.view(i).ld());
  EXPECT_LT(batch_max_diff(B, Bref), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, IrrTrsmParam,
    ::testing::Values(
        IrrTrsmCase{la::Side::Left, la::Uplo::Lower, la::Trans::No,
                    la::Diag::NonUnit},
        IrrTrsmCase{la::Side::Left, la::Uplo::Lower, la::Trans::No,
                    la::Diag::Unit},
        IrrTrsmCase{la::Side::Left, la::Uplo::Upper, la::Trans::No,
                    la::Diag::NonUnit},
        IrrTrsmCase{la::Side::Left, la::Uplo::Lower, la::Trans::Yes,
                    la::Diag::NonUnit},
        IrrTrsmCase{la::Side::Left, la::Uplo::Upper, la::Trans::Yes,
                    la::Diag::NonUnit},
        IrrTrsmCase{la::Side::Right, la::Uplo::Upper, la::Trans::No,
                    la::Diag::NonUnit},
        IrrTrsmCase{la::Side::Right, la::Uplo::Lower, la::Trans::No,
                    la::Diag::Unit},
        IrrTrsmCase{la::Side::Right, la::Uplo::Upper, la::Trans::Yes,
                    la::Diag::NonUnit},
        IrrTrsmCase{la::Side::Right, la::Uplo::Lower, la::Trans::Yes,
                    la::Diag::NonUnit}));

TEST(IrrTrsm, AlphaAppliedExactlyOnceAcrossRecursion) {
  Device dev(DeviceModel::a100());
  Rng rng(23);
  std::vector<int> tri = {80, 40, 7};
  std::vector<int> rhs = {5, 5, 5};
  VBatch<double> T(dev, tri, tri), B(dev, tri, rhs), Bref(dev, tri, rhs);
  T.fill_uniform(rng);
  for (int i = 0; i < 3; ++i)
    for (int d = 0; d < tri[static_cast<std::size_t>(i)]; ++d)
      T.view(i)(d, d) += 4.0;
  B.fill_uniform(rng);
  Bref.copy_from(B);
  irr_trsm<double>(dev, dev.stream(), la::Side::Left, la::Uplo::Lower,
                   la::Trans::No, la::Diag::NonUnit, 80, 5, -2.5, T.ptrs(),
                   T.lda(), 0, 0, B.ptrs(), B.lda(), 0, 0, B.m_vec(),
                   B.n_vec(), 3);
  dev.synchronize_all();
  for (int i = 0; i < 3; ++i)
    la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No,
             la::Diag::NonUnit, tri[static_cast<std::size_t>(i)], 5, -2.5,
             T.view(i).data(), T.view(i).ld(), Bref.view(i).data(),
             Bref.view(i).ld());
  EXPECT_LT(batch_max_diff(B, Bref), 1e-8);
}

TEST(IrrTrsm, BackwardErrorNearMachine) {
  // The paper's Fig. 6 claim: substitution-based irrTRSM reaches ~machine
  // precision backward error.
  Device dev(DeviceModel::a100());
  Rng rng(31);
  const int bs = 50;
  std::vector<int> tri = rng.uniform_sizes(bs, 1, 64);
  std::vector<int> rhs(bs, 8);
  VBatch<double> T(dev, tri, tri), B(dev, tri, rhs), B0(dev, tri, rhs);
  T.fill_uniform(rng);
  for (int i = 0; i < bs; ++i)
    for (int d = 0; d < tri[static_cast<std::size_t>(i)]; ++d)
      T.view(i)(d, d) += 4.0;
  B.fill_uniform(rng);
  B0.copy_from(B);
  irr_trsm<double>(dev, dev.stream(), la::Side::Left, la::Uplo::Lower,
                   la::Trans::No, la::Diag::NonUnit, 64, 8, 1.0, T.ptrs(),
                   T.lda(), 0, 0, B.ptrs(), B.lda(), 0, 0, B.m_vec(),
                   B.n_vec(), bs);
  dev.synchronize_all();
  double worst = 0;
  for (int i = 0; i < bs; ++i)
    worst = std::max(worst, la::trsm_backward_error(
                                la::Uplo::Lower, la::Trans::No,
                                la::Diag::NonUnit, T.view(i), B.view(i),
                                B0.view(i)));
  EXPECT_LT(worst, 1e-13);
}

// ----------------------------------------------------------- panel kernels

TEST(IrrPanel, FusedAndColumnwiseAgree) {
  Device dev(DeviceModel::a100());
  Rng rng(41);
  const int bs = 20;
  auto rows = rng.uniform_sizes(bs, 1, 60);
  std::vector<int> cols = rows;
  VBatch<double> A(dev, rows, cols), B(dev, rows, cols);
  A.fill_uniform(rng);
  B.copy_from(A);
  PivotBatch pa(dev, rows, cols), pb(dev, rows, cols);

  const int jb = 8, req_m = 60;
  irr_getf2_fused<double>(dev, dev.stream(), req_m, jb, A.ptrs(), A.lda(), 0,
                          0, A.m_vec(), A.n_vec(), pa.ptrs(), pa.info(), bs);
  irr_panel_columnwise<double>(dev, dev.stream(), req_m, jb, B.ptrs(),
                               B.lda(), 0, 0, B.m_vec(), B.n_vec(),
                               pb.ptrs(), pb.info(), bs);
  dev.synchronize_all();

  EXPECT_LT(batch_max_diff(A, B), 1e-13);
  for (int i = 0; i < bs; ++i) {
    const int k = std::min(jb, rows[static_cast<std::size_t>(i)]);
    for (int c = 0; c < k; ++c)
      EXPECT_EQ(pa.ipiv_of(i)[c], pb.ipiv_of(i)[c]) << "matrix " << i
                                                    << " col " << c;
  }
}

TEST(IrrPanel, MatchesLapackPanel) {
  Device dev(DeviceModel::a100());
  Rng rng(43);
  std::vector<int> rows = {45, 3, 17};
  std::vector<int> cols = {45, 3, 17};
  VBatch<double> A(dev, rows, cols), R(dev, rows, cols);
  A.fill_uniform(rng);
  R.copy_from(A);
  PivotBatch piv(dev, rows, cols);
  const int jb = 8;
  irr_getf2_fused<double>(dev, dev.stream(), 45, jb, A.ptrs(), A.lda(), 0, 0,
                          A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(), 3);
  dev.synchronize_all();
  for (int i = 0; i < 3; ++i) {
    const int m = rows[static_cast<std::size_t>(i)];
    const int k = std::min(jb, m);
    std::vector<int> ip(static_cast<std::size_t>(k));
    // Reference: factor the m x k panel only.
    la::getf2(m, k, R.view(i).data(), m, ip.data());
    for (int c = 0; c < k; ++c) EXPECT_EQ(piv.ipiv_of(i)[c], ip[c]);
    for (int c = 0; c < k; ++c)
      for (int r = 0; r < m; ++r)
        EXPECT_NEAR(A.view(i)(r, c), R.view(i)(r, c), 1e-13);
  }
}

// --------------------------------------------------------------- irrLASWP

TEST(IrrLaswp, LoopedAndRehearsalAgree) {
  Device dev(DeviceModel::a100());
  Rng rng(53);
  const int bs = 25;
  auto n = rng.uniform_sizes(bs, 1, 70);
  VBatch<double> A(dev, n), B(dev, n);
  A.fill_uniform(rng);
  B.copy_from(A);
  PivotBatch piv(dev, n, n);
  // Factor a panel to obtain realistic pivots.
  const int j = 8, jb = 8;
  irr_getf2_fused<double>(dev, dev.stream(), 70 - j, jb, A.ptrs(), A.lda(),
                          j, j, A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(),
                          bs);
  // Copy the factored panels into B so both start identical.
  B.copy_from(A);
  irr_laswp<double>(dev, dev.stream(), j, jb, A.ptrs(), A.lda(), A.m_vec(),
                    A.n_vec(), piv.ptrs(), bs, LaswpMethod::kLooped);
  irr_laswp<double>(dev, dev.stream(), j, jb, B.ptrs(), B.lda(), B.m_vec(),
                    B.n_vec(), piv.ptrs(), bs, LaswpMethod::kRehearsal);
  dev.synchronize_all();
  EXPECT_EQ(batch_max_diff(A, B), 0.0);
}

TEST(IrrLaswp, MatchesLapackLaswp) {
  Device dev(DeviceModel::a100());
  Rng rng(59);
  std::vector<int> n = {30};
  VBatch<double> A(dev, n), R(dev, n);
  A.fill_uniform(rng);
  R.copy_from(A);
  PivotBatch piv(dev, n, n);
  // Hand-crafted absolute pivots for rows 4..8.
  int* ip = const_cast<int*>(piv.ipiv_of(0));
  ip[4] = 20;
  ip[5] = 5;
  ip[6] = 29;
  ip[7] = 4;
  irr_laswp<double>(dev, dev.stream(), 4, 4, A.ptrs(), A.lda(), A.m_vec(),
                    A.n_vec(), piv.ptrs(), 1, LaswpMethod::kRehearsal);
  dev.synchronize_all();
  // LAPACK reference applied to left columns [0,4) and right [8,30).
  la::laswp(4, R.view(0).data(), 30, 4, 8, ip);
  la::laswp(30 - 8, R.view(0).data() + 8 * 30, 30, 4, 8, ip);
  EXPECT_EQ(batch_max_diff(A, R), 0.0);
}

namespace {

/// Hand-built pivots of a matrix with m rows: row r keeps its place
/// (r % 3 == 0), swaps with row r + 5 (r % 3 == 1), or swaps with r + 4,
/// the row its predecessor already targeted (r % 3 == 2); targets are
/// clamped to the last row. So targets repeat, and a row displaced by one
/// swap is displaced again by the next: every rehearsal resolves chains.
std::vector<int> chain_pivots(int m) {
  std::vector<int> p(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r)
    p[static_cast<std::size_t>(r)] =
        r % 3 == 0 ? r : std::min(m - 1, r + (r % 3 == 1 ? 5 : 4));
  return p;
}

/// Rows a rehearsal of pivots [k0, k1) touches: each pivot row and its
/// target, counted once.
int touched_rows(const std::vector<int>& piv, int k0, int k1) {
  std::vector<int> rows;
  for (int r = k0; r < k1; ++r) {
    rows.push_back(r);
    rows.push_back(piv[static_cast<std::size_t>(r)]);
  }
  std::sort(rows.begin(), rows.end());
  return static_cast<int>(std::unique(rows.begin(), rows.end()) -
                          rows.begin());
}

/// One traced launch: kernel name, grid, shared memory and bytes.
using LaunchRow = std::tuple<std::string, int, std::size_t, double>;

/// Runs the row swaps — irr_laswp's kRehearsal panels at j = 0, 8, 16,
/// 24, 32, then irr_laswp_range_staged and irr_laswp_range over pivots
/// [2, 20) and columns [3, 20), and over pivots [1, 30) and columns
/// [2, 72) — on batches with hand-built pivot chains. Checks every matrix
/// bit for bit against la::laswp on a host copy, and every traced launch's
/// grid and bytes against the cost formulas of irr_laswp.cpp and
/// irr_getrf.cpp (one block per matrix, or per matrix and column panel).
template <typename T>
void check_rehearsal_on_chains() {
  Device dev(DeviceModel::a100());
  irrlu::trace::Tracer tracer;
  dev.set_tracer(&tracer);
  const std::size_t move_smem = 32 << 10;  // min(32 KiB, A100's 164 KiB)
  const double row_bytes = 64.0 / sizeof(T) / 2.0 * sizeof(T);
  std::vector<LaunchRow> expect;

  auto run = [&](const std::vector<int>& m, const std::vector<int>& n,
                 auto&& launch_and_reference) {
    const int bs = static_cast<int>(m.size());
    Rng rng(97);
    VBatch<T> A(dev, m, n), R(dev, m, n);
    A.fill_uniform(rng);
    R.copy_from(A);
    std::vector<std::vector<int>> host_piv;
    std::size_t total = 0;
    for (int mi : m) {
      host_piv.push_back(chain_pivots(mi));
      total += static_cast<std::size_t>(mi);
    }
    auto piv_store = dev.alloc<int>(total);
    auto piv = dev.alloc<int*>(static_cast<std::size_t>(bs));
    for (std::size_t i = 0, off = 0; i < host_piv.size(); ++i) {
      piv[i] = piv_store.data() + off;
      std::copy(host_piv[i].begin(), host_piv[i].end(), piv[i]);
      off += host_piv[i].size();
    }
    launch_and_reference(A, R, const_cast<int const* const*>(piv.data()),
                         host_piv);
    dev.synchronize_all();
    for (int i = 0; i < bs; ++i)
      EXPECT_EQ(std::memcmp(A.view(i).data(), R.view(i).data(),
                            sizeof(T) * static_cast<std::size_t>(A.m_of(i)) *
                                static_cast<std::size_t>(A.n_of(i))),
                0)
          << "matrix " << i << " (" << m[static_cast<std::size_t>(i)] << "x"
          << n[static_cast<std::size_t>(i)] << ")";
  };

  // Panels: tall, wide, square, tiny and empty matrices, so DCWI retires
  // them at different panels; at j > 0 both column segments are non-empty.
  const std::vector<int> pm = {40, 40, 23, 13, 9, 1, 6, 0, 30};
  const std::vector<int> pn = {40, 23, 40, 9, 13, 6, 1, 4, 30};
  const int jb = 8;
  run(pm, pn, [&](VBatch<T>& A, VBatch<T>& R, int const* const* piv,
                  const std::vector<std::vector<int>>& hp) {
    const int bs = A.batch_size();
    for (int j = 0; j < 40; j += jb) {
      irr_laswp<T>(dev, dev.stream(), j, jb, A.ptrs(), A.lda(), A.m_vec(),
                   A.n_vec(), piv, bs, LaswpMethod::kRehearsal);
      double rehearse = 0, move = 0;
      for (int i = 0; i < bs; ++i) {
        const int m = A.m_of(i), n = A.n_of(i);
        const int k2 = std::min(j + jb, std::min(m, n));
        if (k2 <= j) continue;
        const int cnt = touched_rows(hp[static_cast<std::size_t>(i)], j, k2);
        const int wl = std::min(j, n), wr = std::max(0, n - (j + jb));
        rehearse += (2.0 * (k2 - j) + 2.0 * cnt) * sizeof(int);
        move += 2.0 * cnt * (wl + wr) * row_bytes;
        const int* ip = hp[static_cast<std::size_t>(i)].data();
        T* a = R.view(i).data();
        const int lda = A.lda()[i];
        la::laswp(wl, a, lda, j, k2, ip);
        la::laswp(wr, a + static_cast<std::ptrdiff_t>(j + jb) * lda, lda, j,
                  k2, ip);
      }
      expect.emplace_back("irr_laswp_rehearse", bs, 0, rehearse);
      expect.emplace_back("irr_laswp_move", bs, move_smem, move);
    }
  });

  // Ranges, rehearsed and strided: matrices shorter than k1, narrower
  // than c0 + w, at or below c0 columns, and with no pivot row past k0.
  // w = 17 fits one column panel; w = 70 spans three, and DCWI retires
  // the matrices at different panels.
  struct Range {
    int k0, k1, c0, w;
  };
  const std::vector<int> rm = {30, 12, 30, 30, 2, 25, 20, 40, 40};
  const std::vector<int> rn = {30, 30, 10, 3, 30, 21, 20, 40, 75};
  for (const Range g : {Range{2, 20, 3, 17}, Range{1, 30, 2, 70}})
    for (const bool staged : {true, false})
      run(rm, rn, [&](VBatch<T>& A, VBatch<T>& R, int const* const* piv,
                      const std::vector<std::vector<int>>& hp) {
        const int bs = A.batch_size();
        if (staged)
          irr_laswp_range_staged<T>(dev, dev.stream(), g.k0, g.k1, g.w,
                                    A.ptrs(), A.lda(), g.c0, A.m_vec(),
                                    A.n_vec(), piv, bs);
        else
          irr_laswp_range<T>(dev, dev.stream(), g.k0, g.k1, g.w, A.ptrs(),
                             A.lda(), g.c0, A.m_vec(), A.n_vec(), piv, bs);
        double rehearse = 0, move = 0, swapped = 0;
        for (int i = 0; i < bs; ++i) {
          const auto& ip = hp[static_cast<std::size_t>(i)];
          const int rows = std::min(g.k1, A.m_of(i));
          const int width = std::min(g.w, A.n_of(i) - g.c0);
          if (rows <= g.k0 || width <= 0) continue;
          const int cnt = touched_rows(ip, g.k0, rows);
          rehearse += (2.0 * (rows - g.k0) + 2.0 * cnt) * sizeof(int);
          move += 2.0 * cnt * width * row_bytes;
          for (int r = g.k0; r < rows; ++r)
            if (ip[static_cast<std::size_t>(r)] != r)
              swapped += 4.0 * width * 64.0;
          const int lda = A.lda()[i];
          la::laswp(width,
                    R.view(i).data() + static_cast<std::ptrdiff_t>(g.c0) * lda,
                    lda, g.k0, rows, ip.data());
        }
        const int panels = (g.w + kColumnPanel - 1) / kColumnPanel;
        if (staged) {
          expect.emplace_back("irr_laswp_rehearse", bs, 0, rehearse);
          expect.emplace_back("irr_laswp_move", bs * panels, move_smem,
                              move);
        } else {
          expect.emplace_back("irr_laswp_range", bs * panels, 0, swapped);
        }
      });

  dev.set_tracer(nullptr);
  std::vector<LaunchRow> got;
  for (const auto& r : tracer.launches())
    got.emplace_back(tracer.kernel_name(r.name_id), r.blocks, r.smem_bytes,
                     r.bytes);
  EXPECT_EQ(got, expect);
}

}  // namespace

TEST(IrrLaswp, RehearsalResolvesChainsAndPinsBytes) {
  check_rehearsal_on_chains<double>();
  check_rehearsal_on_chains<float>();
}

// ----------------------------------------------------------------- irrLU

class IrrLuDevices : public ::testing::TestWithParam<const char*> {
 protected:
  static DeviceModel model(const char* name) {
    if (std::string(name) == "a100") return DeviceModel::a100();
    if (std::string(name) == "mi100") return DeviceModel::mi100();
    return DeviceModel::test_tiny();  // tiny smem: forces column-wise panel
  }
};

TEST_P(IrrLuDevices, FactorsIrregularBatch) {
  Device dev(model(GetParam()));
  Rng rng(61);
  const int bs = 30;
  auto n = rng.uniform_sizes(bs, 1, 96);
  VBatch<double> A(dev, n), A0(dev, n);
  A.fill_uniform(rng);
  A0.copy_from(A);
  PivotBatch piv(dev, n, n);

  irr_getrf<double>(dev, dev.stream(), 96, 96, A.ptrs(), A.lda(), 0, 0,
                    A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(), bs);
  dev.synchronize_all();

  for (int i = 0; i < bs; ++i) {
    EXPECT_EQ(piv.info()[i], 0) << "matrix " << i;
    const double res =
        la::lu_residual(A.view(i), piv.ipiv_of(i), A0.view(i));
    EXPECT_LT(res, 60.0) << "matrix " << i << " size "
                         << n[static_cast<std::size_t>(i)];
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, IrrLuDevices,
                         ::testing::Values("a100", "mi100", "tiny"));

TEST(IrrLu, RectangularBatches) {
  Device dev(DeviceModel::a100());
  Rng rng(67);
  const int bs = 16;
  auto m = rng.uniform_sizes(bs, 1, 80);
  auto n = rng.uniform_sizes(bs, 1, 80);
  VBatch<double> A(dev, m, n), A0(dev, m, n);
  A.fill_uniform(rng);
  A0.copy_from(A);
  PivotBatch piv(dev, m, n);
  irr_getrf<double>(dev, dev.stream(), 80, 80, A.ptrs(), A.lda(), 0, 0,
                    A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(), bs);
  dev.synchronize_all();
  for (int i = 0; i < bs; ++i)
    EXPECT_LT(la::lu_residual(A.view(i), piv.ipiv_of(i), A0.view(i)), 60.0);
}

TEST(IrrLu, PanelPathsProduceSamePivots) {
  Device dev(DeviceModel::a100());
  // Too little shared memory for any panel of this batch: irr_getrf falls
  // back to the column-wise panel, as on the paper's MI100.
  DeviceModel small = DeviceModel::a100();
  small.shared_mem_per_block = 512;
  Device colwise(small);
  Rng rng(71);
  const int bs = 10;
  auto n = rng.uniform_sizes(bs, 1, 64);
  VBatch<double> A(dev, n), B(colwise, n);
  A.fill_uniform(rng);
  B.copy_from(A);
  PivotBatch pa(dev, n, n), pb(colwise, n, n);
  irr_getrf<double>(dev, dev.stream(), 64, 64, A.ptrs(), A.lda(), 0, 0,
                    A.m_vec(), A.n_vec(), pa.ptrs(), pa.info(), bs);
  irr_getrf<double>(colwise, colwise.stream(), 64, 64, B.ptrs(), B.lda(), 0,
                    0, B.m_vec(), B.n_vec(), pb.ptrs(), pb.info(), bs);
  dev.synchronize_all();
  colwise.synchronize_all();
  EXPECT_EQ(dev.profile().count("irr_scal"), 0u);  // fused panels only
  EXPECT_GE(colwise.profile().count("irr_scal"), 1u);
  for (int i = 0; i < bs; ++i)
    for (int c = 0; c < n[static_cast<std::size_t>(i)]; ++c)
      ASSERT_EQ(pa.ipiv_of(i)[c], pb.ipiv_of(i)[c]);
  EXPECT_LT(batch_max_diff(A, B), 1e-12);
}

TEST(IrrLu, PanelWidthsAgree) {
  Device dev(DeviceModel::a100());
  Rng rng(73);
  const int bs = 8;
  auto n = rng.uniform_sizes(bs, 1, 70);
  VBatch<double> A0(dev, n);
  A0.fill_uniform(rng);
  std::vector<double> residuals;
  for (int nb : {8, 16, 32, 64}) {
    VBatch<double> A(dev, n);
    A.copy_from(A0);
    PivotBatch piv(dev, n, n);
    IrrLuOptions opts;
    opts.nb = nb;
    irr_getrf<double>(dev, dev.stream(), 70, 70, A.ptrs(), A.lda(), 0, 0,
                      A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(), bs,
                      opts);
    dev.synchronize_all();
    for (int i = 0; i < bs; ++i)
      EXPECT_LT(la::lu_residual(A.view(i), piv.ipiv_of(i), A0.view(i)), 60.0)
          << "nb=" << nb;
  }
}

TEST(IrrLu, SingularMatrixFlagsInfo) {
  Device dev(DeviceModel::a100());
  std::vector<int> n = {5, 4};
  VBatch<double> A(dev, n);
  Rng rng(79);
  A.fill_uniform(rng);
  // Make matrix 1 exactly singular: zero out its second column from the
  // start so column 2's pivot search finds only zeros after elimination.
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) A.view(1)(r, c) = (r + 1.0) * (c + 1.0);
  PivotBatch piv(dev, n, n);
  irr_getrf<double>(dev, dev.stream(), 5, 5, A.ptrs(), A.lda(), 0, 0,
                    A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(), 2);
  dev.synchronize_all();
  EXPECT_EQ(piv.info()[0], 0);
  EXPECT_GT(piv.info()[1], 0);  // rank-1 matrix: zero pivot detected
}

TEST(IrrLu, BatchWithZeroAndOneSizedMatrices) {
  Device dev(DeviceModel::a100());
  std::vector<int> n = {0, 1, 2, 50};
  VBatch<double> A(dev, n), A0(dev, n);
  Rng rng(83);
  A.fill_uniform(rng);
  A0.copy_from(A);
  PivotBatch piv(dev, n, n);
  irr_getrf<double>(dev, dev.stream(), 50, 50, A.ptrs(), A.lda(), 0, 0,
                    A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(), 4);
  dev.synchronize_all();
  for (int i = 1; i < 4; ++i)
    EXPECT_LT(la::lu_residual(A.view(i), piv.ipiv_of(i), A0.view(i)), 60.0);
  // The 1x1 matrix: LU is the value itself, pivot 0.
  EXPECT_EQ(piv.ipiv_of(1)[0], 0);
  EXPECT_DOUBLE_EQ(A.view(1)(0, 0), A0.view(1)(0, 0));
}

TEST(IrrLu, SolveRoundTrip) {
  // Factor + manual forward/backward substitution per matrix must solve
  // A x = b to high accuracy.
  Device dev(DeviceModel::a100());
  Rng rng(89);
  const int bs = 12;
  auto n = rng.uniform_sizes(bs, 1, 60);
  VBatch<double> A(dev, n), A0(dev, n);
  A.fill_uniform(rng);
  A0.copy_from(A);
  PivotBatch piv(dev, n, n);
  irr_getrf<double>(dev, dev.stream(), 60, 60, A.ptrs(), A.lda(), 0, 0,
                    A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(), bs);
  dev.synchronize_all();
  for (int i = 0; i < bs; ++i) {
    const int ni = n[static_cast<std::size_t>(i)];
    std::vector<double> b(static_cast<std::size_t>(ni)), x;
    for (auto& v : b) v = rng.uniform(-1, 1);
    x = b;
    la::getrs(la::Trans::No, ni, 1, A.view(i).data(), ni, piv.ipiv_of(i),
              x.data(), ni);
    EXPECT_LT(la::solve_residual(A0.view(i), x.data(), b.data()), 1e-8)
        << "matrix " << i << " n=" << ni;
  }
}

TEST(IrrLu, FullyAsyncBeforeSynchronize) {
  // All launches must enqueue without any host-side blocking: since the
  // driver's scratch comes from the device workspace cache (whose buffers
  // outlive the enqueued kernels), even the self-allocating mode needs no
  // trailing workspace-lifetime sync.
  Device dev(DeviceModel::a100());
  Rng rng(97);
  std::vector<int> n = {40, 20, 10};
  VBatch<double> A(dev, n);
  A.fill_uniform(rng);
  PivotBatch piv(dev, n, n);
  irr_getrf<double>(dev, dev.stream(), 40, 40, A.ptrs(), A.lda(), 0, 0,
                    A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(), 3);
  EXPECT_EQ(dev.sync_count(), 0);
  EXPECT_GT(dev.launch_count(), 5);
}

// ------------------------------------------------------ FP32 instantiation

TEST(IrrLuFloat, FactorsSinglePrecisionBatch) {
  Device dev(DeviceModel::a100());
  Rng rng(141);
  const int bs = 15;
  auto n = rng.uniform_sizes(bs, 1, 60);
  VBatch<float> A(dev, n), A0(dev, n);
  for (int i = 0; i < bs; ++i) rng.fill_uniform(A.view(i), -1.0f, 1.0f);
  A0.copy_from(A);
  PivotBatch piv(dev, n, n);
  irr_getrf<float>(dev, dev.stream(), 60, 60, A.ptrs(), A.lda(), 0, 0,
                   A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(), bs);
  dev.synchronize_all();
  // Verify through a single solve per matrix at FP32 tolerance.
  for (int i = 0; i < bs; ++i) {
    const int ni = n[static_cast<std::size_t>(i)];
    std::vector<float> b(static_cast<std::size_t>(ni), 1.0f), x = b;
    la::getrs(la::Trans::No, ni, 1, A.view(i).data(), ni, piv.ipiv_of(i),
              x.data(), ni);
    float rmax = 0, xmax = 0;
    for (int r = 0; r < ni; ++r) {
      float acc = 0;
      for (int c = 0; c < ni; ++c) acc += A0.view(i)(r, c) * x[c];
      rmax = std::max(rmax, std::abs(acc - 1.0f));
      xmax = std::max(xmax, std::abs(x[static_cast<std::size_t>(r)]));
    }
    EXPECT_LT(rmax / (1.0f + xmax), 2e-3f) << "matrix " << i << " n=" << ni;
  }
}

TEST(IrrGemmFloat, MatchesReference) {
  Device dev(DeviceModel::a100());
  Rng rng(143);
  std::vector<int> sizes = {33, 7, 64};
  VBatch<float> A(dev, sizes), B(dev, sizes), C(dev, sizes);
  for (int i = 0; i < 3; ++i) {
    rng.fill_uniform(A.view(i), -1.0f, 1.0f);
    rng.fill_uniform(B.view(i), -1.0f, 1.0f);
    rng.fill_uniform(C.view(i), -1.0f, 1.0f);
  }
  VBatch<float> Cref(dev, sizes);
  Cref.copy_from(C);
  irr_gemm<float>(dev, dev.stream(), la::Trans::No, la::Trans::No, 64, 64,
                  64, 1.0f, A.ptrs(), A.lda(), 0, 0, B.ptrs(), B.lda(), 0, 0,
                  0.5f, C.ptrs(), C.lda(), 0, 0, A.m_vec(), A.n_vec(),
                  A.m_vec(), 3);
  dev.synchronize_all();
  for (int i = 0; i < 3; ++i) {
    const int ni = sizes[static_cast<std::size_t>(i)];
    la::gemm(la::Trans::No, la::Trans::No, ni, ni, ni, 1.0f,
             A.view(i).data(), ni, B.view(i).data(), ni, 0.5f,
             Cref.view(i).data(), ni);
    for (int c = 0; c < ni; ++c)
      for (int r = 0; r < ni; ++r)
        EXPECT_NEAR(C.view(i)(r, c), Cref.view(i)(r, c), 1e-3f);
  }
}

// --------------------------------------------------- DCWI randomized fuzz

TEST(DcwiFuzz, GemmAgreesWithPerMatrixReferenceUnderRandomOffsets) {
  // 60 random configurations of required dims, offsets and local sizes;
  // for each, irr_gemm on views must equal per-matrix reference GEMMs on
  // the effective blocks.
  Device dev(DeviceModel::a100());
  Rng rng(151);
  for (int trial = 0; trial < 60; ++trial) {
    const int bs = rng.uniform_int(1, 8);
    auto sizes = rng.uniform_sizes(bs, 1, 40);
    VBatch<double> A(dev, sizes), B(dev, sizes), C(dev, sizes),
        Cref(dev, sizes);
    A.fill_uniform(rng);
    B.fill_uniform(rng);
    C.fill_uniform(rng);
    Cref.copy_from(C);
    const int m = rng.uniform_int(1, 48), n = rng.uniform_int(1, 48),
              k = rng.uniform_int(0, 48);
    const int off = rng.uniform_int(0, 12);  // same offset for all operands
    irr_gemm<double>(dev, dev.stream(), la::Trans::No, la::Trans::No, m, n,
                     k, 1.3, A.ptrs(), A.lda(), off, off, B.ptrs(), B.lda(),
                     off, off, -0.7, C.ptrs(), C.lda(), off, off, A.m_vec(),
                     A.n_vec(), A.m_vec(), bs);
    dev.synchronize_all();
    for (int i = 0; i < bs; ++i) {
      const int loc = sizes[static_cast<std::size_t>(i)];
      const int em = std::max(0, std::min(m, loc - off));
      const int en = std::max(0, std::min(n, loc - off));
      const int ek = std::max(0, std::min(k, loc - off));
      if (em == 0 || en == 0) continue;
      auto a = A.view(i);
      auto cr = Cref.view(i);
      la::gemm(la::Trans::No, la::Trans::No, em, en, ek, 1.3, &a(off, off),
               loc, &B.view(i)(off, off), loc, -0.7, &cr(off, off), loc);
    }
    ASSERT_LT(batch_max_diff(C, Cref), 1e-11) << "trial " << trial;
  }
}
