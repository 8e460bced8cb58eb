// Tests for the interleaved (SoA) batch layout (DESIGN.md §12): pack /
// unpack round trips, bitwise agreement of the batch-axis-vectorized
// kernels with the strided engine path in both precisions, and the
// multifrontal / solver / service routing — whose factors must be
// bit-identical with the routing on and off, through factor, refactor,
// the service's cached refactor and the FP32 precision policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "fem/mesh.hpp"
#include "fem/nedelec.hpp"
#include "gpusim/device.hpp"
#include "irrblas/interleaved.hpp"
#include "irrblas/irr_kernels.hpp"
#include "irrblas/vbatch.hpp"
#include "service/solver_service.hpp"
#include "sparse/csr.hpp"
#include "sparse/solver.hpp"

namespace la = irrlu::la;
using namespace irrlu::batch;
using irrlu::Rng;
using irrlu::gpusim::Device;
using irrlu::gpusim::DeviceModel;
using irrlu::service::ServiceOptions;
using irrlu::service::SolveRequest;
using irrlu::service::SolverService;
using irrlu::sparse::CsrMatrix;
using irrlu::sparse::laplacian2d;
using irrlu::sparse::PrecisionPolicy;
using irrlu::sparse::SolverOptions;
using irrlu::sparse::SparseDirectSolver;

namespace {

template <typename T>
bool bits_equal(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Bit-for-bit comparison of two factorizations' FP64 and FP32 stores.
::testing::AssertionResult factors_bits_equal(
    const irrlu::sparse::MultifrontalFactor& a,
    const irrlu::sparse::MultifrontalFactor& b) {
  if (a.factor_elems() != b.factor_elems() ||
      a.factor_elems_f32() != b.factor_elems_f32())
    return ::testing::AssertionFailure() << "factor store sizes differ";
  if (a.factor_elems() > 0 &&
      std::memcmp(a.factor_data(), b.factor_data(),
                  a.factor_elems() * sizeof(double)) != 0)
    return ::testing::AssertionFailure() << "FP64 factor bits differ";
  if (a.factor_elems_f32() > 0 &&
      std::memcmp(a.factor_data_f32(), b.factor_data_f32(),
                  a.factor_elems_f32() * sizeof(float)) != 0)
    return ::testing::AssertionFailure() << "FP32 factor bits differ";
  return ::testing::AssertionSuccess();
}

/// Bit-for-bit comparison of two same-shape strided batches.
template <typename T>
::testing::AssertionResult batch_bits_equal(const VBatch<T>& a,
                                            const VBatch<T>& b) {
  for (int i = 0; i < a.batch_size(); ++i) {
    auto va = a.view(i);
    auto vb = b.view(i);
    for (int c = 0; c < va.cols(); ++c)
      for (int r = 0; r < va.rows(); ++r)
        if (!bits_equal(va(r, c), vb(r, c)))
          return ::testing::AssertionFailure()
                 << "matrix " << i << " (" << r << "," << c
                 << "): " << va(r, c) << " vs " << vb(r, c);
  }
  return ::testing::AssertionSuccess();
}

/// Packs a uniform strided batch into an interleaved class buffer
/// through the device pack kernel.
template <typename T>
void pack(Device& dev, const VBatch<T>& src, InterleavedBatch<T>& dst,
          double* absmax = nullptr) {
  IlvPackDescT<T> d;
  d.dst = dst.view();
  d.m = dst.m();
  d.n = dst.n();
  d.lanes = src.batch_size();
  d.src = src.ptrs();
  d.src_ld = src.lda();
  d.absmax = absmax;
  ilv_pack<T>(dev, dev.stream(), {d});
}

template <typename T>
void unpack(Device& dev, const VBatch<T>& dst, InterleavedBatch<T>& src,
            double* absmax = nullptr) {
  IlvPackDescT<T> d;
  d.dst = src.view();
  d.m = src.m();
  d.n = src.n();
  d.lanes = dst.batch_size();
  d.src = dst.ptrs();
  d.src_ld = dst.lda();
  d.absmax = absmax;
  ilv_unpack<T>(dev, dev.stream(), {d});
}

std::vector<int> uniform_sizes(int n, int batch) {
  return std::vector<int>(static_cast<std::size_t>(batch), n);
}

}  // namespace

// ----------------------------------------------------------- layout basics

TEST(InterleavedLayout, ElementAddressing) {
  Device dev(DeviceModel::a100());
  InterleavedBatch<double> a(dev, 3, 2, 5);
  for (int c = 0; c < 2; ++c)
    for (int r = 0; r < 3; ++r)
      for (int i = 0; i < 5; ++i) a.at(r, c, i) = 100.0 * r + 10.0 * c + i;
  // (r, c) of lane i at data[(c*m + r)*batch + i].
  EXPECT_EQ(a.data()[(1 * 3 + 2) * 5 + 4], 100.0 * 2 + 10.0 * 1 + 4);
  const IlvView v = a.view();
  EXPECT_EQ(v.sub(2, 1), a.data() + (1 * 3 + 2) * 5);
  EXPECT_EQ(v.subview(1, 1).sub(1, 0), v.sub(2, 1));
}

TEST(InterleavedLayout, PackUnpackRoundTripBitwise) {
  Device dev(DeviceModel::a100());
  const int n = 13, batch = 9;
  VBatch<double> src(dev, uniform_sizes(n, batch));
  Rng rng(42);
  src.fill_uniform(rng, -3.0, 3.0);
  VBatch<double> ref(dev, uniform_sizes(n, batch));
  ref.copy_from(src);

  InterleavedBatch<double> ilv(dev, n, n, batch);
  std::vector<double> norm_pack(batch, -1.0), norm_unpack(batch, -1.0);
  pack(dev, src, ilv, norm_pack.data());
  // Clobber the strided side, then unpack: every bit must come back.
  for (int i = 0; i < batch; ++i) {
    auto v = src.view(i);
    for (int c = 0; c < n; ++c)
      for (int r = 0; r < n; ++r) v(r, c) = 0.0;
  }
  unpack(dev, src, ilv, norm_unpack.data());
  dev.synchronize_all();
  EXPECT_TRUE(batch_bits_equal(src, ref));
  // The fused absmax matches the host reduction on both sweeps.
  for (int i = 0; i < batch; ++i) {
    double mx = 0;
    auto v = ref.view(i);
    for (int c = 0; c < n; ++c)
      for (int r = 0; r < n; ++r) mx = std::max(mx, std::abs(v(r, c)));
    EXPECT_TRUE(bits_equal(norm_pack[static_cast<std::size_t>(i)], mx));
    EXPECT_TRUE(bits_equal(norm_unpack[static_cast<std::size_t>(i)], mx));
  }
}

TEST(InterleavedLayout, EmptyAndDegenerateBatches) {
  Device dev(DeviceModel::a100());
  // batch_size 0: every stage is a no-op and no launch is recorded.
  InterleavedBatch<double> empty(dev, 4, 4, 0);
  const long launches0 = dev.launch_count();
  ilv_pack(dev, dev.stream(), {});
  irr_getf2_ilv(dev, dev.stream(), empty.view(), 4, 4, 0, nullptr, nullptr);
  irr_gemm_ilv(dev, dev.stream(), 4, 4, 4, 1.0, empty.view(), empty.view(),
               1.0, empty.view(), 0);
  irr_trsm_ilv(dev, dev.stream(), la::Side::Left, la::Uplo::Lower,
               la::Diag::Unit, 4, 4, 1.0, empty.view(), empty.view(), 0);
  EXPECT_EQ(dev.launch_count(), launches0);

  // Zero-sized matrices with live lanes: kernels run and do nothing.
  InterleavedBatch<double> zero(dev, 0, 0, 3);
  std::vector<int> piv_store(3, -1);
  std::vector<int*> piv{piv_store.data(), piv_store.data() + 1,
                        piv_store.data() + 2};
  std::vector<int> info(3, 0);
  irr_getf2_ilv(dev, dev.stream(), zero.view(), 0, 0, 3, piv.data(),
                info.data());
  irr_gemm_ilv(dev, dev.stream(), 0, 5, 2, 1.0, zero.view(), zero.view(),
               0.0, zero.view(), 3);
  dev.synchronize_all();
  EXPECT_EQ(info, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(piv_store, (std::vector<int>{-1, -1, -1}));

  // batch_size 1 round-trips.
  VBatch<double> one(dev, uniform_sizes(5, 1));
  Rng rng(3);
  one.fill_uniform(rng);
  VBatch<double> one_ref(dev, uniform_sizes(5, 1));
  one_ref.copy_from(one);
  InterleavedBatch<double> ilv1(dev, 5, 5, 1);
  pack(dev, one, ilv1);
  unpack(dev, one, ilv1);
  EXPECT_TRUE(batch_bits_equal(one, one_ref));
}

// --------------------------------------------- kernels vs the strided path

// Each kernel case runs in both element types: the f32 kernels keep the
// same per-lane contract against the strided float engine path.

template <typename T>
void getf2_matches_strided(int n) {
  const int batch = 33;  // odd: exercises a partial trailing lane chunk
  Device dev(DeviceModel::a100());
  const auto sizes = uniform_sizes(n, batch);
  VBatch<T> a_str(dev, sizes), a_ilv(dev, sizes);
  Rng rng(7u + static_cast<unsigned>(n));
  a_str.fill_uniform(rng);
  // One singular lane: info/zero-pivot parity matters too.
  if (n >= 2) {
    auto v = a_str.view(batch / 2);
    for (int r = 0; r < n; ++r) v(r, 1) = T(0);
  }
  a_ilv.copy_from(a_str);

  PivotBatch piv_str(dev, sizes, sizes), piv_ilv(dev, sizes, sizes);
  IrrLuOptions lu;  // nb = 32 >= n: the fused-panel engine path
  irr_getrf<T>(dev, dev.stream(), n, n, a_str.ptrs(), a_str.lda(), 0, 0,
               a_str.m_vec(), a_str.n_vec(), piv_str.ptrs(), piv_str.info(),
               batch, lu);

  InterleavedBatch<T> ilv(dev, n, n, batch);
  pack(dev, a_ilv, ilv);
  irr_getf2_ilv(dev, dev.stream(), ilv.view(), n, n, batch, piv_ilv.ptrs(),
                piv_ilv.info());
  unpack(dev, a_ilv, ilv);
  dev.synchronize_all();

  EXPECT_TRUE(batch_bits_equal(a_str, a_ilv));
  for (int i = 0; i < batch; ++i) {
    EXPECT_EQ(piv_str.info()[i], piv_ilv.info()[i]) << "lane " << i;
    for (int j = 0; j < n; ++j)
      EXPECT_EQ(piv_str.ipiv_of(i)[j], piv_ilv.ipiv_of(i)[j])
          << "lane " << i << " col " << j;
  }
}

class IlvGetf2Sizes : public ::testing::TestWithParam<int> {};

TEST_P(IlvGetf2Sizes, MatchesStridedBitwise) {
  getf2_matches_strided<double>(GetParam());
}

TEST_P(IlvGetf2Sizes, Fp32MatchesStridedBitwise) {
  getf2_matches_strided<float>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, IlvGetf2Sizes,
                         ::testing::Values(1, 2, 5, 8, 13, 16, 17, 24, 32));

TEST(IlvGetf2, BoostedMatchesStridedBitwise) {
  const int n = 12, batch = 17;
  Device dev(DeviceModel::a100());
  const auto sizes = uniform_sizes(n, batch);
  VBatch<double> a_str(dev, sizes), a_ilv(dev, sizes);
  Rng rng(11);
  a_str.fill_uniform(rng);
  // Make a couple of lanes degenerate so boosting actually fires.
  for (int lane : {2, 9}) {
    auto v = a_str.view(lane);
    for (int r = 0; r < n; ++r) v(r, 3) = v(r, 0) * 1e-14;
  }
  a_ilv.copy_from(a_str);

  const double tau = 1e-4;  // aggressive: guarantees boosts on this data
  std::vector<double> anorm_str(batch, 0.0), anorm_ilv(batch, -1.0);
  std::vector<int> boost_str(batch, 0), boost_ilv(batch, 0);
  for (int i = 0; i < batch; ++i) {
    auto v = a_str.view(i);
    double mx = 0;
    for (int c = 0; c < n; ++c)
      for (int r = 0; r < n; ++r) mx = std::max(mx, std::abs(v(r, c)));
    anorm_str[static_cast<std::size_t>(i)] = mx;
  }

  PivotBatch piv_str(dev, sizes, sizes), piv_ilv(dev, sizes, sizes);
  IrrLuOptions lu;
  lu.boost.tau = tau;
  lu.boost.anorm_vec = anorm_str.data();
  lu.boost.boost_vec = boost_str.data();
  irr_getrf<double>(dev, dev.stream(), n, n, a_str.ptrs(), a_str.lda(), 0, 0,
                    a_str.m_vec(), a_str.n_vec(), piv_str.ptrs(),
                    piv_str.info(), batch, lu);

  InterleavedBatch<double> ilv(dev, n, n, batch);
  // The fused pack absmax feeds the boost threshold, as in the engine.
  pack(dev, a_ilv, ilv, anorm_ilv.data());
  irr_getf2_ilv(dev, dev.stream(), ilv.view(), n, n, batch, piv_ilv.ptrs(),
                piv_ilv.info(), tau, anorm_ilv.data(), boost_ilv.data());
  unpack(dev, a_ilv, ilv);
  dev.synchronize_all();

  long total_boosts = 0;
  for (int i = 0; i < batch; ++i) {
    EXPECT_TRUE(bits_equal(anorm_str[static_cast<std::size_t>(i)],
                           anorm_ilv[static_cast<std::size_t>(i)]));
    EXPECT_EQ(boost_str[static_cast<std::size_t>(i)],
              boost_ilv[static_cast<std::size_t>(i)])
        << "lane " << i;
    total_boosts += boost_str[static_cast<std::size_t>(i)];
  }
  EXPECT_GT(total_boosts, 0);  // the scenario really exercised boosting
  EXPECT_TRUE(batch_bits_equal(a_str, a_ilv));
}

struct TrsmCase {
  la::Side side;
  la::Uplo uplo;
  la::Diag diag;
  int tri, other;
  double alpha;
};

template <typename T>
void trsm_matches_strided(const TrsmCase& tc) {
  const bool left = tc.side == la::Side::Left;
  const int m = left ? tc.tri : tc.other;
  const int n = left ? tc.other : tc.tri;
  const int batch = 9;
  Device dev(DeviceModel::a100());

  VBatch<T> t(dev, uniform_sizes(tc.tri, batch));
  VBatch<T> b_str(dev, uniform_sizes(m, batch), uniform_sizes(n, batch));
  VBatch<T> b_ilv(dev, uniform_sizes(m, batch), uniform_sizes(n, batch));
  Rng rng(19u + static_cast<unsigned>(tc.tri * 64 + tc.other));
  t.fill_uniform(rng);
  for (int i = 0; i < batch; ++i) {
    auto v = t.view(i);
    for (int d = 0; d < tc.tri; ++d) v(d, d) += T(3);  // well-scaled solves
  }
  b_str.fill_uniform(rng);
  b_ilv.copy_from(b_str);

  irr_trsm<T>(dev, dev.stream(), tc.side, tc.uplo, la::Trans::No, tc.diag, m,
              n, static_cast<T>(tc.alpha), t.ptrs(), t.lda(), 0, 0,
              b_str.ptrs(), b_str.lda(), 0, 0, b_str.m_vec(), b_str.n_vec(),
              batch);

  InterleavedBatch<T> ti(dev, tc.tri, tc.tri, batch);
  InterleavedBatch<T> bi(dev, m, n, batch);
  pack(dev, t, ti);
  pack(dev, b_ilv, bi);
  irr_trsm_ilv(dev, dev.stream(), tc.side, tc.uplo, tc.diag, m, n, tc.alpha,
               ti.view(), bi.view(), batch);
  unpack(dev, b_ilv, bi);
  dev.synchronize_all();

  EXPECT_TRUE(batch_bits_equal(b_str, b_ilv));
}

class IlvTrsmCases : public ::testing::TestWithParam<TrsmCase> {};

TEST_P(IlvTrsmCases, MatchesStridedBitwise) {
  trsm_matches_strided<double>(GetParam());
}

TEST_P(IlvTrsmCases, Fp32MatchesStridedBitwise) {
  trsm_matches_strided<float>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Variants, IlvTrsmCases,
    ::testing::Values(
        // The engine's two calls: Left/Lower/Unit and Right/Upper/NonUnit.
        TrsmCase{la::Side::Left, la::Uplo::Lower, la::Diag::Unit, 16, 24,
                 1.0},
        TrsmCase{la::Side::Right, la::Uplo::Upper, la::Diag::NonUnit, 16, 24,
                 1.0},
        // Specialized substitution sizes (tri <= 16)...
        TrsmCase{la::Side::Left, la::Uplo::Upper, la::Diag::NonUnit, 1, 1,
                 1.0},
        TrsmCase{la::Side::Right, la::Uplo::Lower, la::Diag::Unit, 5, 8,
                 -0.5},
        TrsmCase{la::Side::Left, la::Uplo::Lower, la::Diag::NonUnit, 13, 3,
                 2.0},
        // ...and the generic 16-blocked structure above it.
        TrsmCase{la::Side::Left, la::Uplo::Lower, la::Diag::Unit, 17, 8,
                 1.0},
        TrsmCase{la::Side::Left, la::Uplo::Upper, la::Diag::NonUnit, 32, 24,
                 1.0},
        TrsmCase{la::Side::Right, la::Uplo::Upper, la::Diag::NonUnit, 32, 16,
                 1.0},
        TrsmCase{la::Side::Right, la::Uplo::Lower, la::Diag::Unit, 20, 11,
                 -1.0}));

struct GemmCase {
  int m, n, k;
  double alpha, beta;
};

template <typename T>
void gemm_matches_strided(const GemmCase& gc) {
  const int batch = 7;
  Device dev(DeviceModel::a100());
  VBatch<T> a(dev, uniform_sizes(gc.m, batch), uniform_sizes(gc.k, batch));
  VBatch<T> b(dev, uniform_sizes(gc.k, batch), uniform_sizes(gc.n, batch));
  VBatch<T> c_str(dev, uniform_sizes(gc.m, batch), uniform_sizes(gc.n, batch));
  VBatch<T> c_ilv(dev, uniform_sizes(gc.m, batch), uniform_sizes(gc.n, batch));
  Rng rng(23u + static_cast<unsigned>(gc.m + 8 * gc.n + 64 * gc.k));
  a.fill_uniform(rng);
  b.fill_uniform(rng);
  c_str.fill_uniform(rng);
  c_ilv.copy_from(c_str);

  irr_gemm<T>(dev, dev.stream(), la::Trans::No, la::Trans::No, gc.m, gc.n,
              gc.k, static_cast<T>(gc.alpha), a.ptrs(), a.lda(), 0, 0,
              b.ptrs(), b.lda(), 0, 0, static_cast<T>(gc.beta), c_str.ptrs(),
              c_str.lda(), 0, 0, c_str.m_vec(), c_str.n_vec(), a.n_vec(),
              batch);

  InterleavedBatch<T> ai(dev, gc.m, gc.k, batch);
  InterleavedBatch<T> bi(dev, gc.k, gc.n, batch);
  InterleavedBatch<T> ci(dev, gc.m, gc.n, batch);
  pack(dev, a, ai);
  pack(dev, b, bi);
  pack(dev, c_ilv, ci);
  irr_gemm_ilv(dev, dev.stream(), gc.m, gc.n, gc.k, gc.alpha, ai.view(),
               bi.view(), gc.beta, ci.view(), batch);
  unpack(dev, c_ilv, ci);
  dev.synchronize_all();

  EXPECT_TRUE(batch_bits_equal(c_str, c_ilv));
}

class IlvGemmCases : public ::testing::TestWithParam<GemmCase> {};

TEST_P(IlvGemmCases, MatchesStridedBitwise) {
  gemm_matches_strided<double>(GetParam());
}

TEST_P(IlvGemmCases, Fp32MatchesStridedBitwise) {
  gemm_matches_strided<float>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IlvGemmCases,
    ::testing::Values(GemmCase{1, 1, 1, -1.0, 1.0},
                      GemmCase{5, 7, 3, 1.0, 0.0},
                      GemmCase{8, 4, 8, 0.5, 0.3},
                      GemmCase{13, 11, 16, -1.0, 1.0},
                      GemmCase{16, 16, 17, 1.0, 1.0},
                      GemmCase{24, 24, 32, -1.0, 1.0},
                      GemmCase{12, 12, 16, 0.0, 1.0},   // alpha == 0
                      GemmCase{6, 9, 0, -1.0, 1.0}));   // k == 0: beta only

TEST(IlvLaswp, MatchesHostReference) {
  const int rows = 11, width = 7, batch = 13;
  Device dev(DeviceModel::a100());
  VBatch<double> b(dev, uniform_sizes(rows, batch),
                   uniform_sizes(width, batch));
  Rng rng(31);
  b.fill_uniform(rng);
  VBatch<double> ref(dev, uniform_sizes(rows, batch),
                     uniform_sizes(width, batch));
  ref.copy_from(b);

  // LAPACK-convention forward pivots: row r swaps with piv[r] >= r.
  std::vector<int> piv_store(static_cast<std::size_t>(rows) * batch);
  std::vector<int*> piv(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    piv[static_cast<std::size_t>(i)] =
        piv_store.data() + static_cast<std::size_t>(i) * rows;
    for (int r = 0; r < rows; ++r)
      piv[static_cast<std::size_t>(i)][r] = rng.uniform_int(r, rows - 1);
  }
  for (int i = 0; i < batch; ++i) {  // host reference on the strided copy
    auto v = ref.view(i);
    for (int r = 0; r < rows; ++r) {
      const int p = piv[static_cast<std::size_t>(i)][r];
      if (p == r) continue;
      for (int c = 0; c < width; ++c) std::swap(v(r, c), v(p, c));
    }
  }

  InterleavedBatch<double> ilv(dev, rows, width, batch);
  pack(dev, b, ilv);
  IlvLaswpDesc d;
  d.view = ilv.view();
  d.rows = rows;
  d.width = width;
  d.lanes = batch;
  d.ipiv = piv.data();
  ilv_laswp(dev, dev.stream(), {d});
  unpack(dev, b, ilv);
  dev.synchronize_all();
  EXPECT_TRUE(batch_bits_equal(b, ref));
}

// ------------------------------------------- multifrontal / solver routing

TEST(MultifrontalInterleaved, FactorsBitIdenticalToStrided) {
  const CsrMatrix a = laplacian2d(20, 20, 0.4);
  SolverOptions off;
  SolverOptions on = off;
  on.factor.interleaved.enabled = true;
  // Raise the routing cap from the perf-crossover default to the engine
  // clamp so the identity check covers the full routable size range.
  on.factor.interleaved.max_class_dim = 32;

  Device dev_off(DeviceModel::a100());
  SparseDirectSolver s_off(off);
  s_off.analyze(a);
  s_off.factor(dev_off);

  Device dev_on(DeviceModel::a100());
  SparseDirectSolver s_on(on);
  s_on.analyze(a);
  s_on.factor(dev_on);

  const auto& f_off = s_off.numeric();
  const auto& f_on = s_on.numeric();
  EXPECT_TRUE(factors_bits_equal(f_off, f_on));
  // Numerical diagnostics agree too.
  EXPECT_EQ(f_off.report().boosted_pivots, f_on.report().boosted_pivots);
  EXPECT_EQ(f_off.report().zero_pivot_fronts,
            f_on.report().zero_pivot_fronts);
  EXPECT_TRUE(
      bits_equal(f_off.report().pivot_growth, f_on.report().pivot_growth));
  // Launch profiles: no interleaved getf2 with the routing off, some on.
  EXPECT_EQ(dev_off.profile().count("ilv_getf2"), 0u);
  EXPECT_EQ(dev_on.profile().count("ilv_getf2"), 1u);
  // And both factorizations solve the same system to the same quality.
  const std::vector<double> b(400, 1.0);
  const auto x_off = s_off.solve(b);
  const auto x_on = s_on.solve(b);
  ASSERT_EQ(x_off.size(), x_on.size());
  for (std::size_t i = 0; i < x_off.size(); ++i)
    EXPECT_TRUE(bits_equal(x_off[i], x_on[i])) << i;
}

// The FP32 precision policies factor their levels through the float
// engine. Routed fronts must match the strided ones bit for bit in every
// build, -march=native included: the packed engine and the interleaved
// kernels fuse the same multiply-adds. Maxwell tubes (every front small,
// most of them routed) and a fat torus, with the routing cap at the
// default-sized leaf classes and at the engine clamp.
TEST(MultifrontalInterleaved, Fp32FactorsBitIdenticalToStrided) {
  const double omega = 16.0;
  const struct {
    int ntheta, ncross;
  } meshes[] = {{384, 2}, {768, 2}, {12, 6}};
  for (const auto& mesh : meshes) {
    const irrlu::fem::EdgeSystem sys = irrlu::fem::assemble_maxwell(
        irrlu::fem::HexMesh::torus(mesh.ntheta, mesh.ncross, mesh.ncross),
        omega, irrlu::fem::paper_maxwell_load(omega, omega / 1.05));
    int routed = 0;  // configurations that sent fronts to the SoA kernels
    for (PrecisionPolicy policy :
         {PrecisionPolicy::kF32, PrecisionPolicy::kAdaptive}) {
      SolverOptions off;
      off.nd.leaf_size = 16;
      off.factor.precision = policy;
      Device dev_off(DeviceModel::a100());
      SparseDirectSolver s_off(off);
      s_off.analyze(sys.a);
      s_off.factor(dev_off);
      ASSERT_GT(s_off.numeric().report().fp32_fronts, 0);
      for (int max_dim : {16, 32}) {
        SCOPED_TRACE(::testing::Message()
                     << mesh.ntheta << "x" << mesh.ncross << " policy "
                     << static_cast<int>(policy) << " max_class_dim "
                     << max_dim);
        SolverOptions on = off;
        on.factor.interleaved.enabled = true;
        on.factor.interleaved.max_class_dim = max_dim;
        Device dev_on(DeviceModel::a100());
        SparseDirectSolver s_on(on);
        s_on.analyze(sys.a);
        s_on.factor(dev_on);
        routed += dev_on.profile().count("ilv_getf2") > 0 ? 1 : 0;
        EXPECT_TRUE(factors_bits_equal(s_off.numeric(), s_on.numeric()));
      }
    }
    // The fat torus has no fronts within the 16 cap, so only some
    // configurations route there; every mesh must route in at least one.
    EXPECT_GT(routed, 0) << mesh.ntheta << "x" << mesh.ncross;
  }
}

TEST(MultifrontalInterleaved, RefactorMatchesStrided) {
  const CsrMatrix a1 = laplacian2d(16, 16, 0.3);
  const CsrMatrix a2 = laplacian2d(16, 16, 0.9);  // same pattern, new values
  SolverOptions off;
  SolverOptions on = off;
  on.factor.interleaved.enabled = true;
  on.factor.interleaved.max_class_dim = 32;  // route every front size
  Device dev_on(DeviceModel::a100());
  SparseDirectSolver solver(on);
  solver.analyze(a1);
  solver.factor(dev_on);
  solver.refactor(dev_on, a2);
  ASSERT_EQ(dev_on.profile().count("ilv_getf2"), 1u);

  // The routed refactor is bitwise the routing-off factor of the same
  // analyze, factor and refactor sequence.
  Device dev_off(DeviceModel::a100());
  SparseDirectSolver twin(off);
  twin.analyze(a1);
  twin.factor(dev_off);
  twin.refactor(dev_off, a2);
  EXPECT_TRUE(factors_bits_equal(solver.numeric(), twin.numeric()));

  // The refactored values are right (not a stale factor).
  const std::vector<double> b(256, 1.0);
  const auto x = solver.solve(b);
  EXPECT_LT(solver.residual(x, b), 1e-12);
}

TEST(ServiceInterleaved, CachedRefactorMatchesStrided) {
  const CsrMatrix a1 = laplacian2d(12, 12, 0.2);
  const CsrMatrix a2 = laplacian2d(12, 12, 0.8);
  Device dev(DeviceModel::a100());
  ServiceOptions so;
  so.solver.factor.interleaved.enabled = true;
  SolverService svc(dev, so);
  const std::vector<double> b(144, 1.0);

  auto r1 = svc.solve({SolveRequest{"t", a1, b, {}}});
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_TRUE(r1[0].report.ok());
  const SparseDirectSolver* cached = svc.peek(a1);
  ASSERT_NE(cached, nullptr);

  auto r2 = svc.solve({SolveRequest{"t", a2, b, {}}});  // cached pattern
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_TRUE(r2[0].symbolic_cache_hit);
  ASSERT_EQ(svc.peek(a1), cached);
  EXPECT_EQ(dev.profile().count("ilv_getf2"), 1u);

  // The session's refactored factor is bitwise that of a routing-off
  // solver run through the same analyze, factor and refactor.
  SolverOptions off = so.solver;
  off.factor.interleaved.enabled = false;
  Device dev_off(DeviceModel::a100());
  SparseDirectSolver twin(off);
  twin.analyze(a1);
  twin.factor(dev_off);
  twin.refactor(dev_off, a2);
  EXPECT_TRUE(factors_bits_equal(cached->numeric(), twin.numeric()));
}
