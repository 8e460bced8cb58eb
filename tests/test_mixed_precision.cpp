// The mixed-precision layer (DESIGN.md §14): FP32 instantiations of the
// irregular-batch microkernels against the FP64 reference, the staged
// row-interchange kernel's result-identity, the LU-IR solve contract over
// the robustness envelope under every precision policy, the FP64 fallback
// and factor-time escalation paths, the bit-identity of the pure-FP64
// policy with the defaults, and the service's (pattern, policy) cache key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "irrblas/irr_kernels.hpp"
#include "irrblas/vbatch.hpp"
#include "lapack/blas.hpp"
#include "lapack/lapack.hpp"
#include "service/solver_service.hpp"
#include "sparse/csr.hpp"
#include "sparse/precision.hpp"
#include "sparse/solver.hpp"

namespace la = irrlu::la;
using namespace irrlu::batch;
using namespace irrlu::sparse;
using irrlu::Rng;
using irrlu::gpusim::Device;
using irrlu::gpusim::DeviceModel;
using irrlu::service::SolveRequest;
using irrlu::service::SolverService;

namespace {

std::vector<double> random_rhs(int n, unsigned seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

/// Fills a float batch with the rounded values of a double batch of the
/// same shape — the "same matrix, narrower storage" setup every
/// FP32-vs-FP64 comparison starts from.
void demote(const VBatch<double>& src, VBatch<float>& dst) {
  for (int i = 0; i < src.batch_size(); ++i) {
    auto s = src.view(i);
    auto d = dst.view(i);
    for (int j = 0; j < s.cols(); ++j)
      for (int r = 0; r < s.rows(); ++r)
        d(r, j) = static_cast<float>(s(r, j));
  }
}

float batch_max_diff_f(const VBatch<float>& a, const VBatch<float>& b) {
  float d = 0;
  for (int i = 0; i < a.batch_size(); ++i) {
    auto va = a.view(i);
    auto vb = b.view(i);
    for (int j = 0; j < va.cols(); ++j)
      for (int r = 0; r < va.rows(); ++r)
        d = std::max(d, std::abs(va(r, j) - vb(r, j)));
  }
  return d;
}

/// Dense all-ones matrix: exactly singular, elimination exact in binary
/// arithmetic (same construction as test_robustness.cpp).
CsrMatrix all_ones(int n) {
  std::vector<std::tuple<int, int, double>> t;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) t.emplace_back(i, j, 1.0);
  return CsrMatrix::from_triplets(n, t);
}

bool all_finite(const std::vector<double>& v) {
  for (double e : v)
    if (!std::isfinite(e)) return false;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// FP32 microkernels vs the FP64 reference (componentwise tolerance)
// ---------------------------------------------------------------------------

TEST(Fp32Kernels, GetrfTracksFp64Factor) {
  Device dev(DeviceModel::a100());
  Rng rng(71);
  std::vector<int> m = {40, 7, 23}, n = {40, 7, 23};
  VBatch<double> D(dev, m, n);
  D.fill_uniform(rng);
  VBatch<float> F(dev, m, n);
  demote(D, F);
  PivotBatch pd(dev, m, n), pf(dev, m, n);
  irr_getrf<double>(dev, dev.stream(), 40, 40, D.ptrs(), D.lda(), 0, 0,
                    D.m_vec(), D.n_vec(), pd.ptrs(), pd.info(), 3);
  irr_getrf<float>(dev, dev.stream(), 40, 40, F.ptrs(), F.lda(), 0, 0,
                   F.m_vec(), F.n_vec(), pf.ptrs(), pf.info(), 3);
  dev.synchronize_all();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(pd.info()[i], 0);
    EXPECT_EQ(pf.info()[i], 0);
    const int k = std::min(m[static_cast<std::size_t>(i)],
                           n[static_cast<std::size_t>(i)]);
    // Same data, same pivoting rule: the pivot sequences must agree (the
    // random entries are far enough apart that FP32 rounding cannot flip
    // a comparison), and the factors agree to FP32 accuracy amplified by
    // a modest growth factor.
    for (int c = 0; c < k; ++c)
      ASSERT_EQ(pd.ipiv_of(i)[c], pf.ipiv_of(i)[c]) << "matrix " << i;
    auto vd = D.view(i);
    auto vf = F.view(i);
    for (int j = 0; j < vd.cols(); ++j)
      for (int r = 0; r < vd.rows(); ++r)
        EXPECT_NEAR(vd(r, j), static_cast<double>(vf(r, j)), 2e-3)
            << "matrix " << i << " (" << r << ", " << j << ")";
  }
}

TEST(Fp32Kernels, TrsmWideBaseTracksFp64Reference) {
  // Triangle order 100 forces the FP32 path through its 64-order staged
  // base (trsm_base_size<float>) plus one recursion split — the schedule
  // the FP64 path never takes.
  Device dev(DeviceModel::a100());
  Rng rng(73);
  const int tri = 100, nrhs = 20;
  std::vector<int> tm = {tri}, tn = {tri}, bm = {tri}, bn = {nrhs};
  VBatch<double> Td(dev, tm, tn), Bd(dev, bm, bn);
  Td.fill_uniform(rng);
  Bd.fill_uniform(rng);
  // Unit-diagonal dominant lower triangle: substitution stays tame.
  auto t = Td.view(0);
  for (int j = 0; j < tri; ++j) t(j, j) = 4.0;
  VBatch<float> Tf(dev, tm, tn), Bf(dev, bm, bn);
  demote(Td, Tf);
  demote(Bd, Bf);
  irr_trsm<double>(dev, dev.stream(), la::Side::Left, la::Uplo::Lower,
                   la::Trans::No, la::Diag::NonUnit, tri, nrhs, 1.0,
                   const_cast<double const* const*>(Td.ptrs()), Td.lda(), 0,
                   0, Bd.ptrs(), Bd.lda(), 0, 0, Bd.m_vec(), Bd.n_vec(), 1);
  irr_trsm<float>(dev, dev.stream(), la::Side::Left, la::Uplo::Lower,
                  la::Trans::No, la::Diag::NonUnit, tri, nrhs, 1.0f,
                  const_cast<float const* const*>(Tf.ptrs()), Tf.lda(), 0, 0,
                  Bf.ptrs(), Bf.lda(), 0, 0, Bf.m_vec(), Bf.n_vec(), 1);
  dev.synchronize_all();
  auto xd = Bd.view(0);
  auto xf = Bf.view(0);
  for (int j = 0; j < nrhs; ++j)
    for (int r = 0; r < tri; ++r)
      EXPECT_NEAR(xd(r, j), static_cast<double>(xf(r, j)), 1e-4);
}

TEST(Fp32Kernels, StagedLaswpRangeIsBitIdenticalToStrided) {
  // The staged rehearse+move kernel must be *result*-identical to the
  // strided reference — rows move through shared-memory chunks instead of
  // one swap per pivot, but land bit-exactly where the reference puts
  // them. Trailing-row pivots past the panel (the U12 application in the
  // multifrontal driver) included.
  Device dev(DeviceModel::a100());
  Rng rng(79);
  const int bs = 25;
  auto n = rng.uniform_sizes(bs, 2, 70);
  VBatch<float> A(dev, n), B(dev, n);
  A.fill_uniform(rng);
  PivotBatch piv(dev, n, n);
  const int jb = 8;
  irr_getf2_fused<float>(dev, dev.stream(), 70, jb, A.ptrs(), A.lda(), 0, 0,
                         A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(), bs);
  B.copy_from(A);
  irr_laswp_range<float>(dev, dev.stream(), 0, jb, 70, A.ptrs(), A.lda(), 0,
                         A.m_vec(), A.n_vec(),
                         const_cast<int const* const*>(piv.ptrs()), bs);
  irr_laswp_range_staged<float>(dev, dev.stream(), 0, jb, 70, B.ptrs(),
                                B.lda(), 0, B.m_vec(), B.n_vec(),
                                const_cast<int const* const*>(piv.ptrs()),
                                bs);
  dev.synchronize_all();
  EXPECT_EQ(batch_max_diff_f(A, B), 0.0f);
}

// ---------------------------------------------------------------------------
// LU-IR solve contract over the robustness envelope, per precision policy
// ---------------------------------------------------------------------------

/// Parameterized over the factor precision policy: the quality contract of
/// solve_report() is policy-independent — FP32 fronts may take more
/// refinement steps or escalate to the FP64 fallback, but never return
/// unflagged garbage or a worse structured status than FP64 achieves.
class MixedPrecisionEnvelope
    : public ::testing::TestWithParam<PrecisionPolicy> {
 protected:
  SolveReport run(const CsrMatrix& a, const SolverOptions& base) {
    solver_.reset();
    dev_ = std::make_unique<Device>(DeviceModel::a100());
    SolverOptions opts = base;
    opts.factor.precision = GetParam();
    solver_ = std::make_unique<SparseDirectSolver>(opts);
    solver_->analyze(a);
    solver_->factor(*dev_);
    return solver_->solve_report(random_rhs(a.rows(), 4242));
  }

  void check_contract(const SolveReport& rep) {
    switch (rep.status) {
      case SolveStatus::kConverged:
        EXPECT_TRUE(all_finite(rep.x));
        EXPECT_LE(rep.berr, 1e-12);
        break;
      case SolveStatus::kDegraded:
        EXPECT_TRUE(all_finite(rep.x));
        EXPECT_TRUE(std::isfinite(rep.berr));
        break;
      case SolveStatus::kFailed:
        EXPECT_FALSE(std::isfinite(rep.berr));
        break;
    }
  }

  std::unique_ptr<Device> dev_;
  std::unique_ptr<SparseDirectSolver> solver_;
};

TEST_P(MixedPrecisionEnvelope, IndefiniteSystemConvergesToFp64Accuracy) {
  // Helmholtz-like interior shift: indefinite but moderately conditioned —
  // refinement must recover full FP64 accuracy from FP32 factors.
  const SolveReport rep = run(laplacian3d(5, 5, 5, -2.17), SolverOptions{});
  EXPECT_EQ(rep.status, SolveStatus::kConverged);
  EXPECT_LE(rep.berr, 1e-12);
  check_contract(rep);
}

TEST_P(MixedPrecisionEnvelope, SingularMatrixIsRecoveredOrFlagged) {
  SolverOptions opts;
  opts.use_mc64 = false;
  opts.factor.pivot_tau = 1e-10;  // boosting on
  const SolveReport rep = run(all_ones(6), opts);
  check_contract(rep);
  EXPECT_NE(rep.status, SolveStatus::kFailed);
  EXPECT_FALSE(solver_->numeric().numerically_ok());
}

TEST_P(MixedPrecisionEnvelope, NearSingularNeverReturnsGarbage) {
  const int k = 10;
  // Shift so the smallest eigenvalue is ~1e-9: condition ~ 1e10, far past
  // what FP32 factors alone can resolve (eps_f32 ~ 1.2e-7) — exactly the
  // regime where the FP64 fallback earns its keep.
  const double lmin = 4.0 - 4.0 * std::cos(M_PI / (k + 1));
  const SolveReport rep =
      run(laplacian2d(k, k, 1e-9 - lmin), SolverOptions{});
  check_contract(rep);
  EXPECT_NE(rep.status, SolveStatus::kFailed);
}

TEST_P(MixedPrecisionEnvelope, BadlyScaledSystemConverges) {
  const int k = 7, n = k * k;
  const CsrMatrix base = laplacian2d(k, k, -1.1);
  std::vector<double> d(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    d[static_cast<std::size_t>(i)] = std::pow(10.0, (i % 17) - 8);
  const SolveReport rep = run(base.scaled(d, d), SolverOptions{});
  check_contract(rep);
  EXPECT_EQ(rep.status, SolveStatus::kConverged);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MixedPrecisionEnvelope,
    ::testing::Values(PrecisionPolicy::kF64, PrecisionPolicy::kF32,
                      PrecisionPolicy::kAdaptive),
    [](const ::testing::TestParamInfo<PrecisionPolicy>& info) {
      switch (info.param) {
        case PrecisionPolicy::kF64: return "F64";
        case PrecisionPolicy::kF32: return "F32";
        case PrecisionPolicy::kAdaptive: return "Adaptive";
      }
      return "unknown";
    });

// ---------------------------------------------------------------------------
// FP64 fallback and factor-time escalation
// ---------------------------------------------------------------------------

TEST(Fp64Fallback, GrowthEscalationRefactorsAtFactorTime) {
  // A growth-refactor threshold below any attainable pivot growth (>= 1 by
  // construction) forces the escalation immediately after the FP32
  // factorization: the factor the solve sees is already pure FP64.
  Device dev(DeviceModel::a100());
  SolverOptions opts;
  opts.factor.precision = PrecisionPolicy::kF32;
  opts.growth_refactor_threshold = 0.5;
  SparseDirectSolver solver(opts);
  solver.analyze(laplacian2d(12, 12));
  solver.factor(dev);
  EXPECT_EQ(solver.numeric().report().fp32_fronts, 0);
  EXPECT_EQ(solver.numeric().report().precision_policy,
            PrecisionPolicy::kF64);
  const SolveReport rep = solver.solve_report(random_rhs(144, 7));
  EXPECT_EQ(rep.status, SolveStatus::kConverged);
  EXPECT_FALSE(rep.refactored_fp64);  // escalated before the solve
}

TEST(Fp64Fallback, DisabledFallbackKeepsFp32Factor) {
  Device dev(DeviceModel::a100());
  SolverOptions opts;
  opts.factor.precision = PrecisionPolicy::kF32;
  opts.fp64_fallback = false;
  opts.growth_refactor_threshold = 0.5;  // would escalate if enabled
  SparseDirectSolver solver(opts);
  solver.analyze(laplacian2d(12, 12));
  solver.factor(dev);
  EXPECT_GT(solver.numeric().report().fp32_fronts, 0);
  const SolveReport rep = solver.solve_report(random_rhs(144, 7));
  EXPECT_FALSE(rep.refactored_fp64);
  for (const auto& p : solver.numeric().report().level_precision)
    EXPECT_EQ(p, Precision::kF32);
}

TEST(Fp64Fallback, Fp32FactorIsSmallerAndPolicyRecorded) {
  // The honest-byte-accounting satellite: single-precision fronts halve
  // the factor store, which the measured device peak must reflect.
  auto peak = [](PrecisionPolicy pol) {
    Device dev(DeviceModel::a100());
    SolverOptions opts;
    opts.factor.precision = pol;
    SparseDirectSolver solver(opts);
    solver.analyze(laplacian3d(6, 6, 6));
    solver.factor(dev);
    EXPECT_EQ(solver.numeric().report().precision_policy, pol);
    return solver.numeric().report().measured_peak_bytes;
  };
  EXPECT_LT(peak(PrecisionPolicy::kF32), peak(PrecisionPolicy::kF64));
}

TEST(Fp64Fallback, AdaptivePolicyKeepsRootLevelsInFp64) {
  Device dev(DeviceModel::a100());
  SolverOptions opts;
  opts.factor.precision = PrecisionPolicy::kAdaptive;
  SparseDirectSolver solver(opts);
  solver.analyze(laplacian3d(6, 6, 6));
  solver.factor(dev);
  const auto& rep = solver.numeric().report();
  ASSERT_FALSE(rep.level_precision.empty());
  EXPECT_EQ(rep.level_precision.front(), Precision::kF64);  // root level
  EXPECT_EQ(rep.level_precision.back(), Precision::kF32);   // leaf level
  EXPECT_GT(rep.fp32_fronts, 0);
  EXPECT_LT(rep.fp32_fronts, static_cast<long>(rep.fronts));
}

// ---------------------------------------------------------------------------
// Bit-identity of the pure-FP64 policy
// ---------------------------------------------------------------------------

TEST(Fp64BitIdentity, DefaultOptionsAndExplicitF64AreBitIdentical) {
  // The kF64 policy must be byte-for-byte the pre-mixed-precision code
  // path: identical simulated time, identical launch schedule, identical
  // solution bits — this is the per-build guard behind the fig10
  // byte-identity acceptance check.
  const CsrMatrix a = laplacian3d(6, 6, 6, -2.17);
  const std::vector<double> b = random_rhs(a.rows(), 99);
  auto run = [&](bool explicit_policy) {
    Device dev(DeviceModel::a100());
    SolverOptions opts;
    if (explicit_policy) opts.factor.precision = PrecisionPolicy::kF64;
    SparseDirectSolver solver(opts);
    solver.analyze(a);
    solver.factor(dev);
    EXPECT_EQ(solver.numeric().report().fp32_fronts, 0);
    auto rep = solver.solve_report(b);
    return std::make_tuple(solver.numeric().factor_seconds(),
                           solver.numeric().launch_count(),
                           std::move(rep.x));
  };
  const auto [t0, l0, x0] = run(false);
  const auto [t1, l1, x1] = run(true);
  EXPECT_EQ(t0, t1);  // exact: same simulated schedule
  EXPECT_EQ(l0, l1);
  ASSERT_EQ(x0.size(), x1.size());
  EXPECT_EQ(std::memcmp(x0.data(), x1.data(), x0.size() * sizeof(double)),
            0);
}

// ---------------------------------------------------------------------------
// Service cache: sessions are keyed by (pattern, policy)
// ---------------------------------------------------------------------------

TEST(ServicePrecision, PolicyIsPartOfTheSessionKey) {
  Device dev(DeviceModel::a100());
  SolverService svc(dev, {});
  const CsrMatrix a = laplacian2d(9, 9);

  auto req = [&](std::optional<PrecisionPolicy> pol) {
    SolveRequest r;
    r.tenant = "t";
    r.a = a;
    r.b = random_rhs(a.rows(), 17);
    r.precision = pol;
    return r;
  };

  auto r1 = svc.solve({req(std::nullopt)});             // service default f64
  auto r2 = svc.solve({req(PrecisionPolicy::kF32)});    // new session
  auto r3 = svc.solve({req(PrecisionPolicy::kF32)});    // cached f32 session
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_FALSE(r1[0].symbolic_cache_hit);
  // Same pattern, different policy: the f64 session must NOT serve the
  // f32 request.
  EXPECT_FALSE(r2[0].symbolic_cache_hit);
  EXPECT_FALSE(r2[0].factor_reused);
  // Same pattern, same policy, same values: full reuse.
  EXPECT_TRUE(r3[0].symbolic_cache_hit);
  EXPECT_TRUE(r3[0].factor_reused);
  EXPECT_EQ(svc.stats().factors, 2);
  for (const auto& resp : {r1[0], r2[0], r3[0]})
    EXPECT_EQ(resp.report.status, SolveStatus::kConverged);
}
