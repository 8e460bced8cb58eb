// The numerical-robustness layer: small-pivot boosting in the panel
// kernels, per-front factorization diagnostics (FactorReport, condition
// estimate), adaptive iterative refinement with structured SolveReport,
// and the failure envelope — singular, near-singular, indefinite, and
// badly scaled systems must either converge to a tiny componentwise
// backward error or report a structured non-converged/failed status.
// Nothing may return NaN/Inf without a flag, on the host or the device
// solve path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>
#include <vector>

#include <limits>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "lapack/lapack.hpp"
#include "sparse/csr.hpp"
#include "sparse/solver.hpp"
#include "trace/trace.hpp"

using namespace irrlu::sparse;
using irrlu::Rng;
using irrlu::gpusim::Device;
using irrlu::gpusim::DeviceModel;
namespace la = irrlu::la;

namespace {

std::vector<double> random_rhs(int n, unsigned seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

bool all_finite(const std::vector<double>& v) {
  for (double e : v)
    if (!std::isfinite(e)) return false;
  return true;
}

/// Dense all-ones matrix: structurally nonsingular everywhere (so MC64
/// keeps it), numerically rank 1, and — crucially for tests that need an
/// *exact* zero pivot — elimination is exact in binary arithmetic
/// (multipliers are 1, updates are 1 - 1 = 0).
CsrMatrix all_ones(int n) {
  std::vector<std::tuple<int, int, double>> t;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) t.emplace_back(i, j, 1.0);
  return CsrMatrix::from_triplets(n, t);
}

/// Smallest eigenvalue of laplacian2d(k, k): 4 - 4 cos(pi / (k + 1)).
double lap2d_lambda_min(int k) {
  return 4.0 - 4.0 * std::cos(M_PI / (k + 1));
}

}  // namespace

// ------------------------------------------------- boosted getf2 primitive

TEST(BoostedGetf2, ThresholdZeroIsBitIdenticalToPlain) {
  Rng rng(11);
  const int m = 8, n = 6;
  std::vector<double> a(static_cast<std::size_t>(m) * n);
  for (auto& v : a) v = rng.uniform(-1, 1);
  std::vector<double> b = a;
  std::vector<int> pa(static_cast<std::size_t>(n)), pb(pa);
  const int ia = la::getf2(m, n, a.data(), m, pa.data());
  int boosted = 0;
  const int ib = la::getf2(m, n, b.data(), m, pb.data(), 0.0, &boosted);
  EXPECT_EQ(ia, ib);
  EXPECT_EQ(boosted, 0);
  EXPECT_EQ(pa, pb);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "entry " << i;  // bitwise, not approximately
}

TEST(BoostedGetf2, ReplacesZeroPivotsAndKeepsInfo) {
  // Rank-1 all-ones: the first elimination zeroes the entire trailing
  // block exactly, so columns 1..3 all hit exact-zero pivots.
  const int n = 4;
  std::vector<double> a(static_cast<std::size_t>(n) * n, 1.0);
  std::vector<int> piv(static_cast<std::size_t>(n));
  int boosted = 0;
  const int info = la::getf2(n, n, a.data(), n, piv.data(), 1e-8, &boosted);
  EXPECT_EQ(info, 2);  // LAPACK meaning survives boosting
  EXPECT_EQ(boosted, 3);
  for (double v : a) EXPECT_TRUE(std::isfinite(v));
  // The boosted diagonal carries the threshold magnitude.
  EXPECT_NEAR(std::abs(a[1 * n + 1]), 1e-8, 1e-20);
}

TEST(BoostedGetf2, SmallButNonzeroPivotBoostKeepsSign) {
  EXPECT_DOUBLE_EQ(la::boosted_pivot(-1e-30, 1e-8), -1e-8);
  EXPECT_DOUBLE_EQ(la::boosted_pivot(1e-30, 1e-8), 1e-8);
  EXPECT_DOUBLE_EQ(la::boosted_pivot(0.0, 1e-8), 1e-8);
}

// ------------------------------------------------------- factor diagnostics

TEST(FactorReport, CleanOnWellConditionedMatrix) {
  const CsrMatrix a = laplacian2d(12, 12);
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  const FactorReport& rep = solver.numeric().report();
  EXPECT_EQ(rep.fronts,
            static_cast<int>(solver.symbolic().fronts.size()));
  EXPECT_EQ(rep.boosted_pivots, 0);
  EXPECT_EQ(rep.zero_pivot_fronts, 0);
  EXPECT_GT(rep.pivot_growth, 0.0);   // diagnostics actually ran
  EXPECT_LT(rep.pivot_growth, 1e3);   // diagonally dominant: tiny growth
  EXPECT_TRUE(solver.numeric().numerically_ok());
}

TEST(FactorReport, CountsBoostedPivotsOnSingularBlock) {
  // Block-diagonal: one rank-1 (singular) block among healthy blocks —
  // the batched factorization must contain the damage to that front.
  std::vector<std::tuple<int, int, double>> t;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) t.emplace_back(i, j, 1.0);  // singular
  for (int blk = 0; blk < 3; ++blk) {
    const int o = 2 + 2 * blk;  // healthy 2x2 blocks
    t.emplace_back(o, o, 4.0);
    t.emplace_back(o, o + 1, -1.0);
    t.emplace_back(o + 1, o, -1.0);
    t.emplace_back(o + 1, o + 1, 4.0);
  }
  const CsrMatrix a = CsrMatrix::from_triplets(8, t);
  Device dev(DeviceModel::a100());
  SolverOptions opts;
  opts.use_mc64 = false;  // keep the exact-zero pivot exact
  SparseDirectSolver solver(opts);
  solver.analyze(a);
  solver.factor(dev);
  const FactorReport& rep = solver.numeric().report();
  EXPECT_GE(rep.boosted_pivots, 1);
  EXPECT_EQ(rep.zero_pivot_fronts, 1);
  EXPECT_FALSE(solver.numeric().numerically_ok());

  // One bad front never poisons its siblings: the healthy blocks of the
  // (finite) solution still satisfy their equations.
  const auto b = random_rhs(8, 17);
  const SolveReport srep = solver.solve_report(b);
  EXPECT_NE(srep.status, SolveStatus::kFailed);
  ASSERT_TRUE(all_finite(srep.x));
  std::vector<double> r(8);
  a.multiply(srep.x.data(), r.data());
  for (int i = 2; i < 8; ++i)  // healthy rows only
    EXPECT_NEAR(r[static_cast<std::size_t>(i)],
                b[static_cast<std::size_t>(i)], 1e-8)
        << "healthy row " << i;
}

TEST(FactorReport, ColumnwisePanelPathAlsoBoosts) {
  std::vector<std::tuple<int, int, double>> t;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) t.emplace_back(i, j, 2.0);  // rank 1
  const CsrMatrix a = CsrMatrix::from_triplets(3, t);
  // 64 B of shared memory cannot hold the 3x3 front's fused panel.
  DeviceModel model = DeviceModel::a100();
  model.shared_mem_per_block = 64;
  Device dev(model);
  SolverOptions opts;
  opts.use_mc64 = false;
  SparseDirectSolver solver(opts);
  solver.analyze(a);
  solver.factor(dev);
  EXPECT_GE(solver.numeric().report().boosted_pivots, 1);
  EXPECT_FALSE(solver.numeric().numerically_ok());
  EXPECT_GE(dev.profile().count("irr_scal"), 1u);  // really columnwise
}

TEST(FactorReport, CondestTracksTrueInverseNorm) {
  const int k = 6, n = k * k;
  const CsrMatrix a = laplacian2d(k, k);
  Device dev(DeviceModel::a100());
  SolverOptions opts;
  opts.use_mc64 = false;  // A_prep is then just a symmetric permutation
  SparseDirectSolver solver(opts);
  solver.analyze(a);
  solver.factor(dev);

  // Exact ||A^{-1}||_1 by solving against every unit vector (1-norms are
  // invariant under the symmetric permutation analyze() applies).
  double exact = 0;
  for (int j = 0; j < n; ++j) {
    std::vector<double> e(static_cast<std::size_t>(n), 0.0);
    e[static_cast<std::size_t>(j)] = 1.0;
    const auto col = solver.solve(e);
    double s = 0;
    for (double v : col) s += std::abs(v);
    exact = std::max(exact, s);
  }
  const double exact_cond = a.norm_1() * exact;
  const double est = solver.numeric().condest_1();
  EXPECT_LE(est, exact_cond * (1 + 1e-10));  // Hager never overestimates
  EXPECT_GE(est, exact_cond * 0.3);          // ...and is a sharp bound here
  EXPECT_EQ(est, solver.numeric().condest_1());  // cached
}

TEST(FactorReport, CondestGrowsWithIllConditioning) {
  const int k = 8;
  Device dev1(DeviceModel::a100()), dev2(DeviceModel::a100());
  SparseDirectSolver well, ill;
  well.analyze(laplacian2d(k, k));
  well.factor(dev1);
  ill.analyze(laplacian2d(k, k, 1e-8 - lap2d_lambda_min(k)));
  ill.factor(dev2);
  EXPECT_LT(well.numeric().condest_1(), 1e4);
  EXPECT_GT(ill.numeric().condest_1(), 1e6);
}

TEST(FactorReport, SolveTransposeIsAdjointOfSolve) {
  const CsrMatrix a = laplacian2d(7, 9, -1.3);
  const int n = a.rows();
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  // <u, M v> == <M^T u, v> for the factored operator M = A_prep^{-1}.
  std::vector<double> u = random_rhs(n, 5), v = random_rhs(n, 6);
  std::vector<double> mv = v, mtu = u;
  solver.numeric().solve(mv);
  solver.numeric().solve_transpose(mtu);
  double lhs = 0, rhs = 0, scale = 0;
  for (int i = 0; i < n; ++i) {
    lhs += u[static_cast<std::size_t>(i)] * mv[static_cast<std::size_t>(i)];
    rhs += mtu[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
    scale += std::abs(u[static_cast<std::size_t>(i)] *
                      mv[static_cast<std::size_t>(i)]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-10 * std::max(1.0, scale));
}

// ------------------------------------------------------ solver regressions

TEST(SolverRegression, SolveFailsFastOnUnrecoveredZeroPivot) {
  // The historical silent-garbage path: numerically singular factor,
  // recovery disabled, old solve() returned NaN without complaint.
  Device dev(DeviceModel::a100());
  SolverOptions opts;
  opts.use_mc64 = false;
  opts.factor.pivot_tau = 0.0;  // no small-pivot recovery
  SparseDirectSolver solver(opts);
  solver.analyze(all_ones(6));
  solver.factor(dev);
  EXPECT_FALSE(solver.numeric().numerically_ok());

  const auto b = random_rhs(6, 23);
  const SolveReport rep = solver.solve_report(b);
  EXPECT_EQ(rep.status, SolveStatus::kFailed);
  EXPECT_FALSE(std::isfinite(rep.berr));
  EXPECT_THROW(solver.solve(b), irrlu::Error);
}

TEST(SolverRegression, Mc64FallbackDoesNotMutateOptions) {
  // A structurally singular matrix (zero values on row 1) makes MC64 fall
  // back; a later analyze() of a healthy matrix through the same solver
  // must still apply MC64 — the old code permanently flipped use_mc64.
  const CsrMatrix bad = CsrMatrix::from_triplets(
      3, {{0, 0, 1.0}, {1, 1, 0.0}, {1, 0, 0.0}, {2, 2, 2.0}});
  Device dev(DeviceModel::a100());  // outlives the solver's device buffers
  SparseDirectSolver solver;        // use_mc64 = true
  solver.analyze(bad);
  EXPECT_FALSE(solver.mc64_active());

  // Badly row-scaled healthy matrix: only detectable as "MC64 really ran"
  // because the unscaled path would still solve it — check the flag.
  solver.analyze(laplacian2d(5, 5));
  EXPECT_TRUE(solver.mc64_active());
  solver.factor(dev);
  const auto b = random_rhs(25, 31);
  const SolveReport rep = solver.solve_report(b);
  EXPECT_EQ(rep.status, SolveStatus::kConverged);
}

TEST(SolverRegression, ResidualVariantsAgreeOnContract) {
  const CsrMatrix a = laplacian2d(6, 6, -0.7);
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  const auto b = random_rhs(a.rows(), 41);
  const auto x = solver.solve(b);
  // Both small for a good solution; the componentwise one is the stricter
  // bound (per-row denominators never exceed the normwise one here).
  EXPECT_LT(solver.residual(x, b), 1e-12);
  EXPECT_LT(a.componentwise_residual(x.data(), b.data()), 1e-12);
  // The Oettli–Prager cap.
  EXPECT_LE(a.componentwise_residual(x.data(), b.data()), 1.0);
  // And the componentwise variant certifies garbage as non-finite.
  std::vector<double> nan_x(x.size(),
                            std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(
      std::isfinite(a.componentwise_residual(nan_x.data(), b.data())));
}

TEST(SolverRegression, ReportHistoryIsConsistent) {
  const CsrMatrix a = laplacian3d(4, 4, 4, -2.1);
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  const auto b = random_rhs(a.rows(), 57);
  const SolveReport rep = solver.solve_report(b);
  EXPECT_EQ(rep.status, SolveStatus::kConverged);
  EXPECT_TRUE(rep.ok());
  ASSERT_GE(rep.berr_history.size(), 1u);
  EXPECT_EQ(static_cast<int>(rep.berr_history.size()), rep.refine_steps + 1);
  // The returned berr is the best the loop saw.
  double best = rep.berr_history[0];
  for (double e : rep.berr_history) best = std::min(best, e);
  EXPECT_DOUBLE_EQ(rep.berr, best);
  EXPECT_LE(rep.berr, 1e-12);
}

TEST(SolverRegression, TraceCountersCarryRobustnessDiagnostics) {
  Device dev(DeviceModel::a100());
  irrlu::trace::Tracer tracer;
  dev.set_tracer(&tracer);
  SolverOptions opts;
  opts.use_mc64 = false;
  SparseDirectSolver solver(opts);
  solver.analyze(all_ones(5));
  solver.factor(dev);
  dev.set_tracer(nullptr);
  const auto& c = tracer.counters();
  ASSERT_TRUE(c.count("factor.boosted_pivots"));
  ASSERT_TRUE(c.count("factor.zero_pivot_fronts"));
  ASSERT_TRUE(c.count("factor.pivot_growth_max"));
  EXPECT_GE(c.at("factor.boosted_pivots"), 1.0);
  EXPECT_GE(c.at("factor.zero_pivot_fronts"), 1.0);
}

// ----------------------------------------------------- the failure envelope

/// Parameterized over the solve path: host reference sweep vs the
/// level-batched device kernels (solve_many) — the device path must
/// honor the exact same no-silent-garbage contract.
class RobustnessEnvelope : public ::testing::TestWithParam<bool> {
 protected:
  /// The acceptance-criteria contract: either converged to a tiny
  /// componentwise backward error, or a structured degraded/failed status;
  /// a non-failed report implies a finite solution.
  void check_contract(const SparseDirectSolver& solver,
                      const SolveReport& rep, const char* what) {
    switch (rep.status) {
      case SolveStatus::kConverged:
        EXPECT_TRUE(all_finite(rep.x)) << what;
        EXPECT_LE(rep.berr, 1e-12) << what;
        break;
      case SolveStatus::kDegraded:
        EXPECT_TRUE(all_finite(rep.x)) << what;
        EXPECT_TRUE(std::isfinite(rep.berr)) << what;
        EXPECT_LE(rep.berr, 1.0) << what;  // finite x => berr <= 1
        break;
      case SolveStatus::kFailed:
        // Structured failure — but it must be *reported*, and the factor
        // must have flagged trouble when recovery was off.
        EXPECT_FALSE(std::isfinite(rep.berr)) << what;
        break;
    }
    (void)solver;
  }

  SolveReport run(const CsrMatrix& a, const SolverOptions& base) {
    solver_.reset();  // the factor references dev_ — drop it first
    dev_ = std::make_unique<Device>(DeviceModel::a100());
    SolverOptions opts = base;
    opts.solve_on_device = GetParam();
    solver_ = std::make_unique<SparseDirectSolver>(opts);
    solver_->analyze(a);
    solver_->factor(*dev_);
    return solver_->solve_report(random_rhs(a.rows(), 4242));
  }

  // dev_ declared before solver_: the factor holds a Device& and must be
  // destroyed first.
  std::unique_ptr<Device> dev_;
  std::unique_ptr<SparseDirectSolver> solver_;
};

TEST_P(RobustnessEnvelope, SingularMatrixIsRecoveredOrFlagged) {
  // Boosting on (default): finite, degraded. Boosting off: clean failure.
  for (double tau : {1e-10, 0.0}) {
    SolverOptions opts;
    opts.use_mc64 = false;
    opts.factor.pivot_tau = tau;
    const SolveReport rep = run(all_ones(6), opts);
    check_contract(*solver_, rep, tau > 0 ? "boosted" : "unboosted");
    if (tau > 0) {
      EXPECT_NE(rep.status, SolveStatus::kFailed);
      EXPECT_GE(solver_->numeric().report().boosted_pivots, 1);
    } else {
      EXPECT_EQ(rep.status, SolveStatus::kFailed);
    }
    EXPECT_FALSE(solver_->numeric().numerically_ok());
  }
}

TEST_P(RobustnessEnvelope, IllConditioningSweepNeverReturnsGarbage) {
  // Shift the 2D Laplacian so its smallest eigenvalue is delta: condition
  // number ~ lambda_max / delta sweeps 1e2 .. 1e16.
  const int k = 10;
  const double lmin = lap2d_lambda_min(k);
  int converged = 0, cases = 0;
  for (double delta : {1e-1, 1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13, 1e-15}) {
    const CsrMatrix a = laplacian2d(k, k, delta - lmin);
    const SolveReport rep = run(a, SolverOptions{});
    char what[64];
    std::snprintf(what, sizeof what, "delta=%g", delta);
    check_contract(*solver_, rep, what);
    EXPECT_NE(rep.status, SolveStatus::kFailed) << what;
    ++cases;
    converged += rep.status == SolveStatus::kConverged;
  }
  // Refinement recovers full accuracy on most of the sweep; at minimum the
  // moderately conditioned half must converge outright.
  EXPECT_GE(converged, cases / 2);
}

TEST_P(RobustnessEnvelope, IndefiniteSystemConverges) {
  // Interior shift: indefinite (Helmholtz-like), far from any eigenvalue.
  const SolveReport rep = run(laplacian3d(5, 5, 5, -2.17), SolverOptions{});
  EXPECT_EQ(rep.status, SolveStatus::kConverged);
  EXPECT_LE(rep.berr, 1e-12);
}

TEST_P(RobustnessEnvelope, BadlyScaledSystemConverges) {
  // Rows and columns scaled over 16 orders of magnitude; MC64
  // equilibration plus refinement must still deliver full accuracy.
  const int k = 7, n = k * k;
  const CsrMatrix base = laplacian2d(k, k, -1.1);
  std::vector<double> d(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    d[static_cast<std::size_t>(i)] = std::pow(10.0, (i % 17) - 8);
  const CsrMatrix a = base.scaled(d, d);
  const SolveReport rep = run(a, SolverOptions{});
  check_contract(*solver_, rep, "badly scaled");
  EXPECT_EQ(rep.status, SolveStatus::kConverged);
}

INSTANTIATE_TEST_SUITE_P(HostAndDevicePaths, RobustnessEnvelope,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "DeviceSolve" : "HostSolve";
                         });
