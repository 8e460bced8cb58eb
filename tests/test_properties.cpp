// Cross-cutting property and fuzz tests: randomized sweeps that pit the
// irregular-batch kernels, the orderings, and the sparse pipeline against
// brute-force references over many configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "irrblas/irr_kernels.hpp"
#include "irrblas/vbatch.hpp"
#include "lapack/blas.hpp"
#include "lapack/lapack.hpp"
#include "lapack/verify.hpp"
#include "ordering/bisection.hpp"
#include "ordering/graph.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/csr.hpp"
#include "sparse/solver.hpp"
#include "helpers.hpp"

namespace la = irrlu::la;
using namespace irrlu::batch;
using irrlu::Matrix;
using irrlu::Rng;
using irrlu::gpusim::Device;
using irrlu::gpusim::DeviceModel;
using irrlu::test::csr_entry;
namespace ord = irrlu::ordering;
namespace sp = irrlu::sparse;

// ----------------------------------------------------- TRSM: all 16 combos

struct TrsmCombo {
  la::Side side;
  la::Uplo uplo;
  la::Trans trans;
  la::Diag diag;
};

class TrsmAll16 : public ::testing::TestWithParam<TrsmCombo> {};

TEST_P(TrsmAll16, IrrMatchesReference) {
  const auto p = GetParam();
  Device dev(DeviceModel::a100());
  Rng rng(211);
  const int bs = 10;
  auto tri = rng.uniform_sizes(bs, 1, 70);
  auto rhs = rng.uniform_sizes(bs, 1, 30);
  const auto& bm = p.side == la::Side::Left ? tri : rhs;
  const auto& bn = p.side == la::Side::Left ? rhs : tri;
  VBatch<double> T(dev, tri, tri), B(dev, bm, bn), Bref(dev, bm, bn);
  T.fill_uniform(rng);
  for (int i = 0; i < bs; ++i)
    for (int d = 0; d < tri[static_cast<std::size_t>(i)]; ++d)
      T.view(i)(d, d) += 4.0;
  B.fill_uniform(rng);
  Bref.copy_from(B);
  const int mreq = p.side == la::Side::Left ? 70 : 30;
  const int nreq = p.side == la::Side::Left ? 30 : 70;
  irr_trsm<double>(dev, dev.stream(), p.side, p.uplo, p.trans, p.diag, mreq,
                   nreq, -1.5, T.ptrs(), T.lda(), 0, 0, B.ptrs(), B.lda(), 0,
                   0, B.m_vec(), B.n_vec(), bs);
  dev.synchronize_all();
  double worst = 0;
  for (int i = 0; i < bs; ++i) {
    la::trsm(p.side, p.uplo, p.trans, p.diag, Bref.view(i).rows(),
             Bref.view(i).cols(), -1.5, T.view(i).data(), T.view(i).ld(),
             Bref.view(i).data(), Bref.view(i).ld());
    for (int c = 0; c < Bref.view(i).cols(); ++c)
      for (int r = 0; r < Bref.view(i).rows(); ++r)
        worst = std::max(worst,
                         std::abs(B.view(i)(r, c) - Bref.view(i)(r, c)));
  }
  EXPECT_LT(worst, 1e-8);
}

static std::vector<TrsmCombo> all16() {
  std::vector<TrsmCombo> v;
  for (auto s : {la::Side::Left, la::Side::Right})
    for (auto u : {la::Uplo::Lower, la::Uplo::Upper})
      for (auto t : {la::Trans::No, la::Trans::Yes})
        for (auto d : {la::Diag::NonUnit, la::Diag::Unit})
          v.push_back({s, u, t, d});
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TrsmAll16, ::testing::ValuesIn(all16()));

// -------------------------------------------- LU fuzz across distributions

TEST(LuFuzz, ManyRandomDistributions) {
  Device dev(DeviceModel::a100());
  Rng rng(223);
  for (int trial = 0; trial < 25; ++trial) {
    const int bs = rng.uniform_int(1, 40);
    const int lo = rng.uniform_int(0, 5);
    const int hi = rng.uniform_int(lo + 1, 100);
    std::vector<int> m(static_cast<std::size_t>(bs)),
        n(static_cast<std::size_t>(bs));
    for (int i = 0; i < bs; ++i) {
      m[static_cast<std::size_t>(i)] = rng.uniform_int(lo, hi);
      n[static_cast<std::size_t>(i)] =
          rng.uniform_int(0, 1) ? m[static_cast<std::size_t>(i)]
                                : rng.uniform_int(lo, hi);
    }
    VBatch<double> A(dev, m, n), A0(dev, m, n);
    A.fill_uniform(rng);
    A0.copy_from(A);
    PivotBatch piv(dev, m, n);
    IrrLuOptions opts;
    opts.nb = rng.uniform_int(1, 48);
    opts.laswp = rng.uniform_int(0, 1) ? LaswpMethod::kLooped
                                       : LaswpMethod::kRehearsal;
    const int mreq = *std::max_element(m.begin(), m.end());
    const int nreq = *std::max_element(n.begin(), n.end());
    if (std::min(mreq, nreq) == 0) continue;
    irr_getrf<double>(dev, dev.stream(), mreq, nreq, A.ptrs(), A.lda(), 0,
                      0, A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(), bs,
                      opts);
    dev.synchronize_all();
    for (int i = 0; i < bs; ++i) {
      if (std::min(m[static_cast<std::size_t>(i)],
                   n[static_cast<std::size_t>(i)]) == 0)
        continue;
      ASSERT_LT(la::lu_residual(A.view(i), piv.ipiv_of(i), A0.view(i)),
                100.0)
          << "trial " << trial << " matrix " << i << " ("
          << m[static_cast<std::size_t>(i)] << "x"
          << n[static_cast<std::size_t>(i)] << ") nb=" << opts.nb;
    }
  }
}

// ------------------------------------------------ laswp_range verification

TEST(LaswpRange, MatchesManualSwaps) {
  Device dev(DeviceModel::a100());
  Rng rng(227);
  const int bs = 8;
  auto rows = rng.uniform_sizes(bs, 4, 40);
  auto cols = rng.uniform_sizes(bs, 1, 20);
  VBatch<double> A(dev, rows, cols), R(dev, rows, cols);
  A.fill_uniform(rng);
  R.copy_from(A);
  // Pivot counts: min(4, rows).
  std::vector<int> pivn(static_cast<std::size_t>(bs));
  for (int i = 0; i < bs; ++i)
    pivn[static_cast<std::size_t>(i)] =
        std::min(4, rows[static_cast<std::size_t>(i)]);
  PivotBatch piv(dev, rows, rows);
  for (int i = 0; i < bs; ++i) {
    int* ip = const_cast<int*>(piv.ipiv_of(i));
    for (int r = 0; r < pivn[static_cast<std::size_t>(i)]; ++r)
      ip[r] = rng.uniform_int(r, rows[static_cast<std::size_t>(i)] - 1);
  }
  auto d_pivn = dev.alloc<int>(static_cast<std::size_t>(bs));
  for (int i = 0; i < bs; ++i) d_pivn[i] = pivn[static_cast<std::size_t>(i)];
  irr_laswp_range<double>(dev, dev.stream(), 0, 4, 20, A.ptrs(), A.lda(), 0,
                          d_pivn.data(), A.n_vec(),
                          const_cast<int const* const*>(piv.ptrs()), bs);
  dev.synchronize_all();
  for (int i = 0; i < bs; ++i) {
    auto r = R.view(i);
    for (int p = 0; p < pivn[static_cast<std::size_t>(i)]; ++p) {
      const int t = piv.ipiv_of(i)[p];
      if (t != p)
        la::swap(r.cols(), r.data() + p, r.ld(), r.data() + t, r.ld());
    }
    for (int c = 0; c < r.cols(); ++c)
      for (int rr = 0; rr < r.rows(); ++rr)
        ASSERT_EQ(A.view(i)(rr, c), r(rr, c)) << "matrix " << i;
  }
}

// ------------------------------------------------- ordering random graphs

TEST(OrderingFuzz, RandomGraphsProduceValidSeparators) {
  Rng rng(229);
  for (int trial = 0; trial < 10; ++trial) {
    // Random sparse graph: n vertices, ~3n edges.
    const int n = rng.uniform_int(20, 300);
    std::vector<std::tuple<int, int, double>> t;
    for (int e = 0; e < 3 * n; ++e) {
      const int i = rng.uniform_int(0, n - 1);
      const int j = rng.uniform_int(0, n - 1);
      if (i != j) {
        t.emplace_back(i, j, 1.0);
        t.emplace_back(j, i, 1.0);
      }
    }
    for (int i = 0; i < n; ++i) t.emplace_back(i, i, 1.0);
    const sp::CsrMatrix a = sp::CsrMatrix::from_triplets(n, t);
    const ord::Graph g =
        ord::Graph::from_pattern(n, a.ptr().data(), a.ind().data());
    const ord::Bisection b = ord::bisect(g);
    for (int v = 0; v < n; ++v)
      for (int k = g.ptr()[static_cast<std::size_t>(v)];
           k < g.ptr()[static_cast<std::size_t>(v) + 1]; ++k) {
        const int u = g.adj()[static_cast<std::size_t>(k)];
        if (b.side[static_cast<std::size_t>(v)] != 2 &&
            b.side[static_cast<std::size_t>(u)] != 2) {
          ASSERT_EQ(b.side[static_cast<std::size_t>(v)],
                    b.side[static_cast<std::size_t>(u)])
              << "trial " << trial;
        }
      }
    const ord::Ordering o = ord::nested_dissection(g);
    ASSERT_TRUE(ord::is_permutation(o.perm, n)) << "trial " << trial;
  }
}

// ------------------------------------------------------ solver end-to-end

TEST(SolverFuzz, RandomSparseSystems) {
  Rng rng(233);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = rng.uniform_int(30, 250);
    std::vector<std::tuple<int, int, double>> t;
    for (int e = 0; e < 4 * n; ++e) {
      const int i = rng.uniform_int(0, n - 1);
      const int j = rng.uniform_int(0, n - 1);
      t.emplace_back(i, j, rng.uniform(-1, 1));
    }
    for (int i = 0; i < n; ++i) t.emplace_back(i, i, 8.0 + rng.uniform());
    const sp::CsrMatrix a = sp::CsrMatrix::from_triplets(n, t);
    Device dev(DeviceModel::a100());
    sp::SparseDirectSolver solver;
    solver.analyze(a);
    solver.factor(dev);
    ASSERT_TRUE(solver.numeric().numerically_ok()) << "trial " << trial;
    std::vector<double> b(static_cast<std::size_t>(n));
    for (auto& v : b) v = rng.uniform(-1, 1);
    const auto x = solver.solve(b);
    ASSERT_LT(solver.residual(x, b), 1e-11) << "trial " << trial;
  }
}

// ------------------------------------- packed-engine bit stability

TEST(PackedEngine, BitStableAcrossReusedBuffers) {
  // The micro-kernel engine reuses thread-local packing buffers across
  // calls. Repeated identical calls must be bit-identical even when
  // differently-shaped calls run in between and leave the buffers dirty
  // (stale panel contents or padding must never leak into a result).
  Rng rng(241);
  const int m = 67, n = 45, k = 83, lda = m + 3;
  std::vector<double> a(static_cast<std::size_t>(lda) * k),
      b(static_cast<std::size_t>(k) * n), c0(static_cast<std::size_t>(m) * n);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto& v : c0) v = rng.uniform(-1, 1);

  auto run_gemm = [&](la::Trans ta) {
    std::vector<double> c = c0;
    la::gemm(ta, la::Trans::No, m, n, k, 1.5, a.data(),
             ta == la::Trans::No ? lda : k, b.data(), k, -0.25, c.data(), m);
    return c;
  };
  // Odd-shaped interference calls that dirty the pack buffers (edge
  // panels, different element type, transposed packing).
  auto interfere = [&] {
    std::vector<double> ia(9 * 9, 0.75), ic(9 * 9, 0.0);
    la::gemm(la::Trans::Yes, la::Trans::Yes, 9, 9, 9, 2.0, ia.data(), 9,
             ia.data(), 9, 0.0, ic.data(), 9);
    std::vector<std::complex<double>> za(5 * 5, {1.0, -1.0}), zc(5 * 5);
    la::gemm(la::Trans::No, la::Trans::Yes, 5, 5, 5, std::complex<double>(1),
             za.data(), 5, za.data(), 5, std::complex<double>(0), zc.data(),
             5);
  };

  for (la::Trans ta : {la::Trans::No, la::Trans::Yes}) {
    const auto first = run_gemm(ta);
    for (int rep = 0; rep < 3; ++rep) {
      interfere();
      const auto again = run_gemm(ta);
      ASSERT_EQ(0, std::memcmp(first.data(), again.data(),
                               first.size() * sizeof(double)))
          << "gemm not bit-stable, trans="
          << (ta == la::Trans::No ? "N" : "T") << " rep=" << rep;
    }
  }

  // Same property for the blocked trsm, whose GEMM updates go through the
  // packed engine.
  const int tri = 65;
  std::vector<double> t(static_cast<std::size_t>(tri) * tri);
  for (auto& v : t) v = rng.uniform(-1, 1);
  for (int i = 0; i < tri; ++i)
    t[static_cast<std::size_t>(i) * tri + i] += 4.0;
  std::vector<double> rhs0(static_cast<std::size_t>(tri) * 7);
  for (auto& v : rhs0) v = rng.uniform(-1, 1);
  auto run_trsm = [&] {
    std::vector<double> x = rhs0;
    la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::Yes,
             la::Diag::NonUnit, tri, 7, 1.0, t.data(), tri, x.data(), tri);
    return x;
  };
  const auto tfirst = run_trsm();
  for (int rep = 0; rep < 3; ++rep) {
    interfere();
    const auto tagain = run_trsm();
    ASSERT_EQ(0, std::memcmp(tfirst.data(), tagain.data(),
                             tfirst.size() * sizeof(double)))
        << "trsm not bit-stable, rep=" << rep;
  }
}

// ------------------------------------------- CSR ops against dense mirror

TEST(CsrFuzz, TransformsMatchDenseMirror) {
  Rng rng(239);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = rng.uniform_int(3, 30);
    Matrix<double> dense(n, n, 0.0);
    std::vector<std::tuple<int, int, double>> t;
    for (int e = 0; e < 4 * n; ++e) {
      const int i = rng.uniform_int(0, n - 1);
      const int j = rng.uniform_int(0, n - 1);
      const double v = rng.uniform(-2, 2);
      t.emplace_back(i, j, v);
      dense(i, j) += v;
    }
    const sp::CsrMatrix a = sp::CsrMatrix::from_triplets(n, t);
    // Random scaling + symmetric permutation, mirrored densely.
    std::vector<double> dr(static_cast<std::size_t>(n)),
        dc(static_cast<std::size_t>(n));
    for (auto& v : dr) v = rng.uniform(0.5, 2.0);
    for (auto& v : dc) v = rng.uniform(0.5, 2.0);
    std::vector<int> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng.engine());
    const sp::CsrMatrix s = a.scaled(dr, dc).permute_symmetric(perm);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        const int oi = perm[static_cast<std::size_t>(i)];
        const int oj = perm[static_cast<std::size_t>(j)];
        ASSERT_NEAR(csr_entry(s, i, j),
                    dr[static_cast<std::size_t>(oi)] * dense(oi, oj) *
                        dc[static_cast<std::size_t>(oj)],
                    1e-13)
            << "trial " << trial;
      }
  }
}
