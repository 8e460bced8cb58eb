// Unit tests for the single-matrix BLAS/LAPACK substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/cli.hpp"
#include "common/matrix_view.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "lapack/blas.hpp"
#include "lapack/flops.hpp"
#include "lapack/lapack.hpp"
#include "lapack/microkernel.hpp"
#include "lapack/verify.hpp"

namespace la = irrlu::la;
using irrlu::ConstMatrixView;
using irrlu::Matrix;
using irrlu::MatrixView;
using irrlu::Rng;

namespace {

// Naive reference gemm with explicit index arithmetic.
void ref_gemm(la::Trans ta, la::Trans tb, int m, int n, int k, double alpha,
              ConstMatrixView<double> a, ConstMatrixView<double> b,
              double beta, MatrixView<double> c) {
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double acc = 0;
      for (int p = 0; p < k; ++p) {
        const double av = ta == la::Trans::No ? a(i, p) : a(p, i);
        const double bv = tb == la::Trans::No ? b(p, j) : b(j, p);
        acc += av * bv;
      }
      c(i, j) = alpha * acc + beta * c(i, j);
    }
}

double max_diff(ConstMatrixView<double> a, ConstMatrixView<double> b) {
  double d = 0;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      d = std::max(d, std::abs(a(i, j) - b(i, j)));
  return d;
}

}  // namespace

TEST(Iamax, FindsFirstMaximum) {
  std::vector<double> x = {1.0, -5.0, 5.0, 2.0};
  EXPECT_EQ(la::iamax(4, x.data(), 1), 1);  // ties resolve to first
  EXPECT_EQ(la::iamax(0, x.data(), 1), -1);
  EXPECT_EQ(la::iamax(1, x.data(), 1), 0);
}

TEST(Iamax, LapackSemantics) {
  // Regression for the pre-engine implementation, which returned 0 for
  // empty inputs (ambiguous with "first element") and compared NaN
  // magnitudes with '>' (NaN never wins a '>', so pivots silently skipped
  // NaN-contaminated entries).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> x = {1.0, nan, 7.0, nan};
  EXPECT_EQ(la::iamax(4, x.data(), 1), 1);  // first NaN wins outright
  EXPECT_EQ(la::iamax(1, x.data() + 1, 1), 0);
  std::vector<double> y = {nan, 2.0};
  EXPECT_EQ(la::iamax(2, y.data(), 1), 0);
  // Invalid extents/strides: -1, the 0-based analog of LAPACK's 0.
  EXPECT_EQ(la::iamax(-3, x.data(), 1), -1);
  EXPECT_EQ(la::iamax(4, x.data(), 0), -1);
  EXPECT_EQ(la::iamax(4, x.data(), -1), -1);
  // Ties among equal magnitudes still resolve to the first occurrence.
  std::vector<double> z = {-3.0, 3.0, 3.0};
  EXPECT_EQ(la::iamax(3, z.data(), 1), 0);
  // Complex magnitudes go through std::abs.
  std::vector<std::complex<double>> c = {{3.0, 4.0}, {0.0, 5.0}, {6.0, 0.0}};
  EXPECT_EQ(la::iamax(3, c.data(), 1), 2);
}

TEST(Iamax, Strided) {
  std::vector<double> x = {1.0, 99.0, -3.0, 98.0, 2.0};
  EXPECT_EQ(la::iamax(3, x.data(), 2), 1);  // elements 1, -3, 2
}

TEST(Scal, Scales) {
  std::vector<double> x = {1, 2, 3};
  la::scal(3, 2.0, x.data(), 1);
  EXPECT_EQ(x, (std::vector<double>{2, 4, 6}));
}

TEST(Ger, MatchesManual) {
  Rng rng(1);
  Matrix<double> a(5, 4), a0(5, 4);
  rng.fill_uniform(a.view());
  a0 = a;
  std::vector<double> x(5), y(4);
  for (auto& v : x) v = rng.uniform();
  for (auto& v : y) v = rng.uniform();
  la::ger(5, 4, 2.0, x.data(), 1, y.data(), 1, a.data(), 5);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 5; ++i)
      EXPECT_NEAR(a(i, j), a0(i, j) + 2.0 * x[i] * y[j], 1e-14);
}

struct GemmCase {
  la::Trans ta, tb;
  int m, n, k;
};

class GemmParam : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParam, MatchesNaive) {
  const auto p = GetParam();
  Rng rng(42);
  const int ar = p.ta == la::Trans::No ? p.m : p.k;
  const int ac = p.ta == la::Trans::No ? p.k : p.m;
  const int br = p.tb == la::Trans::No ? p.k : p.n;
  const int bc = p.tb == la::Trans::No ? p.n : p.k;
  Matrix<double> a(ar, ac), b(br, bc), c(p.m, p.n), cref(p.m, p.n);
  rng.fill_uniform(a.view());
  rng.fill_uniform(b.view());
  rng.fill_uniform(c.view());
  cref = c;
  la::gemm(p.ta, p.tb, p.m, p.n, p.k, 1.7, a.data(), a.ld(), b.data(), b.ld(),
           -0.3, c.data(), c.ld());
  ref_gemm(p.ta, p.tb, p.m, p.n, p.k, 1.7, a.view(), b.view(), -0.3,
           cref.view());
  EXPECT_LT(max_diff(c.view(), cref.view()), 1e-12 * (p.k + 1));
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, GemmParam,
    ::testing::Values(
        GemmCase{la::Trans::No, la::Trans::No, 1, 1, 1},
        GemmCase{la::Trans::No, la::Trans::No, 7, 5, 3},
        GemmCase{la::Trans::No, la::Trans::No, 65, 70, 130},  // crosses tiles
        GemmCase{la::Trans::Yes, la::Trans::No, 13, 9, 17},
        GemmCase{la::Trans::No, la::Trans::Yes, 13, 9, 17},
        GemmCase{la::Trans::Yes, la::Trans::Yes, 13, 9, 17},
        GemmCase{la::Trans::No, la::Trans::No, 0, 5, 3},
        GemmCase{la::Trans::No, la::Trans::No, 5, 0, 3},
        GemmCase{la::Trans::No, la::Trans::No, 5, 5, 0}));

TEST(Gemm, BetaZeroOverwritesNaNs) {
  // beta == 0 must overwrite C even when it holds NaN (BLAS semantics).
  Matrix<double> a(2, 2), b(2, 2),
      c(2, 2, std::numeric_limits<double>::quiet_NaN());
  a(0, 0) = a(1, 1) = 1.0;
  b(0, 0) = 3.0;
  b(1, 1) = 4.0;
  la::gemm(la::Trans::No, la::Trans::No, 2, 2, 2, 1.0, a.data(), 2, b.data(),
           2, 0.0, c.data(), 2);
  EXPECT_DOUBLE_EQ(c(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 4.0);
}

struct TrsmCase {
  la::Side side;
  la::Uplo uplo;
  la::Trans trans;
  la::Diag diag;
  int m, n;
};

class TrsmParam : public ::testing::TestWithParam<TrsmCase> {};

TEST_P(TrsmParam, SolvesSystem) {
  const auto p = GetParam();
  Rng rng(7);
  const int ta = p.side == la::Side::Left ? p.m : p.n;
  Matrix<double> t(ta, ta);
  rng.fill_uniform(t.view());
  for (int i = 0; i < ta; ++i) t(i, i) += 4.0;  // well conditioned
  Matrix<double> b(p.m, p.n), x(p.m, p.n);
  rng.fill_uniform(b.view());
  x = b;
  la::trsm(p.side, p.uplo, p.trans, p.diag, p.m, p.n, 1.0, t.data(), t.ld(),
           x.data(), x.ld());
  const double err =
      p.side == la::Side::Left
          ? la::trsm_backward_error(p.uplo, p.trans, p.diag, t.view(),
                                    x.view(), b.view())
          : [&] {
              // Verify X*op(T) = B by checking each row as a left solve of
              // the transposed system.
              double worst = 0;
              for (int i = 0; i < p.m; ++i) {
                for (int j = 0; j < p.n; ++j) {
                  double acc = 0;
                  for (int q = 0; q < p.n; ++q) {
                    double e = p.trans == la::Trans::No ? t(q, j) : t(j, q);
                    bool in_tri =
                        (p.uplo == la::Uplo::Lower) ==
                                (p.trans == la::Trans::No)
                            ? (j <= q)
                            : (j >= q);
                    if (q == j)
                      e = p.diag == la::Diag::Unit ? 1.0 : e;
                    else if (!in_tri)
                      e = 0.0;
                    acc += x(i, q) * e;
                  }
                  worst = std::max(worst, std::abs(acc - b(i, j)));
                }
              }
              return worst;
            }();
  EXPECT_LT(err, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsmParam,
    ::testing::Values(
        TrsmCase{la::Side::Left, la::Uplo::Lower, la::Trans::No,
                 la::Diag::NonUnit, 17, 5},
        TrsmCase{la::Side::Left, la::Uplo::Lower, la::Trans::No,
                 la::Diag::Unit, 17, 5},
        TrsmCase{la::Side::Left, la::Uplo::Upper, la::Trans::No,
                 la::Diag::NonUnit, 17, 5},
        TrsmCase{la::Side::Left, la::Uplo::Lower, la::Trans::Yes,
                 la::Diag::NonUnit, 17, 5},
        TrsmCase{la::Side::Left, la::Uplo::Upper, la::Trans::Yes,
                 la::Diag::Unit, 17, 5},
        TrsmCase{la::Side::Right, la::Uplo::Lower, la::Trans::No,
                 la::Diag::NonUnit, 6, 11},
        TrsmCase{la::Side::Right, la::Uplo::Upper, la::Trans::No,
                 la::Diag::NonUnit, 6, 11},
        TrsmCase{la::Side::Right, la::Uplo::Upper, la::Trans::Yes,
                 la::Diag::NonUnit, 6, 11},
        TrsmCase{la::Side::Right, la::Uplo::Lower, la::Trans::Yes,
                 la::Diag::Unit, 6, 11},
        TrsmCase{la::Side::Left, la::Uplo::Lower, la::Trans::No,
                 la::Diag::NonUnit, 1, 1},
        TrsmCase{la::Side::Left, la::Uplo::Upper, la::Trans::No,
                 la::Diag::NonUnit, 0, 4}));

class GetrfParam : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GetrfParam, FactorsAccurately) {
  const auto [m, n] = GetParam();
  Rng rng(1234 + m * 131 + n);
  Matrix<double> a(m, n), a0(m, n);
  rng.fill_uniform(a.view());
  a0 = a;
  std::vector<int> ipiv(static_cast<std::size_t>(std::min(m, n)) + 1, -1);
  const int info = la::getrf(m, n, a.data(), a.ld(), ipiv.data(), 8);
  EXPECT_EQ(info, 0);
  for (int j = 0; j < std::min(m, n); ++j) {
    EXPECT_GE(ipiv[j], j);
    EXPECT_LT(ipiv[j], m);
  }
  EXPECT_LT(la::lu_residual(a.view(), ipiv.data(), a0.view()), 30.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GetrfParam,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 2},
                                           std::pair{7, 7}, std::pair{8, 8},
                                           std::pair{33, 33},
                                           std::pair{100, 100},
                                           std::pair{50, 20},
                                           std::pair{20, 50},
                                           std::pair{129, 64},
                                           std::pair{64, 129}));

TEST(Getrf, BlockedMatchesUnblocked) {
  Rng rng(5);
  const int m = 53, n = 41;
  Matrix<double> a(m, n), b(m, n);
  rng.fill_uniform(a.view());
  b = a;
  std::vector<int> pa(41), pb(41);
  la::getf2(m, n, a.data(), m, pa.data());
  la::getrf(m, n, b.data(), m, pb.data(), 8);
  EXPECT_EQ(pa, pb);
  EXPECT_LT(max_diff(a.view(), b.view()), 1e-13);
}

TEST(Getrf, SingularMatrixReportsInfo) {
  Matrix<double> a(3, 3, 0.0);  // all-zero matrix
  std::vector<int> ipiv(3);
  const int info = la::getf2(3, 3, a.data(), 3, ipiv.data());
  EXPECT_EQ(info, 1);  // first zero pivot at column 0 (1-based)
}

TEST(Getrs, SolvesBothTranspositions) {
  Rng rng(9);
  const int n = 37, nrhs = 3;
  Matrix<double> a(n, n), lu(n, n);
  rng.fill_uniform(a.view());
  for (int i = 0; i < n; ++i) a(i, i) += 2.0;
  lu = a;
  std::vector<int> ipiv(n);
  ASSERT_EQ(la::getrf(n, n, lu.data(), n, ipiv.data()), 0);

  for (la::Trans tr : {la::Trans::No, la::Trans::Yes}) {
    Matrix<double> x(n, nrhs), b(n, nrhs);
    rng.fill_uniform(b.view());
    x = b;
    la::getrs(tr, n, nrhs, lu.data(), n, ipiv.data(), x.data(), n);
    // Residual of op(A) x = b per column.
    for (int c = 0; c < nrhs; ++c) {
      double rmax = 0;
      for (int i = 0; i < n; ++i) {
        double acc = 0;
        for (int j = 0; j < n; ++j)
          acc += (tr == la::Trans::No ? a(i, j) : a(j, i)) * x(j, c);
        rmax = std::max(rmax, std::abs(acc - b(i, c)));
      }
      EXPECT_LT(rmax, 1e-10);
    }
  }
}

TEST(Trtri, InvertsTriangles) {
  Rng rng(11);
  for (la::Uplo uplo : {la::Uplo::Lower, la::Uplo::Upper}) {
    for (la::Diag diag : {la::Diag::NonUnit, la::Diag::Unit}) {
      const int n = 19;
      Matrix<double> t(n, n, 0.0);
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i) {
          const bool in = uplo == la::Uplo::Lower ? i >= j : i <= j;
          if (in) t(i, j) = rng.uniform(-1, 1);
        }
      for (int i = 0; i < n; ++i) t(i, i) = 2.0 + rng.uniform();
      Matrix<double> inv = t;
      ASSERT_EQ(la::trtri(uplo, diag, n, inv.data(), n), 0);
      // Check op(T) * inv(T) == I on the triangular part.
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i) {
          double acc = 0;
          for (int p = 0; p < n; ++p) {
            auto elem = [&](const Matrix<double>& mM, int r, int c) {
              const bool in = uplo == la::Uplo::Lower ? r >= c : r <= c;
              if (r == c) return diag == la::Diag::Unit ? 1.0 : mM(r, c);
              return in ? mM(r, c) : 0.0;
            };
            acc += elem(t, i, p) * elem(inv, p, j);
          }
          EXPECT_NEAR(acc, i == j ? 1.0 : 0.0, 1e-12);
        }
    }
  }
}

TEST(Trtri, SingularReturnsIndex) {
  Matrix<double> t(2, 2, 0.0);
  t(0, 0) = 1.0;  // t(1,1) == 0
  EXPECT_EQ(la::trtri(la::Uplo::Lower, la::Diag::NonUnit, 2, t.data(), 2), 2);
}

TEST(Laswp, ForwardThenBackwardIsIdentity) {
  Rng rng(3);
  const int m = 12, n = 5;
  Matrix<double> a(m, n), a0(m, n);
  rng.fill_uniform(a.view());
  a0 = a;
  std::vector<int> ipiv = {3, 1, 7, 3, 11, 5};
  la::laswp(n, a.data(), m, 0, 6, ipiv.data(), true);
  la::laswp(n, a.data(), m, 0, 6, ipiv.data(), false);
  EXPECT_EQ(max_diff(a.view(), a0.view()), 0.0);
}

TEST(Flops, MatchesPaperFormulaForSquare) {
  // Paper §III-B / §V-A: for square n, flops = 2n^3/3 - n^2/2 + 5n/6 + n^3/3
  // ... i.e. n*n^2 - n^3/3 - n^2/2 + 5n/6.
  for (int n : {1, 2, 10, 100}) {
    const double expect =
        static_cast<double>(n) * n * n - n * n * static_cast<double>(n) / 3.0 -
        n * static_cast<double>(n) / 2.0 + 5.0 * n / 6.0;
    EXPECT_DOUBLE_EQ(la::getrf_flops(n, n), expect);
  }
  EXPECT_DOUBLE_EQ(la::getrf_flops(1, 1), 1.0);  // degenerate but positive
  EXPECT_DOUBLE_EQ(la::gemm_flops(3, 4, 5), 120.0);
  EXPECT_DOUBLE_EQ(la::trsm_flops(4, 3), 48.0);
}

TEST(MatrixView, BlockIndexing) {
  Matrix<double> a(4, 4);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i) a(i, j) = i + 10 * j;
  auto blk = a.view().block(1, 2, 2, 2);
  EXPECT_EQ(blk(0, 0), 1 + 20);
  EXPECT_EQ(blk(1, 1), 2 + 30);
  EXPECT_EQ(blk.ld(), 4);
}

TEST(Cli, FlagParsing) {
  // Note the parser's documented greediness: "--flag value" binds the next
  // non-flag token as the value, so positionals go before flags (or use
  // "--flag=value").
  const char* argv[] = {"prog",          "pos1", "--alpha", "3",
                        "--verbose=yes", "--beta=2.5",      "--gamma"};
  irrlu::CliArgs args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(args.get_double("beta", 0), 2.5);
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_TRUE(args.get_bool("gamma"));
  EXPECT_FALSE(args.get_bool("missing"));
  EXPECT_EQ(args.get_int("missing", 9), 9);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(TextTable, AlignsColumns) {
  irrlu::TextTable t({"a", "bb"});
  t.add_row(1, "xyz");
  t.add_row("hello", 2.5);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("hello"), std::string::npos);
  EXPECT_NE(out.find("xyz"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(irrlu::TextTable::fmt(1.23456, 2), "1.23");
}

namespace {

template <typename T>
T test_value(irrlu::Rng& rng) {
  if constexpr (std::is_same_v<T, std::complex<double>>)
    return {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  else
    return static_cast<T>(rng.uniform(-1, 1));
}

template <typename T>
double abs_diff(T a, T b) {
  return std::abs(a - b);
}

/// Cross-checks the packed gemm engine against the retained naive
/// reference over the full ISSUE grid: all transpose combinations,
/// degenerate/edge/tile-crossing extents, all alpha/beta pairs, and a
/// non-tight leading dimension on every operand.
template <typename T>
void gemm_cross_check(const int* dims, int ndims, double tol) {
  irrlu::Rng rng(2024);
  const int pad = 3;  // non-tight lda/ldb/ldc
  for (la::Trans ta : {la::Trans::No, la::Trans::Yes})
    for (la::Trans tb : {la::Trans::No, la::Trans::Yes})
      for (int mi = 0; mi < ndims; ++mi)
        for (int ni = 0; ni < ndims; ++ni)
          for (int ki = 0; ki < ndims; ++ki) {
            const int m = dims[mi], n = dims[ni], k = dims[ki];
            const int ar = (ta == la::Trans::No ? m : k) + pad;
            const int ac = ta == la::Trans::No ? k : m;
            const int br = (tb == la::Trans::No ? k : n) + pad;
            const int bc = tb == la::Trans::No ? n : k;
            std::vector<T> a(static_cast<std::size_t>(ar) * std::max(ac, 1));
            std::vector<T> b(static_cast<std::size_t>(br) * std::max(bc, 1));
            std::vector<T> c0(static_cast<std::size_t>(m + pad) *
                              std::max(n, 1));
            for (auto& v : a) v = test_value<T>(rng);
            for (auto& v : b) v = test_value<T>(rng);
            for (auto& v : c0) v = test_value<T>(rng);
            for (T alpha : {T(0), T(1), T(-0.5)})
              for (T beta : {T(0), T(1), T(-0.5)}) {
                std::vector<T> c1 = c0, c2 = c0;
                la::gemm(ta, tb, m, n, k, alpha, a.data(), ar, b.data(), br,
                         beta, c1.data(), m + pad);
                la::ref::gemm(ta, tb, m, n, k, alpha, a.data(), ar, b.data(),
                              br, beta, c2.data(), m + pad);
                double d = 0;
                for (std::size_t i = 0; i < c1.size(); ++i)
                  d = std::max(d, abs_diff(c1[i], c2[i]));
                ASSERT_LT(d, tol * (k + 1))
                    << "ta=" << (ta == la::Trans::No ? "N" : "T")
                    << " tb=" << (tb == la::Trans::No ? "N" : "T")
                    << " m=" << m << " n=" << n << " k=" << k;
              }
          }
}

}  // namespace

TEST(GemmEngine, MatchesNaiveReferenceDouble) {
  const int dims[] = {0, 1, 7, 8, 9, 64, 65};
  gemm_cross_check<double>(dims, 7, 1e-13);
}

TEST(GemmEngine, MatchesNaiveReferenceComplex) {
  const int dims[] = {0, 1, 7, 9, 65};
  gemm_cross_check<std::complex<double>>(dims, 5, 1e-13);
}

// With small-integer A, B and C and alpha = +-1, every product and partial
// sum of k <= 333 terms is an integer below 2^24, exact in float, so the
// float engine must reproduce the double engine bit for bit whether or not
// the build fuses multiply-adds. Covers every transpose pair, odd shapes
// with padded leading dimensions, m and n through one float register tile
// plus one (full and edge tiles), and k past the float k-block (KC = 320).
TEST(PackedEngine, FloatMatchesDoubleOnExactInputs) {
  struct Shape {
    int m, n, k, ld;
  };
  std::vector<Shape> shapes{{24, 23, 21, 32}, {35, 16, 20, 35}};
  const la::mk::TileGeometry tile = la::mk::tile_geometry<float>();
  ASSERT_LT(tile.kc, 333);
  for (int m = 1; m <= tile.mr + 1; ++m)
    for (int n = 1; n <= tile.mr + 1; ++n) shapes.push_back({m, n, 333, 0});
  irrlu::Rng rng(321);
  auto small_int = [&] { return static_cast<double>(rng.uniform_int(-3, 3)); };
  for (la::Trans ta : {la::Trans::No, la::Trans::Yes})
    for (la::Trans tb : {la::Trans::No, la::Trans::Yes})
      for (const Shape& s : shapes) {
        const int ar = ta == la::Trans::No ? s.m : s.k;
        const int ac = ta == la::Trans::No ? s.k : s.m;
        const int br = tb == la::Trans::No ? s.k : s.n;
        const int bc = tb == la::Trans::No ? s.n : s.k;
        const int lda = std::max(ar, s.ld), ldb = std::max(br, s.ld);
        const int ldc = std::max(s.m, s.ld);
        std::vector<double> a(static_cast<std::size_t>(lda) * ac);
        std::vector<double> b(static_cast<std::size_t>(ldb) * bc);
        std::vector<double> c(static_cast<std::size_t>(ldc) * s.n);
        for (auto* v : {&a, &b, &c})
          for (double& x : *v) x = small_int();
        const std::vector<float> af(a.begin(), a.end());
        const std::vector<float> bf(b.begin(), b.end());
        for (double alpha : {1.0, -1.0}) {
          std::vector<double> cd = c;
          std::vector<float> cf(c.begin(), c.end());
          la::gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), lda, b.data(), ldb,
                   1.0, cd.data(), ldc);
          la::gemm(ta, tb, s.m, s.n, s.k, static_cast<float>(alpha),
                   af.data(), lda, bf.data(), ldb, 1.0f, cf.data(), ldc);
          for (std::size_t i = 0; i < cd.size(); ++i)
            ASSERT_EQ(static_cast<double>(cf[i]), cd[i])
                << "ta=" << la::to_string(ta) << " tb=" << la::to_string(tb)
                << " m=" << s.m << " n=" << s.n << " k=" << s.k
                << " alpha=" << alpha << " at " << i;
        }
      }
}

TEST(TrsmEngine, MatchesNaiveReference) {
  // The blocked trsm (diagonal substitution + packed GEMM updates) must
  // agree with the retained unblocked reference to rounding across every
  // side/uplo/trans/diag combination and across the blocking threshold.
  irrlu::Rng rng(77);
  for (la::Side side : {la::Side::Left, la::Side::Right})
    for (la::Uplo uplo : {la::Uplo::Lower, la::Uplo::Upper})
      for (la::Trans trans : {la::Trans::No, la::Trans::Yes})
        for (la::Diag diag : {la::Diag::NonUnit, la::Diag::Unit})
          for (int sz : {1, 7, 32, 33, 65}) {
            const int m = side == la::Side::Left ? sz : 11;
            const int n = side == la::Side::Left ? 11 : sz;
            const int ta = side == la::Side::Left ? m : n;
            const int ldt = ta + 2, ldb = m + 2;  // non-tight
            std::vector<double> t(static_cast<std::size_t>(ldt) * ta);
            for (auto& v : t) v = rng.uniform(-1, 1);
            for (int i = 0; i < ta; ++i)
              t[static_cast<std::size_t>(i) * ldt + i] += 4.0;
            std::vector<double> b0(static_cast<std::size_t>(ldb) * n);
            for (auto& v : b0) v = rng.uniform(-1, 1);
            std::vector<double> b1 = b0, b2 = b0;
            la::trsm(side, uplo, trans, diag, m, n, -0.5, t.data(), ldt,
                     b1.data(), ldb);
            la::ref::trsm(side, uplo, trans, diag, m, n, -0.5, t.data(), ldt,
                          b2.data(), ldb);
            double d = 0;
            for (std::size_t i = 0; i < b1.size(); ++i)
              d = std::max(d, std::abs(b1[i] - b2[i]));
            ASSERT_LT(d, 1e-12 * (sz + 10)) << "sz=" << sz;
          }
}

TEST(Gemv, BetaZeroOverwritesNaNs) {
  // beta == 0 must overwrite y even when it holds NaN (BLAS semantics) —
  // regression: the pre-engine gemv multiplied y by beta instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> a = {1.0, 0.0, 0.0, 1.0};  // 2x2 identity
  std::vector<double> x = {3.0, 4.0};
  for (la::Trans tr : {la::Trans::No, la::Trans::Yes}) {
    std::vector<double> y = {nan, nan};
    la::gemv(tr, 2, 2, 1.0, a.data(), 2, x.data(), 1, 0.0, y.data(), 1);
    EXPECT_DOUBLE_EQ(y[0], 3.0);
    EXPECT_DOUBLE_EQ(y[1], 4.0);
    std::vector<double> ys = {nan, nan, nan, nan};  // strided path too
    la::gemv(tr, 2, 2, 1.0, a.data(), 2, x.data(), 1, 0.0, ys.data(), 2);
    EXPECT_DOUBLE_EQ(ys[0], 3.0);
    EXPECT_DOUBLE_EQ(ys[2], 4.0);
  }
}

TEST(Trsv, ManyColumnsMatchOneColumnBitwise) {
  // Each column of a many-column solve must carry the bits of a
  // one-column solve on that column alone, for every triangle, transpose,
  // diagonal and stride, and for widths on either side of the interleave.
  const int m = 37, lda = 41, incx = 2, ldx = 80;
  Rng rng(17);
  std::vector<double> a(static_cast<std::size_t>(lda) * m);
  for (double& v : a) v = rng.uniform(-1, 1);
  for (int i = 0; i < m; ++i) a[static_cast<std::size_t>(i) * lda + i] = 4.0;
  for (la::Uplo uplo : {la::Uplo::Lower, la::Uplo::Upper})
    for (la::Trans trans : {la::Trans::No, la::Trans::Yes})
      for (la::Diag diag : {la::Diag::Unit, la::Diag::NonUnit})
        for (int nrhs : {1, 3, 8, 13}) {
          std::vector<double> x(static_cast<std::size_t>(ldx) * nrhs);
          for (double& v : x) v = rng.uniform(-1, 1);
          std::vector<double> many = x;
          la::trsv(uplo, trans, diag, m, a.data(), lda, many.data(), incx,
                   nrhs, ldx);
          for (int c = 0; c < nrhs; ++c) {
            std::vector<double> one(x.begin() + c * ldx,
                                    x.begin() + (c + 1) * ldx);
            la::trsv(uplo, trans, diag, m, a.data(), lda, one.data(), incx);
            EXPECT_EQ(std::memcmp(one.data(), many.data() + c * ldx,
                                  ldx * sizeof(double)),
                      0)
                << "nrhs " << nrhs << " column " << c;
          }
        }
}

TEST(Rng, DeterministicAcrossRuns) {
  irrlu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
    EXPECT_EQ(a.uniform(), b.uniform());
  }
}
