// Complex-arithmetic (Z) instantiation of the dense and irregular-batch
// layers — the paper states the target systems are A in C^{N x N}; this
// suite verifies the kernels are correct over std::complex<double>.
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "irrblas/irr_kernels.hpp"
#include "irrblas/vbatch.hpp"
#include "lapack/blas.hpp"
#include "lapack/lapack.hpp"

namespace la = irrlu::la;
using namespace irrlu::batch;
using cplx = std::complex<double>;
using irrlu::Rng;
using irrlu::gpusim::Device;
using irrlu::gpusim::DeviceModel;

namespace {

void fill_complex(irrlu::MatrixView<cplx> a, Rng& rng) {
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      a(i, j) = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
}

double residual_zgesv(irrlu::ConstMatrixView<cplx> a0, const cplx* x,
                      const cplx* b) {
  double rmax = 0, bmax = 0;
  for (int i = 0; i < a0.rows(); ++i) {
    cplx acc = 0;
    for (int j = 0; j < a0.cols(); ++j) acc += a0(i, j) * x[j];
    rmax = std::max(rmax, std::abs(b[i] - acc));
    bmax = std::max(bmax, std::abs(b[i]));
  }
  return bmax > 0 ? rmax / bmax : rmax;
}

}  // namespace

TEST(ComplexBlas, GemmAgainstNaive) {
  Rng rng(311);
  const int n = 23;
  irrlu::Matrix<cplx> a(n, n), b(n, n), c(n, n), cref(n, n);
  fill_complex(a.view(), rng);
  fill_complex(b.view(), rng);
  fill_complex(c.view(), rng);
  cref = c;
  const cplx alpha(1.2, -0.4), beta(0.3, 0.8);
  la::gemm(la::Trans::No, la::Trans::No, n, n, n, alpha, a.data(), n,
           b.data(), n, beta, c.data(), n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      cplx acc = 0;
      for (int p = 0; p < n; ++p) acc += a(i, p) * b(p, j);
      const cplx expect = alpha * acc + beta * cref(i, j);
      EXPECT_LT(std::abs(c(i, j) - expect), 1e-12);
    }
}

TEST(ComplexLapack, GetrfSolves) {
  Rng rng(313);
  const int n = 40;
  irrlu::Matrix<cplx> a(n, n), a0(n, n);
  fill_complex(a.view(), rng);
  a0 = a;
  std::vector<int> ipiv(static_cast<std::size_t>(n));
  ASSERT_EQ(la::getrf(n, n, a.data(), n, ipiv.data()), 0);
  std::vector<cplx> b(static_cast<std::size_t>(n)), x;
  for (auto& v : b) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  x = b;
  la::getrs(la::Trans::No, n, 1, a.data(), n, ipiv.data(), x.data(), n);
  EXPECT_LT(residual_zgesv(a0.view(), x.data(), b.data()), 1e-10);
}

TEST(ComplexIrrLu, FactorsAndSolvesIrregularBatch) {
  Device dev(DeviceModel::a100());
  Rng rng(317);
  const int bs = 15;
  auto n = rng.uniform_sizes(bs, 1, 70);
  VBatch<cplx> A(dev, n), A0(dev, n);
  for (int i = 0; i < bs; ++i) fill_complex(A.view(i), rng);
  A0.copy_from(A);
  PivotBatch piv(dev, n, n);
  irr_getrf<cplx>(dev, dev.stream(), 70, 70, A.ptrs(), A.lda(), 0, 0,
                  A.m_vec(), A.n_vec(), piv.ptrs(), piv.info(), bs);
  dev.synchronize_all();
  for (int i = 0; i < bs; ++i) {
    EXPECT_EQ(piv.info()[i], 0);
    const int ni = n[static_cast<std::size_t>(i)];
    std::vector<cplx> b(static_cast<std::size_t>(ni)), x;
    for (auto& v : b) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    x = b;
    la::getrs(la::Trans::No, ni, 1, A.view(i).data(), ni, piv.ipiv_of(i),
              x.data(), ni);
    EXPECT_LT(residual_zgesv(A0.view(i), x.data(), b.data()), 1e-8)
        << "matrix " << i << " n=" << ni;
  }
}

TEST(ComplexIrrTrsm, RecursiveSolve) {
  Device dev(DeviceModel::a100());
  Rng rng(337);
  const int bs = 10;
  auto tri = rng.uniform_sizes(bs, 1, 80);
  std::vector<int> rhs(static_cast<std::size_t>(bs), 6);
  VBatch<cplx> T(dev, tri, tri), B(dev, tri, rhs), B0(dev, tri, rhs);
  for (int i = 0; i < bs; ++i) {
    fill_complex(T.view(i), rng);
    for (int d = 0; d < tri[static_cast<std::size_t>(i)]; ++d)
      T.view(i)(d, d) += cplx(4.0, 1.0);
    fill_complex(B.view(i), rng);
  }
  B0.copy_from(B);
  irr_trsm<cplx>(dev, dev.stream(), la::Side::Left, la::Uplo::Lower,
                 la::Trans::No, la::Diag::NonUnit, 80, 6, cplx(1.0),
                 T.ptrs(), T.lda(), 0, 0, B.ptrs(), B.lda(), 0, 0,
                 B.m_vec(), B.n_vec(), bs);
  dev.synchronize_all();
  for (int i = 0; i < bs; ++i) {
    const int ni = tri[static_cast<std::size_t>(i)];
    for (int c = 0; c < 6; ++c) {
      double rmax = 0, bmax = 0;
      for (int r = 0; r < ni; ++r) {
        cplx acc = 0;
        for (int k = 0; k <= r; ++k) acc += T.view(i)(r, k) * B.view(i)(k, c);
        rmax = std::max(rmax, std::abs(acc - B0.view(i)(r, c)));
        bmax = std::max(bmax, std::abs(B0.view(i)(r, c)));
      }
      EXPECT_LT(rmax / (bmax + 1e-300), 1e-10) << "matrix " << i;
    }
  }
}
