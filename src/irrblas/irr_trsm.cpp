// irrTRSM (paper §IV-D): recursive triangular solve over a non-uniform
// batch, performed *in place* and by true substitution (no explicit
// inversion of diagonal blocks, unlike the MAGMA-2.6.1 routine the paper
// improves on — see refbatch::InvTrsm for that baseline).
//
// The host drives the recursion on the *required* triangle order; the
// offset-carrying interface means each recursion level is just more
// irr_trsm / irr_gemm launches with shifted offsets, and DCWI retires the
// matrices whose local triangles are already fully solved. No workspaces,
// no pointer arithmetic kernels, fully asynchronous.
#include <algorithm>
#include <complex>

#include "irrblas/dcwi.hpp"
#include "irrblas/irr_kernels.hpp"
#include "lapack/blas.hpp"
#include "lapack/flops.hpp"

namespace irrlu::batch {

namespace {

/// Base-case triangle order: as large as the staged triangle allows. The
/// FP64 cap stays at 32 — that is the baseline schedule the fig10 sweep
/// pins — while narrow types may stage a 64-order triangle in the same
/// shared-memory budget (64*64 FP32 = 16 KiB), halving the recursion
/// depth and so the launch count of small-front solves (DESIGN.md §14).
template <typename T>
int trsm_base_size(const gpusim::DeviceModel& model) {
  const std::initializer_list<int> wide = {32, 16, 8};
  const std::initializer_list<int> narrow = {64, 32, 16, 8};
  for (int b : sizeof(T) < sizeof(double) ? narrow : wide) {
    if (static_cast<std::size_t>(b) * b * sizeof(T) +
            2 * alignof(std::max_align_t) <=
        model.shared_mem_per_block)
      return b;
  }
  return 4;
}

/// Base kernel: one block per matrix; stages the (<= 32 x 32) effective
/// triangle in shared memory and substitutes directly into B in global
/// memory.
template <typename T>
void trsm_base(gpusim::Device& dev, gpusim::Stream& stream, la::Side side,
               la::Uplo uplo, la::Trans trans, la::Diag diag, int m, int n,
               T alpha, T const* const* dT_array, const int* lddt, int Ti,
               int Tj, T* const* dB_array, const int* lddb, int Bi, int Bj,
               const int* m_vec, const int* n_vec, int batch_size) {
  const int base = trsm_base_size<T>(dev.model());
  const gpusim::LaunchConfig cfg{
      "irr_trsm_base", batch_size,
      static_cast<std::size_t>(base) * base * sizeof(T) +
          2 * alignof(std::max_align_t),
      gpusim::kIndependentBlocks};
  dev.launch(stream, cfg, [=](gpusim::BlockCtx& ctx) {
    const int id = ctx.block();
    const TrsmWork w =
        dcwi_trsm(side, m, n, Ti, Tj, Bi, Bj, m_vec[id], n_vec[id]);
    if (w.none()) return;
    const int tri = side == la::Side::Left ? w.m : w.n;
    const int ldt = lddt[id], ldb = lddb[id];
    const T* Tp = dT_array[id] + static_cast<std::ptrdiff_t>(Tj) * ldt + Ti;
    T* Bp = dB_array[id] + static_cast<std::ptrdiff_t>(Bj) * ldb + Bi;

    // Substitute directly against the global triangle; la::trsm is
    // ld-independent, so the result is bitwise what the former
    // shared-memory staging produced. The LaunchConfig still charges the
    // staging footprint, so simulated time is unchanged.
    la::trsm(side, uplo, trans, diag, w.m, w.n, alpha, Tp, ldt, Bp, ldb);

    ctx.record(la::trsm_flops(tri, side == la::Side::Left ? w.n : w.m) *
                   la::flop_weight<T>,
               (0.5 * tri * tri + 2.0 * w.m * w.n) * sizeof(T));
  });
}

/// Splits the triangle order for the recursion: the smallest multiple of
/// `base` that is >= half (keeps the base kernels full-width).
int split_point(int tri, int base) {
  int half = (tri + 1) / 2;
  int s = (half + base - 1) / base * base;
  if (s >= tri) s = tri - base;
  return std::max(s, base);
}

}  // namespace

template <typename T>
void irr_trsm(gpusim::Device& dev, gpusim::Stream& stream, la::Side side,
              la::Uplo uplo, la::Trans trans, la::Diag diag, int m, int n,
              T alpha, T const* const* dT_array, const int* lddt, int Ti,
              int Tj, T* const* dB_array, const int* lddb, int Bi, int Bj,
              const int* m_vec, const int* n_vec, int batch_size) {
  if (batch_size <= 0 || m <= 0 || n <= 0) return;
  const int tri = side == la::Side::Left ? m : n;
  const int base = trsm_base_size<T>(dev.model());
  if (tri <= base) {
    trsm_base(dev, stream, side, uplo, trans, diag, m, n, alpha, dT_array,
              lddt, Ti, Tj, dB_array, lddb, Bi, Bj, m_vec, n_vec, batch_size);
    return;
  }
  const int t1 = split_point(tri, base);
  const int t2 = tri - t1;

  // Recursion helpers with shifted offsets. "first" solves the t1 block,
  // "second" the t2 block; `upd` is the connecting GEMM with beta = alpha
  // so that the not-yet-solved part of B is scaled exactly once.
  auto solve = [&](int tm, int tn, int ti, int tj, int bi, int bj, T a) {
    irr_trsm(dev, stream, side, uplo, trans, diag, tm, tn, a, dT_array, lddt,
             Ti + ti, Tj + tj, dB_array, lddb, Bi + bi, Bj + bj, m_vec, n_vec,
             batch_size);
  };
  auto update = [&](la::Trans ta, la::Trans tb, int gm, int gn, int gk,
                    int ai, int aj, int bi, int bj, int ci, int cj,
                    const int* kv_m, const int* kv_n) {
    // Operands: for Side::Left A = T-block, B = solved B-block;
    // for Side::Right A = solved B-block, B = T-block.
    if (side == la::Side::Left) {
      irr_gemm(dev, stream, ta, tb, gm, gn, gk, T(-1), dT_array, lddt,
               Ti + ai, Tj + aj,
               const_cast<T const* const*>(dB_array), lddb, Bi + bi, Bj + bj,
               alpha, dB_array, lddb, Bi + ci, Bj + cj, kv_m, kv_n, kv_m,
               batch_size);
    } else {
      irr_gemm(dev, stream, ta, tb, gm, gn, gk, T(-1),
               const_cast<T const* const*>(dB_array), lddb, Bi + ai, Bj + aj,
               dT_array, lddt, Ti + bi, Tj + bj, alpha, dB_array, lddb,
               Bi + ci, Bj + cj, kv_m, kv_n, kv_n, batch_size);
    }
  };

  if (side == la::Side::Left) {
    const bool lower_effective = (uplo == la::Uplo::Lower) ==
                                 (trans == la::Trans::No);
    if (lower_effective) {
      // Solve top block first, update bottom, solve bottom.
      solve(t1, n, 0, 0, 0, 0, alpha);
      if (trans == la::Trans::No) {
        // B2 = alpha B2 - T21 * X1, T21 at (t1, 0).
        update(la::Trans::No, la::Trans::No, t2, n, t1, t1, 0, 0, 0, t1, 0,
               m_vec, n_vec);
      } else {
        // op(T)21 = T12^T, T12 at (0, t1).
        update(trans, la::Trans::No, t2, n, t1, 0, t1, 0, 0, t1, 0, m_vec,
               n_vec);
      }
      solve(t2, n, t1, t1, t1, 0, T(1));
    } else {
      // Effective upper triangle: solve bottom first.
      solve(t2, n, t1, t1, t1, 0, alpha);
      if (trans == la::Trans::No) {
        // B1 = alpha B1 - T12 * X2, T12 at (0, t1).
        update(la::Trans::No, la::Trans::No, t1, n, t2, 0, t1, t1, 0, 0, 0,
               m_vec, n_vec);
      } else {
        // op(T)12 = T21^T, T21 at (t1, 0).
        update(trans, la::Trans::No, t1, n, t2, t1, 0, t1, 0, 0, 0, m_vec,
               n_vec);
      }
      solve(t1, n, 0, 0, 0, 0, T(1));
    }
  } else {
    // Side::Right: the triangle aligns with the columns of B.
    const bool lower_effective = (uplo == la::Uplo::Lower) ==
                                 (trans == la::Trans::No);
    if (lower_effective) {
      // X op(T) = B with op(T) lower: right-most columns first.
      solve(m, t2, t1, t1, 0, t1, alpha);
      if (trans == la::Trans::No) {
        // B1 = alpha B1 - X2 * T21, T21 at (t1, 0).
        update(la::Trans::No, la::Trans::No, m, t1, t2, 0, t1, t1, 0, 0, 0,
               m_vec, n_vec);
      } else {
        // op(T)21 = T12^T, T12 at (0, t1).
        update(la::Trans::No, trans, m, t1, t2, 0, t1, 0, t1, 0, 0, m_vec,
               n_vec);
      }
      solve(m, t1, 0, 0, 0, 0, T(1));
    } else {
      // op(T) upper: left-most columns first.
      solve(m, t1, 0, 0, 0, 0, alpha);
      if (trans == la::Trans::No) {
        // B2 = alpha B2 - X1 * T12, T12 at (0, t1).
        update(la::Trans::No, la::Trans::No, m, t2, t1, 0, 0, 0, t1, 0, t1,
               m_vec, n_vec);
      } else {
        // op(T)12 = T21^T, T21 at (t1, 0).
        update(la::Trans::No, trans, m, t2, t1, 0, 0, t1, 0, 0, t1, m_vec,
               n_vec);
      }
      solve(m, t2, t1, t1, 0, t1, T(1));
    }
  }
}

#define IRRLU_INSTANTIATE_IRRTRSM(T)                                         \
  template void irr_trsm<T>(gpusim::Device&, gpusim::Stream&, la::Side,      \
                            la::Uplo, la::Trans, la::Diag, int, int, T,      \
                            T const* const*, const int*, int, int,           \
                            T* const*, const int*, int, int, const int*,     \
                            const int*, int);

IRRLU_INSTANTIATE_IRRTRSM(float)
IRRLU_INSTANTIATE_IRRTRSM(double)
IRRLU_INSTANTIATE_IRRTRSM(std::complex<double>)

#undef IRRLU_INSTANTIATE_IRRTRSM

}  // namespace irrlu::batch
