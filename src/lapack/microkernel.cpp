#include "lapack/microkernel.hpp"

#include <algorithm>
#include <complex>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <vector>

namespace irrlu::la::mk {

namespace {

// Vector register width of the ISA this file is compiled for (the tile
// geometry table in the header).
#if defined(__AVX512F__)
constexpr int kVecBytes = 64;
#elif defined(__AVX__)
constexpr int kVecBytes = 32;
#else
constexpr int kVecBytes = 16;
#endif

/// Accumulator registers per tile: enough independent multiply-add chains
/// to hide FMA latency, and few enough to leave registers for the A column
/// and the B broadcast on 16-register ISAs.
constexpr int kAccRegs = 8;

/// Tile rows: one vector register, and at least 8. Taller tiles pad the
/// 24-row leaf-front GEMMs to 32 rows (a 16-float column lost up to 12%
/// there on SSE2 and AVX2); shorter ones starve each B broadcast (a 4x4
/// double tile ran 11% slower than 8x2 on SSE2).
template <typename T>
constexpr int tile_mr() {
  return std::max(8, kVecBytes / static_cast<int>(sizeof(T)));
}

/// Tile columns that keep the tile at kAccRegs registers.
template <typename T>
constexpr int tile_nr() {
  return kAccRegs * (kVecBytes / static_cast<int>(sizeof(T))) / tile_mr<T>();
}

// MR, NR, MC and NC may change freely; KC may not: it splits each C
// element's k-ascending multiply-add chain, so it fixes the result bits.
template <typename T>
struct TileTraits;

template <>
struct TileTraits<float> {
  static constexpr int MR = tile_mr<float>(), NR = tile_nr<float>();
  static constexpr int MC = 128, KC = 320, NC = 512;
};

template <>
struct TileTraits<double> {
  static constexpr int MR = tile_mr<double>(), NR = tile_nr<double>();
  static constexpr int MC = 96, KC = 256, NC = 512;
};

template <>
struct TileTraits<std::complex<double>> {
  static constexpr int MR = 4, NR = 2;
  static constexpr int MC = 64, KC = 128, NC = 256;
};

template <typename T>
using Vec [[gnu::vector_size(kVecBytes)]] = T;

/// Thread-local packing workspace, grown on demand and reused across
/// calls. Contents never carry information between calls: every pack
/// rewrites the full panel including the zero padding.
template <typename T>
struct PackBuffers {
  std::vector<T> a, b;
};

template <typename T>
PackBuffers<T>& pack_buffers() {
  static thread_local PackBuffers<T> bufs;
  return bufs;
}

/// Packs an mc x kc block of op(A) (origin (i0, p0) in op-coordinates)
/// into row panels of MR: panel ir holds rows [ir, ir+MR) stored as kc
/// consecutive MR-vectors. Short edge panels are zero-padded to MR.
template <typename T, int MR>
void pack_a(Trans transa, int mc, int kc, const T* a, int lda, int i0,
            int p0, T* buf) {
  for (int i = 0; i < mc; i += MR) {
    const int mr = std::min(MR, mc - i);
    if (transa == Trans::No) {
      // op(A)(i0+i+r, p0+p) = a[(p0+p)*lda + i0+i+r]: columns contiguous.
      const T* ap = a + static_cast<std::ptrdiff_t>(p0) * lda + i0 + i;
      for (int p = 0; p < kc; ++p) {
        const T* col = ap + static_cast<std::ptrdiff_t>(p) * lda;
        int r = 0;
        for (; r < mr; ++r) buf[r] = col[r];
        for (; r < MR; ++r) buf[r] = T{};
        buf += MR;
      }
    } else {
      // op(A)(i0+i+r, p0+p) = a[(i0+i+r)*lda + p0+p]: rows contiguous.
      for (int r = 0; r < mr; ++r) {
        const T* row = a + static_cast<std::ptrdiff_t>(i0 + i + r) * lda + p0;
        for (int p = 0; p < kc; ++p)
          buf[static_cast<std::ptrdiff_t>(p) * MR + r] = row[p];
      }
      for (int r = mr; r < MR; ++r)
        for (int p = 0; p < kc; ++p)
          buf[static_cast<std::ptrdiff_t>(p) * MR + r] = T{};
      buf += static_cast<std::ptrdiff_t>(kc) * MR;
    }
  }
}

/// Packs a kc x nc block of op(B) (origin (p0, j0) in op-coordinates)
/// into column panels of NR: panel jr holds columns [jr, jr+NR) stored as
/// kc consecutive NR-vectors. Short edge panels are zero-padded to NR.
template <typename T, int NR>
void pack_b(Trans transb, int kc, int nc, const T* b, int ldb, int p0,
            int j0, T* buf) {
  for (int j = 0; j < nc; j += NR) {
    const int nr = std::min(NR, nc - j);
    if (transb == Trans::No) {
      // op(B)(p0+p, j0+j+c) = b[(j0+j+c)*ldb + p0+p]: columns contiguous.
      for (int c = 0; c < nr; ++c) {
        const T* col = b + static_cast<std::ptrdiff_t>(j0 + j + c) * ldb + p0;
        for (int p = 0; p < kc; ++p)
          buf[static_cast<std::ptrdiff_t>(p) * NR + c] = col[p];
      }
      for (int c = nr; c < NR; ++c)
        for (int p = 0; p < kc; ++p)
          buf[static_cast<std::ptrdiff_t>(p) * NR + c] = T{};
    } else {
      // op(B)(p0+p, j0+j+c) = b[(p0+p)*ldb + j0+j+c]: rows contiguous.
      for (int p = 0; p < kc; ++p) {
        const T* row = b + static_cast<std::ptrdiff_t>(p0 + p) * ldb + j0 + j;
        T* out = buf + static_cast<std::ptrdiff_t>(p) * NR;
        int c = 0;
        for (; c < nr; ++c) out[c] = row[c];
        for (; c < NR; ++c) out[c] = T{};
      }
    }
    buf += static_cast<std::ptrdiff_t>(kc) * NR;
  }
}

/// The register tile: C tile (mr x nr valid of MR x NR, leading dimension
/// ldc) += alpha * pa-panel * pb-panel over kc steps, both panels read at
/// unit stride. Real types accumulate in MR / L vectors per tile column
/// (L lanes each), broadcasting one B element per column per step;
/// std::complex<double> keeps the scalar loop. Forced inline, with no
/// addressable accumulator array: the out-of-line form zeroed and spilled
/// its accumulators through the stack on every tile, which cost small-k
/// tiles up to a third of their speed (AVX2, 64 x 64 x 16).
template <typename T, int MR, int NR>
[[gnu::always_inline]] inline void tile_kernel(int kc, const T* __restrict pa,
                                               const T* __restrict pb,
                                               T alpha, T* __restrict ct,
                                               int ldc, int mr, int nr) {
  if constexpr (std::is_floating_point_v<T>) {
    using V = Vec<T>;
    constexpr int L = kVecBytes / static_cast<int>(sizeof(T));
    constexpr int MV = MR / L;
    static_assert(MV * L == MR);
    V acc[NR][MV];
    for (int j = 0; j < NR; ++j)
      for (int v = 0; v < MV; ++v) acc[j][v] = V{};
    for (int p = 0; p < kc; ++p, pa += MR, pb += NR) {
      V a[MV];
      for (int v = 0; v < MV; ++v) std::memcpy(&a[v], pa + v * L, sizeof(V));
      for (int j = 0; j < NR; ++j) {
        const T bpj = pb[j];
        for (int v = 0; v < MV; ++v) acc[j][v] += a[v] * bpj;
      }
    }
    if (mr == MR && nr == NR) {
      for (int j = 0; j < NR; ++j)
        for (int v = 0; v < MV; ++v) {
          T* cp = ct + static_cast<std::ptrdiff_t>(j) * ldc + v * L;
          V cv;
          std::memcpy(&cv, cp, sizeof(V));
          cv += alpha * acc[j][v];
          std::memcpy(cp, &cv, sizeof(V));
        }
    } else {
      // Store the valid part of the padded tile.
      for (int j = 0; j < nr; ++j)
        for (int i = 0; i < mr; ++i)
          ct[static_cast<std::ptrdiff_t>(j) * ldc + i] +=
              alpha * acc[j][i / L][i % L];
    }
  } else {
    T acc[MR * NR] = {};
    for (int p = 0; p < kc; ++p, pa += MR, pb += NR) {
      for (int j = 0; j < NR; ++j) {
        const T bpj = pb[j];
        for (int i = 0; i < MR; ++i) acc[j * MR + i] += pa[i] * bpj;
      }
    }
    for (int j = 0; j < nr; ++j)
      for (int i = 0; i < mr; ++i)
        ct[static_cast<std::ptrdiff_t>(j) * ldc + i] +=
            alpha * acc[j * MR + i];
  }
}

}  // namespace

int vector_bytes() { return kVecBytes; }

bool fused_multiply_add() {
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
  return true;
#else
  return false;
#endif
}

template <typename T>
TileGeometry tile_geometry() {
  using TT = TileTraits<T>;
  return {TT::MR, TT::NR, TT::MC, TT::KC, TT::NC};
}

template <typename T>
void gemm_packed(Trans transa, Trans transb, int m, int n, int k, T alpha,
                 const T* a, int lda, const T* b, int ldb, T* c, int ldc) {
  using TT = TileTraits<T>;
  constexpr int MR = TT::MR, NR = TT::NR;
  constexpr int MC = TT::MC, KC = TT::KC, NC = TT::NC;
  static_assert(MC % MR == 0 && NC % NR == 0);
  if (m <= 0 || n <= 0 || k <= 0 || alpha == T{}) return;

  auto& bufs = pack_buffers<T>();
  bufs.a.resize(static_cast<std::size_t>(MC) * KC);
  bufs.b.resize(static_cast<std::size_t>(KC) * NC);
  T* const pa_buf = bufs.a.data();
  T* const pb_buf = bufs.b.data();

  for (int jc = 0; jc < n; jc += NC) {
    const int nc = std::min(NC, n - jc);
    for (int pc = 0; pc < k; pc += KC) {
      const int kc = std::min(KC, k - pc);
      pack_b<T, NR>(transb, kc, nc, b, ldb, pc, jc, pb_buf);
      for (int ic = 0; ic < m; ic += MC) {
        const int mc = std::min(MC, m - ic);
        pack_a<T, MR>(transa, mc, kc, a, lda, ic, pc, pa_buf);
        for (int jr = 0; jr < nc; jr += NR) {
          const int nr = std::min(NR, nc - jr);
          const T* pb = pb_buf + static_cast<std::ptrdiff_t>(jr) * kc;
          T* ctile = c + static_cast<std::ptrdiff_t>(jc + jr) * ldc + ic;
          for (int ir = 0; ir < mc; ir += MR) {
            const int mr = std::min(MR, mc - ir);
            const T* pa = pa_buf + static_cast<std::ptrdiff_t>(ir) * kc;
            tile_kernel<T, MR, NR>(kc, pa, pb, alpha, ctile + ir, ldc, mr,
                                   nr);
          }
        }
      }
    }
  }
}

template <typename T>
void ger_unit(int m, int n, T alpha, const T* x, const T* y, int incy, T* a,
              int lda) {
  auto col_of = [&](int j) -> T* {
    return a + static_cast<std::ptrdiff_t>(j) * lda;
  };
  auto one_col = [&](int j) {
    const T yj = alpha * y[static_cast<std::ptrdiff_t>(j) * incy];
    if (yj == T{}) return;
    T* col = col_of(j);
    for (int i = 0; i < m; ++i) col[i] += x[i] * yj;
  };
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const T y0 = alpha * y[static_cast<std::ptrdiff_t>(j) * incy];
    const T y1 = alpha * y[static_cast<std::ptrdiff_t>(j + 1) * incy];
    const T y2 = alpha * y[static_cast<std::ptrdiff_t>(j + 2) * incy];
    const T y3 = alpha * y[static_cast<std::ptrdiff_t>(j + 3) * incy];
    if (y0 != T{} && y1 != T{} && y2 != T{} && y3 != T{}) {
      T* __restrict c0 = col_of(j);
      T* __restrict c1 = col_of(j + 1);
      T* __restrict c2 = col_of(j + 2);
      T* __restrict c3 = col_of(j + 3);
      for (int i = 0; i < m; ++i) {
        const T xi = x[i];
        c0[i] += xi * y0;
        c1[i] += xi * y1;
        c2[i] += xi * y2;
        c3[i] += xi * y3;
      }
    } else {
      for (int jj = j; jj < j + 4; ++jj) one_col(jj);
    }
  }
  for (; j < n; ++j) one_col(j);
}

template <typename T>
void gemv_unit(Trans trans, int m, int n, T alpha, const T* a, int lda,
               const T* x, T beta, T* y) {
  const int ylen = trans == Trans::No ? m : n;
  if (beta == T{}) {
    std::fill(y, y + ylen, T{});
  } else if (beta != T(1)) {
    for (int i = 0; i < ylen; ++i) y[i] *= beta;
  }
  auto col_of = [&](int j) -> const T* {
    return a + static_cast<std::ptrdiff_t>(j) * lda;
  };
  if (trans == Trans::No) {
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const T x0 = alpha * x[j], x1 = alpha * x[j + 1];
      const T x2 = alpha * x[j + 2], x3 = alpha * x[j + 3];
      const T* __restrict c0 = col_of(j);
      const T* __restrict c1 = col_of(j + 1);
      const T* __restrict c2 = col_of(j + 2);
      const T* __restrict c3 = col_of(j + 3);
      // Sequential adds in column order keep the result bit-identical to
      // the one-column reference loop.
      for (int i = 0; i < m; ++i) {
        T yi = y[i];
        yi += c0[i] * x0;
        yi += c1[i] * x1;
        yi += c2[i] * x2;
        yi += c3[i] * x3;
        y[i] = yi;
      }
    }
    for (; j < n; ++j) {
      const T xj = alpha * x[j];
      const T* col = col_of(j);
      for (int i = 0; i < m; ++i) y[i] += col[i] * xj;
    }
  } else {
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const T* __restrict c0 = col_of(j);
      const T* __restrict c1 = col_of(j + 1);
      const T* __restrict c2 = col_of(j + 2);
      const T* __restrict c3 = col_of(j + 3);
      T a0{}, a1{}, a2{}, a3{};
      for (int i = 0; i < m; ++i) {
        const T xi = x[i];
        a0 += c0[i] * xi;
        a1 += c1[i] * xi;
        a2 += c2[i] * xi;
        a3 += c3[i] * xi;
      }
      y[j] += alpha * a0;
      y[j + 1] += alpha * a1;
      y[j + 2] += alpha * a2;
      y[j + 3] += alpha * a3;
    }
    for (; j < n; ++j) {
      const T* col = col_of(j);
      T acc{};
      for (int i = 0; i < m; ++i) acc += col[i] * x[i];
      y[j] += alpha * acc;
    }
  }
}

namespace {

/// NC right-hand-side columns of the order-M triangle solved together in
/// stack arrays with constant-bound loops the compiler unrolls flat. The
/// NC solves are independent dependency chains, so the divides and axpys
/// interleave for ILP the one-column form cannot reach. Per-element
/// arithmetic (divide-then-axpy, triangle columns ascending for lower /
/// descending for upper) matches the generic right-looking loop exactly,
/// so results are bit-identical to it.
template <int M, int NC, typename T>
void trsm_tiny_cols(bool lower, bool unit, const T* tri, T* b, int ldb) {
  T x[NC][M];
  for (int c = 0; c < NC; ++c) {
    const T* __restrict bc = b + static_cast<std::ptrdiff_t>(c) * ldb;
    for (int i = 0; i < M; ++i) x[c][i] = bc[i];
  }
  auto col_step = [&](int j, int i_begin, int i_end) {
    if (!unit) {
      const T d = tri[j * M + j];
      for (int c = 0; c < NC; ++c) x[c][j] /= d;
    }
    T xj[NC];
    for (int c = 0; c < NC; ++c) xj[c] = x[c][j];
    for (int i = i_begin; i < i_end; ++i) {
      const T ai = tri[j * M + i];
      for (int c = 0; c < NC; ++c) x[c][i] -= ai * xj[c];
    }
  };
  if (lower) {
    for (int j = 0; j < M; ++j) col_step(j, j + 1, M);
  } else {
    for (int j = M - 1; j >= 0; --j) col_step(j, 0, j);
  }
  for (int c = 0; c < NC; ++c) {
    T* __restrict bc = b + static_cast<std::ptrdiff_t>(c) * ldb;
    for (int i = 0; i < M; ++i) bc[i] = x[c][i];
  }
}

/// Fully-unrolled substitution for triangles of compile-time order M
/// (Trans::No only): the triangle is staged once into a contiguous stack
/// tile shared by all right-hand sides, then solved four columns at a
/// time (remainders at 1-3 columns).
template <int M, typename T>
void trsm_left_tiny(bool lower, bool unit, const T* a, int lda, T* b,
                    int ldb, int n) {
  T tri[M * M];
  for (int j = 0; j < M; ++j) {
    const T* __restrict col = a + static_cast<std::ptrdiff_t>(j) * lda;
    for (int i = 0; i < M; ++i) tri[j * M + i] = col[i];
  }
  int c = 0;
  for (; c + 4 <= n; c += 4)
    trsm_tiny_cols<M, 4>(lower, unit, tri,
                         b + static_cast<std::ptrdiff_t>(c) * ldb, ldb);
  switch (n - c) {
    case 3:
      trsm_tiny_cols<M, 3>(lower, unit, tri,
                           b + static_cast<std::ptrdiff_t>(c) * ldb, ldb);
      break;
    case 2:
      trsm_tiny_cols<M, 2>(lower, unit, tri,
                           b + static_cast<std::ptrdiff_t>(c) * ldb, ldb);
      break;
    case 1:
      trsm_tiny_cols<M, 1>(lower, unit, tri,
                           b + static_cast<std::ptrdiff_t>(c) * ldb, ldb);
      break;
    default:
      break;
  }
}

/// Order-dispatch for the tiny kernels; returns false above the cutoff.
template <typename T>
bool trsm_left_tiny_dispatch(bool lower, bool unit, int m, int n, const T* a,
                             int lda, T* b, int ldb) {
  switch (m) {
    case 1: trsm_left_tiny<1>(lower, unit, a, lda, b, ldb, n); return true;
    case 2: trsm_left_tiny<2>(lower, unit, a, lda, b, ldb, n); return true;
    case 3: trsm_left_tiny<3>(lower, unit, a, lda, b, ldb, n); return true;
    case 4: trsm_left_tiny<4>(lower, unit, a, lda, b, ldb, n); return true;
    case 5: trsm_left_tiny<5>(lower, unit, a, lda, b, ldb, n); return true;
    case 6: trsm_left_tiny<6>(lower, unit, a, lda, b, ldb, n); return true;
    case 7: trsm_left_tiny<7>(lower, unit, a, lda, b, ldb, n); return true;
    case 8: trsm_left_tiny<8>(lower, unit, a, lda, b, ldb, n); return true;
    case 9: trsm_left_tiny<9>(lower, unit, a, lda, b, ldb, n); return true;
    case 10: trsm_left_tiny<10>(lower, unit, a, lda, b, ldb, n); return true;
    case 11: trsm_left_tiny<11>(lower, unit, a, lda, b, ldb, n); return true;
    case 12: trsm_left_tiny<12>(lower, unit, a, lda, b, ldb, n); return true;
    case 13: trsm_left_tiny<13>(lower, unit, a, lda, b, ldb, n); return true;
    case 14: trsm_left_tiny<14>(lower, unit, a, lda, b, ldb, n); return true;
    case 15: trsm_left_tiny<15>(lower, unit, a, lda, b, ldb, n); return true;
    case 16: trsm_left_tiny<16>(lower, unit, a, lda, b, ldb, n); return true;
    default: return false;
  }
}

}  // namespace

template <typename T>
void trsm_left_small(Uplo uplo, Trans trans, Diag diag, int m, int n,
                     const T* a, int lda, T* b, int ldb) {
  const bool lower = (uplo == Uplo::Lower) == (trans == Trans::No);
  const bool unit = diag == Diag::Unit;
  // Triangles up to order 16 (the dominant case: la::trsm's on-diagonal
  // blocks and the multifrontal leaf fronts) go through the unrolled
  // fixed-size kernels. Trans::Yes keeps the generic left-looking loop
  // below (its row dots are already contiguous).
  if (trans == Trans::No && m > 0 &&
      trsm_left_tiny_dispatch(lower, unit, m, n, a, lda, b, ldb))
    return;
  // Process the right-hand sides four columns at a time so every triangle
  // element loaded is used four times.
  for (int c0 = 0; c0 < n; c0 += 4) {
    const int nc = std::min(4, n - c0);
    T* x[4];
    for (int c = 0; c < 4; ++c)
      x[c] = b + static_cast<std::ptrdiff_t>(c0 + std::min(c, nc - 1)) * ldb;
    if (trans == Trans::No) {
      // Right-looking: eliminate column j of the triangle (contiguous)
      // from the remaining rows of every rhs.
      auto step = [&](int j, int i_begin, int i_end) {
        const T* __restrict col = a + static_cast<std::ptrdiff_t>(j) * lda;
        if (!unit) {
          const T d = col[j];
          for (int c = 0; c < nc; ++c) x[c][j] /= d;
        }
        const T xj0 = x[0][j], xj1 = x[1][j], xj2 = x[2][j], xj3 = x[3][j];
        T* __restrict x0 = x[0];
        T* __restrict x1 = x[1];
        T* __restrict x2 = x[2];
        T* __restrict x3 = x[3];
        if (nc == 4) {
          for (int i = i_begin; i < i_end; ++i) {
            const T ai = col[i];
            x0[i] -= ai * xj0;
            x1[i] -= ai * xj1;
            x2[i] -= ai * xj2;
            x3[i] -= ai * xj3;
          }
        } else {
          for (int c = 0; c < nc; ++c) {
            T* __restrict xc = x[c];
            const T xj = xc[j];
            for (int i = i_begin; i < i_end; ++i) xc[i] -= col[i] * xj;
          }
        }
      };
      if (lower)
        for (int j = 0; j < m; ++j) step(j, j + 1, m);
      else
        for (int j = m - 1; j >= 0; --j) step(j, 0, j);
    } else {
      // Left-looking: row i of op(A) is the contiguous stored column i;
      // one dot per rhs, all four sharing the row load.
      auto step = [&](int i, int j_begin, int j_end) {
        const T* __restrict row = a + static_cast<std::ptrdiff_t>(i) * lda;
        T acc[4];
        for (int c = 0; c < nc; ++c) acc[c] = x[c][i];
        for (int j = j_begin; j < j_end; ++j) {
          const T aij = row[j];
          for (int c = 0; c < nc; ++c) acc[c] -= aij * x[c][j];
        }
        const T d = row[i];
        for (int c = 0; c < nc; ++c) x[c][i] = unit ? acc[c] : acc[c] / d;
      };
      if (lower)
        for (int i = 0; i < m; ++i) step(i, 0, i);
      else
        for (int i = m - 1; i >= 0; --i) step(i, i + 1, m);
    }
  }
}

template <typename T>
void trsm_right_small(Uplo uplo, Trans trans, Diag diag, int m, int n,
                      const T* a, int lda, T* b, int ldb) {
  const bool lower = (uplo == Uplo::Lower) == (trans == Trans::No);
  auto E = [&](int i, int j) -> T {
    return trans == Trans::No ? a[static_cast<std::ptrdiff_t>(j) * lda + i]
                              : a[static_cast<std::ptrdiff_t>(i) * lda + j];
  };
  // Column j of X depends on columns p past it (lower) or before it
  // (upper); each update is a contiguous axpy over the m rows.
  auto solve_col = [&](int j, int p_begin, int p_end) {
    T* __restrict xj = b + static_cast<std::ptrdiff_t>(j) * ldb;
    for (int p = p_begin; p < p_end; ++p) {
      const T e = E(p, j);
      if (e == T{}) continue;
      const T* __restrict xp = b + static_cast<std::ptrdiff_t>(p) * ldb;
      for (int i = 0; i < m; ++i) xj[i] -= xp[i] * e;
    }
    if (diag == Diag::NonUnit) {
      const T d = E(j, j);
      for (int i = 0; i < m; ++i) xj[i] /= d;
    }
  };
  if (lower)
    for (int j = n - 1; j >= 0; --j) solve_col(j, j + 1, n);
  else
    for (int j = 0; j < n; ++j) solve_col(j, 0, j);
}

#define IRRLU_INSTANTIATE_MK(T)                                             \
  template TileGeometry tile_geometry<T>();                                 \
  template void gemm_packed<T>(Trans, Trans, int, int, int, T, const T*,    \
                               int, const T*, int, T*, int);                \
  template void ger_unit<T>(int, int, T, const T*, const T*, int, T*, int); \
  template void gemv_unit<T>(Trans, int, int, T, const T*, int, const T*,   \
                             T, T*);                                        \
  template void trsm_left_small<T>(Uplo, Trans, Diag, int, int, const T*,   \
                                   int, T*, int);                           \
  template void trsm_right_small<T>(Uplo, Trans, Diag, int, int, const T*,  \
                                    int, T*, int);

IRRLU_INSTANTIATE_MK(float)
IRRLU_INSTANTIATE_MK(double)
IRRLU_INSTANTIATE_MK(std::complex<double>)

#undef IRRLU_INSTANTIATE_MK

}  // namespace irrlu::la::mk
