// Interleaved (batch-axis SoA) small-matrix kernels. See the header for
// the layout and the bitwise contract against the strided engine path.
//
// This translation unit is compiled with the same IRRLU_MK_OPTS flag set
// as microkernel.cpp (see src/lapack/CMakeLists.txt): the per-element
// expression shapes below mirror la::getf2 / la::trsm / la::gemm /
// mk::gemm_packed / mk::ger_unit verbatim, and identical flags make the
// compiler take identical floating-point contraction decisions for them,
// which is what turns "same operation sequence" into "same bits". Every
// ilv kernel body lives here — nothing in the header does arithmetic —
// so no instantiation can leak into a default-flags TU.
//
// Every body is templated over the element type T and instantiated for
// double and float: the f32 kernels run all arithmetic in float (alpha /
// beta converted on entry, T(1)/pivot reciprocals, T(-1) update signs), so
// each lane is bit-identical to the strided engine path instantiated for
// float — the same contract the f64 kernels keep against the double path.
// Only the boost threshold bookkeeping stays double (`tau * anorm`),
// mirroring la::getf2's double `boost_threshold` parameter exactly.

#include "lapack/microkernel_ilv.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "lapack/lapack.hpp"  // la::boosted_pivot (mul+div only: flag-safe)

namespace irrlu::la::mk::ilv {
namespace {

// Lanes processed together per inner sweep. Matches the launch-side lane
// chunk (irrblas/interleaved.hpp), so one simulated block is one pass of
// these loops; larger slices (host benchmarks) just take several passes.
constexpr int kVec = 8;

/// Offset of element (r, c) lane 0 in an SoA buffer of leading dim `ld`
/// and lane stride `batch`; lane l lives at +l from there.
inline std::ptrdiff_t at(int r, int c, int ld, int batch) {
  return (static_cast<std::ptrdiff_t>(c) * ld + r) *
         static_cast<std::ptrdiff_t>(batch);
}

// ---------------------------------------------------------------------------
// gemm
// ---------------------------------------------------------------------------

/// One lane chunk of C += alpha * A * B on top of an already-applied beta
/// pass, k > 0 and alpha != 0 guaranteed by the callers. Mirrors
/// mk::gemm_packed's per-element contract: a single k-ascending
/// accumulation chain (`acc += a * b`) and an `c += alpha * acc`
/// writeback. Also the update step of every blocked trsm branch below
/// (la::trsm calls la::gemm with beta = 1 there, which skips the beta
/// pass and lands exactly here).
// NLT is the lane count when pinned at compile time (kVec for a full
// chunk — the hot case) or 0 for the runtime tail. A constant lane trip
// lets the inner loops compile to exactly one unmasked vector op each;
// with a runtime `nl` GCC emits a versioned loop nest that spills the
// accumulator tile (measured ~2.3x slower). Kept out-of-line on purpose:
// inlined into the lane-chunk loop of its callers the register
// allocator spills the tile to the stack as well.
template <int KS, int NLT, typename T>
#if defined(__GNUC__)
__attribute__((noinline))
#endif
void gemm_chunk(int mr, int nr, int kr, T alpha, const T* __restrict a,
                int lda, const T* __restrict b, int ldb, T* __restrict c,
                int ldc, int batch, int nlr) {
  const int nl = NLT > 0 ? NLT : nlr;
  const int m = mr;
  const int n = nr;
  const int k = KS > 0 ? KS : kr;
  // Register-tiled over an IB x JB block of C: the tile's chains are
  // mutually independent, which hides FMA latency, and the A row-block
  // stays cache-resident across the j sweep instead of being re-streamed
  // from L2 for every column. Each element still owns exactly one
  // k-ascending `acc += a * b` chain followed by one `c += alpha * acc`
  // writeback — the same per-element operation sequence as the straight
  // two-loop form, so the bits are unchanged.
  constexpr int IB = 8;
  constexpr int JB = 3;
  int i = 0;
  for (; i + IB <= m; i += IB) {
    int j = 0;
    for (; j + JB <= n; j += JB) {
      T acc[IB * JB][kVec];
      for (int t = 0; t < IB * JB; ++t)
        for (int l = 0; l < nl; ++l) acc[t][l] = T(0);
      for (int p = 0; p < k; ++p) {
        for (int s = 0; s < JB; ++s) {
          const T* bp = b + at(p, j + s, ldb, batch);
          for (int r = 0; r < IB; ++r) {
            const T* ap = a + at(i + r, p, lda, batch);
            T* t = acc[s * IB + r];
            for (int l = 0; l < nl; ++l) t[l] += ap[l] * bp[l];
          }
        }
      }
      for (int s = 0; s < JB; ++s) {
        for (int r = 0; r < IB; ++r) {
          T* cp = c + at(i + r, j + s, ldc, batch);
          for (int l = 0; l < nl; ++l) cp[l] += alpha * acc[s * IB + r][l];
        }
      }
    }
    for (; j < n; ++j) {
      T acc[IB][kVec];
      for (int r = 0; r < IB; ++r)
        for (int l = 0; l < nl; ++l) acc[r][l] = T(0);
      for (int p = 0; p < k; ++p) {
        const T* bp = b + at(p, j, ldb, batch);
        for (int r = 0; r < IB; ++r) {
          const T* ap = a + at(i + r, p, lda, batch);
          for (int l = 0; l < nl; ++l) acc[r][l] += ap[l] * bp[l];
        }
      }
      for (int r = 0; r < IB; ++r) {
        T* cp = c + at(i + r, j, ldc, batch);
        for (int l = 0; l < nl; ++l) cp[l] += alpha * acc[r][l];
      }
    }
  }
  for (; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      T acc[kVec];
      for (int l = 0; l < nl; ++l) acc[l] = T(0);
      for (int p = 0; p < k; ++p) {
        const T* ap = a + at(i, p, lda, batch);
        const T* bp = b + at(p, j, ldb, batch);
        for (int l = 0; l < nl; ++l) acc[l] += ap[l] * bp[l];
      }
      T* cp = c + at(i, j, ldc, batch);
      for (int l = 0; l < nl; ++l) cp[l] += alpha * acc[l];
    }
  }
}

template <int KS, typename T>
void gemm_fn(const Kernel& kd, const Args& g) {
  const int m = kd.m;
  const int n = kd.n;
  const int k = KS > 0 ? KS : kd.k;
  if (m <= 0 || n <= 0) return;
  const T alpha = static_cast<T>(g.alpha);
  const T beta = static_cast<T>(g.beta);
  for (int l0 = g.lane0; l0 < g.lane1; l0 += kVec) {
    const int nl = std::min(kVec, g.lane1 - l0);
    const T* a = static_cast<const T*>(g.a) + l0;
    const T* b = static_cast<const T*>(g.b) + l0;
    T* c = static_cast<T*>(g.c) + l0;
    // Beta pass first, then the k/alpha early-out — la::gemm's order.
    if (beta != T(1)) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < m; ++i) {
          T* cp = c + at(i, j, g.ldc, g.batch);
          if (beta == T(0)) {
            for (int l = 0; l < nl; ++l) cp[l] = T(0);
          } else {
            for (int l = 0; l < nl; ++l) cp[l] *= beta;
          }
        }
      }
    }
    if (k <= 0 || alpha == T(0)) continue;
    if (nl == kVec)
      gemm_chunk<KS, kVec, T>(m, n, k, alpha, a, g.lda, b, g.ldb, c, g.ldc,
                              g.batch, nl);
    else
      gemm_chunk<KS, 0, T>(m, n, k, alpha, a, g.lda, b, g.ldb, c, g.ldc,
                           g.batch, nl);
  }
}

// ---------------------------------------------------------------------------
// trsm
// ---------------------------------------------------------------------------

/// la::scale_matrix mirror: the alpha pass la::trsm applies over all of B
/// before any substitution.
template <int NLT, typename T>
void scale_chunk(int m, int n, T alpha, T* b, int ldb, int batch, int nlr) {
  const int nl = NLT > 0 ? NLT : nlr;
  if (alpha == T(1)) return;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      T* bp = b + at(i, j, ldb, batch);
      for (int l = 0; l < nl; ++l) bp[l] *= alpha;
    }
  }
}

/// Left substitution over a triangle of order <= 16 (or one diagonal
/// block of the blocked path). Mirrors mk::trsm_tiny_cols's col_step:
/// per rhs column, forward (lower) or backward (upper) over pivots, with
/// `x[j] /= d` then `x[i] -= a(i,j) * xj` — lane-innermost.
template <int MS, int NLT, typename T>
#if defined(__GNUC__)
__attribute__((noinline))
#endif
void left_subst(int mr, int nrhs, bool lower, bool unit,
                const T* __restrict t, int ldt, T* __restrict x, int ldx,
                int batch, int nlr) {
  const int nl = NLT > 0 ? NLT : nlr;
  const int m = MS > 0 ? MS : mr;
  for (int c = 0; c < nrhs; ++c) {
    for (int jj = 0; jj < m; ++jj) {
      const int j = lower ? jj : m - 1 - jj;
      T* xj = x + at(j, c, ldx, batch);
      if (!unit) {
        const T* d = t + at(j, j, ldt, batch);
        for (int l = 0; l < nl; ++l) xj[l] /= d[l];
      }
      // Snapshot the solved row: the update loop then touches x only
      // through xi, so the vectorizer needs no runtime overlap check
      // between the xj load and the xi store (same array, rows i != j).
      T xjv[kVec];
      for (int l = 0; l < nl; ++l) xjv[l] = xj[l];
      const int i0 = lower ? j + 1 : 0;
      const int i1 = lower ? m : j;
      for (int i = i0; i < i1; ++i) {
        const T* aij = t + at(i, j, ldt, batch);
        T* xi = x + at(i, c, ldx, batch);
        for (int l = 0; l < nl; ++l) xi[l] -= aij[l] * xjv[l];
      }
    }
  }
}

/// Right substitution over a triangle of order <= 16. Mirrors
/// mk::trsm_right_small's solve_col: per solved column j (backward for
/// lower, forward for upper), fold each dependency column with the
/// per-lane `e == 0` skip, then divide by the diagonal for NonUnit.
template <int NS, int NLT, typename T>
#if defined(__GNUC__)
__attribute__((noinline))
#endif
void right_subst(int nr, int m, bool lower, bool unit, const T* __restrict t,
                 int ldt, T* __restrict x, int ldx, int batch, int nlr) {
  const int nl = NLT > 0 ? NLT : nlr;
  const int n = NS > 0 ? NS : nr;
  for (int jj = 0; jj < n; ++jj) {
    const int j = lower ? n - 1 - jj : jj;
    const int p0 = lower ? j + 1 : 0;
    const int p1 = lower ? n : j;
    for (int p = p0; p < p1; ++p) {
      // The multiplier column entry is invariant over i; snapshotting it
      // (and the dependency column per row) leaves the update loop with
      // x touched only through xji, so no runtime overlap checks.
      T ev[kVec];
      const T* e = t + at(p, j, ldt, batch);
      for (int l = 0; l < nl; ++l) ev[l] = e[l];
      for (int i = 0; i < m; ++i) {
        T* xji = x + at(i, j, ldx, batch);
        const T* xpi = x + at(i, p, ldx, batch);
        T xpv[kVec];
        for (int l = 0; l < nl; ++l) xpv[l] = xpi[l];
        // If-converted form of the per-lane `e == 0` skip: lanes with a
        // zero multiplier store their old value back unchanged (NOT
        // `-= 0.0`, which would flip the sign of a -0.0), so the guard
        // becomes a select and the loop vectorizes.
        for (int l = 0; l < nl; ++l) {
          xji[l] = ev[l] != T(0) ? xji[l] - xpv[l] * ev[l] : xji[l];
        }
      }
    }
    if (!unit) {
      T dv[kVec];
      const T* d = t + at(j, j, ldt, batch);
      for (int l = 0; l < nl; ++l) dv[l] = d[l];
      for (int i = 0; i < m; ++i) {
        T* xji = x + at(i, j, ldx, batch);
        for (int l = 0; l < nl; ++l) xji[l] /= dv[l];
      }
    }
  }
}

template <int TS, typename T>
void trsm_left_fn(const Kernel& kd, const Args& g) {
  const int m = TS > 0 ? TS : kd.m;
  const int n = kd.n;
  if (m <= 0 || n <= 0) return;
  const bool lower = kd.lower;
  const bool unit = kd.unit;
  const T alpha = static_cast<T>(g.alpha);
  for (int l0 = g.lane0; l0 < g.lane1; l0 += kVec) {
    const int nl = std::min(kVec, g.lane1 - l0);
    const T* t = static_cast<const T*>(g.a) + l0;
    T* b = static_cast<T*>(g.c) + l0;
    const int ldt = g.lda;
    const int ldx = g.ldc;
    const auto chunk = [&]<int NLT>() {
      scale_chunk<NLT, T>(m, n, alpha, b, ldx, g.batch, nl);
      if (TS > 0 || m <= 16) {
        left_subst<TS, NLT, T>(m, n, lower, unit, t, ldt, b, ldx, g.batch,
                               nl);
        return;
      }
      // 16-blocked structure of la::trsm, Left, Trans::No.
      if (lower) {
        for (int i0 = 0; i0 < m; i0 += 16) {
          const int ib = std::min(16, m - i0);
          left_subst<0, NLT, T>(ib, n, true, unit,
                                t + at(i0, i0, ldt, g.batch), ldt,
                                b + at(i0, 0, ldx, g.batch), ldx, g.batch,
                                nl);
          const int rm = m - i0 - ib;
          if (rm > 0) {
            gemm_chunk<0, NLT, T>(rm, n, ib, T(-1),
                                  t + at(i0 + ib, i0, ldt, g.batch), ldt,
                                  b + at(i0, 0, ldx, g.batch), ldx,
                                  b + at(i0 + ib, 0, ldx, g.batch), ldx,
                                  g.batch, nl);
          }
        }
      } else {
        const int last = ((m - 1) / 16) * 16;
        for (int i0 = last; i0 >= 0; i0 -= 16) {
          const int ib = std::min(16, m - i0);
          left_subst<0, NLT, T>(ib, n, false, unit,
                                t + at(i0, i0, ldt, g.batch), ldt,
                                b + at(i0, 0, ldx, g.batch), ldx, g.batch,
                                nl);
          if (i0 > 0) {
            gemm_chunk<0, NLT, T>(i0, n, ib, T(-1),
                                  t + at(0, i0, ldt, g.batch), ldt,
                                  b + at(i0, 0, ldx, g.batch), ldx, b, ldx,
                                  g.batch, nl);
          }
        }
      }
    };
    if (nl == kVec)
      chunk.template operator()<kVec>();
    else
      chunk.template operator()<0>();
  }
}

template <int TS, typename T>
void trsm_right_fn(const Kernel& kd, const Args& g) {
  const int m = kd.m;
  const int n = TS > 0 ? TS : kd.n;
  if (m <= 0 || n <= 0) return;
  const bool lower = kd.lower;
  const bool unit = kd.unit;
  const T alpha = static_cast<T>(g.alpha);
  for (int l0 = g.lane0; l0 < g.lane1; l0 += kVec) {
    const int nl = std::min(kVec, g.lane1 - l0);
    const T* t = static_cast<const T*>(g.a) + l0;
    T* b = static_cast<T*>(g.c) + l0;
    const int ldt = g.lda;
    const int ldx = g.ldc;
    const auto chunk = [&]<int NLT>() {
      scale_chunk<NLT, T>(m, n, alpha, b, ldx, g.batch, nl);
      if (TS > 0 || n <= 16) {
        right_subst<TS, NLT, T>(n, m, lower, unit, t, ldt, b, ldx, g.batch,
                                nl);
        return;
      }
      // 16-blocked structure of la::trsm, Right, Trans::No.
      if (lower) {
        const int last = ((n - 1) / 16) * 16;
        for (int j0 = last; j0 >= 0; j0 -= 16) {
          const int jb = std::min(16, n - j0);
          right_subst<0, NLT, T>(jb, m, true, unit,
                                 t + at(j0, j0, ldt, g.batch), ldt,
                                 b + at(0, j0, ldx, g.batch), ldx, g.batch,
                                 nl);
          if (j0 > 0) {
            gemm_chunk<0, NLT, T>(m, j0, jb, T(-1),
                                  b + at(0, j0, ldx, g.batch), ldx,
                                  t + at(j0, 0, ldt, g.batch), ldt, b, ldx,
                                  g.batch, nl);
          }
        }
      } else {
        for (int j0 = 0; j0 < n; j0 += 16) {
          const int jb = std::min(16, n - j0);
          right_subst<0, NLT, T>(jb, m, false, unit,
                                 t + at(j0, j0, ldt, g.batch), ldt,
                                 b + at(0, j0, ldx, g.batch), ldx, g.batch,
                                 nl);
          const int rn = n - j0 - jb;
          if (rn > 0) {
            gemm_chunk<0, NLT, T>(m, rn, jb, T(-1),
                                  b + at(0, j0, ldx, g.batch), ldx,
                                  t + at(j0, j0 + jb, ldt, g.batch), ldt,
                                  b + at(0, j0 + jb, ldx, g.batch), ldx,
                                  g.batch, nl);
          }
        }
      }
    };
    if (nl == kVec)
      chunk.template operator()<kVec>();
    else
      chunk.template operator()<0>();
  }
}

// ---------------------------------------------------------------------------
// getf2
// ---------------------------------------------------------------------------

/// Right-looking LU, la::getf2 column loop per lane. The pivot search and
/// bookkeeping are scalar per lane (data-dependent branches); the swap,
/// reciprocal scaling and rank-1 update — the bulk of the work — run
/// lane-innermost.
template <int NLT, typename T>
#if defined(__GNUC__)
__attribute__((noinline))
#endif
void getf2_chunk(int m, int n, const Args& g, int l0, int nlr) {
  const int nl = NLT > 0 ? NLT : nlr;
  const int kmin = std::min(m, n);
  const int ld = g.ldc;
  {
    T* a = static_cast<T*>(g.c) + l0;
    int linfo[kVec];
    double thr[kVec];
    for (int l = 0; l < nl; ++l) {
      linfo[l] = 0;
      // irr_getf2_fused's threshold rule: tau * ||F||_max per matrix,
      // disabled when the norm vector is absent.
      thr[l] = (g.tau > 0.0 && g.anorm != nullptr)
                   ? g.tau * g.anorm[l0 + l]
                   : 0.0;
    }
    for (int j = 0; j < kmin; ++j) {
      int prow[kVec];
      T pokm[kVec];  // 1 when the pivot is usable (arithmetic type:
                     // selects over a bool[] defeat the vectorizer)
      T inv[kVec];
      // la::iamax over column j from row j, vectorized across lanes: NaN
      // at the start index wins immediately, a later NaN wins at its
      // index, otherwise strict >. The scalar early-exit becomes a
      // per-lane `frozen` mask; a frozen lane ignores every later row,
      // which reproduces the break exactly. `bestt` holds the row offset
      // as an arithmetic value (exact for these magnitudes) so the whole
      // loop is one homogeneous select nest.
      T bestv[kVec];
      T bests[kVec];  // signed value at the winning row: the scan
                      // already visits it, so keeping it here spares
                      // the epilogue a per-lane strided gather
      T bestt[kVec];
      T frozen[kVec];
      {
        const T* c0 = a + at(j, j, ld, g.batch);
        for (int l = 0; l < nl; ++l) {
          const T v0 = std::abs(c0[l]);
          bestv[l] = v0;
          bests[l] = c0[l];
          bestt[l] = T(0);
          frozen[l] = v0 != v0 ? T(1) : T(0);
        }
      }
      for (int t = 1; t < m - j; ++t) {
        const T* ct = a + at(j + t, j, ld, g.batch);
        for (int l = 0; l < nl; ++l) {
          const T v = std::abs(ct[l]);
          // Bitwise (non-short-circuit) combines: && would reintroduce
          // branches and block if-conversion of the whole select nest.
          const bool isn = v != v;
          const bool live = frozen[l] == T(0);
          const bool take_nan = live & isn;
          const bool take_gt = live & !isn & (v > bestv[l]);
          const bool take = take_nan | take_gt;
          bestt[l] = take ? static_cast<T>(t) : bestt[l];
          bests[l] = take ? ct[l] : bests[l];
          bestv[l] = take_gt ? v : bestv[l];
          frozen[l] = take_nan ? T(1) : frozen[l];
        }
      }
      if (g.tau > 0.0 && g.anorm != nullptr) {
        // Boosted path: the perturbation writes back into the matrix and
        // bumps per-lane counters, so this bookkeeping stays scalar.
        for (int l = 0; l < nl; ++l) {
          const int lane = l0 + l;
          const int p = j + static_cast<int>(bestt[l]);
          g.ipiv[lane][j] = p;
          T pv = bests[l];
          if (pv == T(0) && linfo[l] == 0) linfo[l] = j + 1;
          if (thr[l] > 0.0 && std::abs(pv) < thr[l]) {
            pv = la::boosted_pivot(pv, thr[l]);
            a[at(p, j, ld, g.batch) + l] = pv;
            if (g.boost != nullptr) ++g.boost[lane];
          }
          prow[l] = p;
          pokm[l] = pv != T(0) ? T(1) : T(0);
        }
      } else {
        // Common (unboosted) path: pure selects, no memory traffic beyond
        // the ipiv stores, so the whole epilogue if-converts.
        for (int l = 0; l < nl; ++l) {
          const T pv = bests[l];
          prow[l] = j + static_cast<int>(bestt[l]);
          linfo[l] = (pv == T(0)) & (linfo[l] == 0) ? j + 1 : linfo[l];
          pokm[l] = pv != T(0) ? T(1) : T(0);
        }
        for (int l = 0; l < nl; ++l) g.ipiv[l0 + l][j] = prow[l];
      }
      // Full-width row swap (la::swap over all n columns), batched across
      // lanes. Guarded per lane exactly like la::getf2 (only on a usable
      // pivot), but expressed branch-free: a lane that keeps its row
      // swaps with itself, storing its own bits back. Row j is touched
      // as one contiguous lane vector per column; only the partner row
      // needs a per-lane gather/scatter. This replaces the per-lane
      // column loop, whose data-dependent branch and scattered scalar
      // accesses dominated the whole factorization.
      std::ptrdiff_t doff[kVec];
      bool any_swap = false;
      for (int l = 0; l < nl; ++l) {
        const bool sw = pokm[l] != T(0) && prow[l] != j;
        doff[l] = sw ? static_cast<std::ptrdiff_t>(prow[l] - j) *
                           static_cast<std::ptrdiff_t>(g.batch)
                     : 0;
        any_swap = any_swap || sw;
      }
      if (any_swap) {
        for (int c = 0; c < n; ++c) {
          T* rowj = a + at(j, c, ld, g.batch);
          T jv[kVec], ov[kVec];
          for (int l = 0; l < nl; ++l) jv[l] = rowj[l];
          for (int l = 0; l < nl; ++l) ov[l] = rowj[doff[l] + l];
          for (int l = 0; l < nl; ++l) rowj[l] = ov[l];
          for (int l = 0; l < nl; ++l) rowj[doff[l] + l] = jv[l];
        }
      }
      // Reciprocal scale of the subdiagonal (la::scal with inv = 1/pivot).
      for (int l = 0; l < nl; ++l) {
        inv[l] =
            pokm[l] != T(0) ? T(1) / a[at(j, j, ld, g.batch) + l] : T(1);
      }
      // If-converted (select, not `*= 1.0`): dead lanes keep their exact
      // old bits and the loop vectorizes.
      for (int i = j + 1; i < m; ++i) {
        T* col = a + at(i, j, ld, g.batch);
        for (int l = 0; l < nl; ++l) {
          col[l] = pokm[l] != T(0) ? col[l] * inv[l] : col[l];
        }
      }
      // Unconditional rank-1 trailing update (la::ger runs even on a zero
      // pivot), with mk::ger_unit's per-column `yj == 0` skip per lane.
      for (int jj = j + 1; jj < n; ++jj) {
        T yj[kVec];
        const T* yrow = a + at(j, jj, ld, g.batch);
        for (int l = 0; l < nl; ++l) yj[l] = T(-1) * yrow[l];
        // If-converted form of mk::ger_unit's `yj == 0` column skip: the
        // skipped lane stores its old value back bit-for-bit (a `+= 0.0`
        // would lose a -0.0), turning the guard into a vectorizable
        // select.
        for (int i = j + 1; i < m; ++i) {
          const T* x = a + at(i, j, ld, g.batch);
          T* cc = a + at(i, jj, ld, g.batch);
          // Snapshot the multiplier column entry so the update loop
          // touches `a` only through cc (columns j and jj are disjoint;
          // the copy just makes that visible to the vectorizer).
          T xv[kVec];
          for (int l = 0; l < nl; ++l) xv[l] = x[l];
          for (int l = 0; l < nl; ++l) {
            cc[l] = yj[l] != T(0) ? cc[l] + xv[l] * yj[l] : cc[l];
          }
        }
      }
    }
    if (g.info != nullptr) {
      for (int l = 0; l < nl; ++l) {
        if (linfo[l] != 0 && g.info[l0 + l] == 0) g.info[l0 + l] = linfo[l];
      }
    }
  }
}

template <typename T>
void getf2_fn(const Kernel& kd, const Args& g) {
  const int m = kd.m;
  const int n = kd.n;
  for (int l0 = g.lane0; l0 < g.lane1; l0 += kVec) {
    const int nl = std::min(kVec, g.lane1 - l0);
    if (nl == kVec)
      getf2_chunk<kVec, T>(m, n, g, l0, nl);
    else
      getf2_chunk<0, T>(m, n, g, l0, nl);
  }
}

// Size-specialization switch over a pinned dimension in [1, 16] (the
// libxsmm idiom, same shape as mk::trsm_left_small's tiny dispatch), per
// element type.
#define IRRLU_ILV_SPEC16(kd, fnbase, dim, T)       \
  switch (dim) {                                   \
    case 1: (kd).fn = &fnbase<1, T>; break;        \
    case 2: (kd).fn = &fnbase<2, T>; break;        \
    case 3: (kd).fn = &fnbase<3, T>; break;        \
    case 4: (kd).fn = &fnbase<4, T>; break;        \
    case 5: (kd).fn = &fnbase<5, T>; break;        \
    case 6: (kd).fn = &fnbase<6, T>; break;        \
    case 7: (kd).fn = &fnbase<7, T>; break;        \
    case 8: (kd).fn = &fnbase<8, T>; break;        \
    case 9: (kd).fn = &fnbase<9, T>; break;        \
    case 10: (kd).fn = &fnbase<10, T>; break;      \
    case 11: (kd).fn = &fnbase<11, T>; break;      \
    case 12: (kd).fn = &fnbase<12, T>; break;      \
    case 13: (kd).fn = &fnbase<13, T>; break;      \
    case 14: (kd).fn = &fnbase<14, T>; break;      \
    case 15: (kd).fn = &fnbase<15, T>; break;      \
    case 16: (kd).fn = &fnbase<16, T>; break;      \
    default: (kd).fn = &fnbase<0, T>; break;       \
  }

}  // namespace

Kernel make_gemm(int m, int n, int k, Prec prec) {
  Kernel kd;
  kd.m = m;
  kd.n = n;
  kd.k = k;
  kd.prec = prec;
  if (prec == Prec::kF32) {
    IRRLU_ILV_SPEC16(kd, gemm_fn, k, float);
  } else {
    IRRLU_ILV_SPEC16(kd, gemm_fn, k, double);
  }
  return kd;
}

Kernel make_trsm(bool left, bool lower, bool unit, int m, int n, Prec prec) {
  Kernel kd;
  kd.m = m;
  kd.n = n;
  kd.left = left;
  kd.lower = lower;
  kd.unit = unit;
  kd.prec = prec;
  int tri = left ? m : n;
  if (left) {
    if (prec == Prec::kF32) {
      IRRLU_ILV_SPEC16(kd, trsm_left_fn, tri, float);
    } else {
      IRRLU_ILV_SPEC16(kd, trsm_left_fn, tri, double);
    }
  } else {
    if (prec == Prec::kF32) {
      IRRLU_ILV_SPEC16(kd, trsm_right_fn, tri, float);
    } else {
      IRRLU_ILV_SPEC16(kd, trsm_right_fn, tri, double);
    }
  }
  return kd;
}

Kernel make_getf2(int m, int n, Prec prec) {
  Kernel kd;
  kd.fn = prec == Prec::kF32 ? &getf2_fn<float> : &getf2_fn<double>;
  kd.m = m;
  kd.n = n;
  kd.prec = prec;
  return kd;
}

#undef IRRLU_ILV_SPEC16

}  // namespace irrlu::la::mk::ilv
