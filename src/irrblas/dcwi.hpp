// Dynamic Compute-Workload Inference (DCWI) — the paper's §IV-B.
//
// Every irregular-batch kernel is described to the device in terms of the
// *largest* problem in the batch (the "required dimensions" m, n, k), plus
// per-matrix *local dimensions* (m_vec, n_vec, k_vec — the operation extents
// of each problem at zero offset, never mutated during an algorithm) and
// scalar *pointer offsets* (Ai, Aj, ...) shared by the whole batch.
//
// DCWI runs at the top of each kernel (per matrix) and infers the actual
// workload: full, partial, or none. The rule, uniformly:
//
//     eff_dim = clamp(min(required_dim, local_dim - offset), 0, inf)
//
// where `offset` is the offset aligned with that dimension under the
// kernel's trans/side semantics (§IV-B: "for C = A x B the offsets (Ai, Aj)
// are compared against (m, k); for C = A^T x B, against (k, m)"). When two
// operand offsets align with the same dimension (e.g. Ai and Ci with the
// m-dimension of a NoTrans GEMM) the larger offset governs. An effective
// dimension of zero means the block performs no work and touches no memory.
#pragma once

#include <algorithm>

#include "lapack/types.hpp"

namespace irrlu::batch {

inline int dcwi_clamp(int required, int local, int offset) {
  return std::max(0, std::min(required, local - offset));
}

/// Effective workload of one GEMM in a non-uniform batch.
struct GemmWork {
  int m = 0, n = 0, k = 0;
  bool none() const { return m <= 0 || n <= 0; }
  bool inner_empty() const { return k <= 0; }
};

/// DCWI for C(Ci:,Cj:) = alpha op(A)(..) op(B)(..) + beta C(..), problem id
/// with local dims (m_loc, n_loc, k_loc).
inline GemmWork dcwi_gemm(la::Trans transA, la::Trans transB, int m, int n,
                          int k, int Ai, int Aj, int Bi, int Bj, int Ci,
                          int Cj, int m_loc, int n_loc, int k_loc) {
  const int a_m_off = transA == la::Trans::No ? Ai : Aj;
  const int a_k_off = transA == la::Trans::No ? Aj : Ai;
  const int b_k_off = transB == la::Trans::No ? Bi : Bj;
  const int b_n_off = transB == la::Trans::No ? Bj : Bi;
  GemmWork w;
  w.m = dcwi_clamp(m, m_loc, std::max(a_m_off, Ci));
  w.n = dcwi_clamp(n, n_loc, std::max(b_n_off, Cj));
  w.k = dcwi_clamp(k, k_loc, std::max(a_k_off, b_k_off));
  return w;
}

/// Effective workload of one triangular solve in a non-uniform batch.
struct TrsmWork {
  int m = 0, n = 0;  ///< rows and columns of the effective B block
  bool none() const { return m <= 0 || n <= 0; }
};

/// DCWI for op(T) X = alpha B (Side::Left) or X op(T) = alpha B
/// (Side::Right); T's offsets (Ti, Tj) align with the triangle dimension
/// (m for Left, n for Right) and must not disagree with B's offset — the
/// larger governs.
inline TrsmWork dcwi_trsm(la::Side side, int m, int n, int Ti, int Tj,
                          int Bi, int Bj, int m_loc, int n_loc) {
  const int t_off = std::max(Ti, Tj);
  TrsmWork w;
  if (side == la::Side::Left) {
    w.m = dcwi_clamp(m, m_loc, std::max(t_off, Bi));
    w.n = dcwi_clamp(n, n_loc, Bj);
  } else {
    w.m = dcwi_clamp(m, m_loc, Bi);
    w.n = dcwi_clamp(n, n_loc, std::max(t_off, Bj));
  }
  return w;
}

/// Effective workload of one LU panel / factorization step.
struct LuWork {
  int m = 0;  ///< rows remaining at this offset
  int n = 0;  ///< columns remaining at this offset
  bool none() const { return m <= 0 || n <= 0; }
  int kmin() const { return std::min(m, n); }
};

inline LuWork dcwi_lu(int m, int n, int Ai, int Aj, int m_loc, int n_loc) {
  LuWork w;
  w.m = dcwi_clamp(m, m_loc, Ai);
  w.n = dcwi_clamp(n, n_loc, Aj);
  return w;
}

/// Effective widths for the row-interchange step (irrLASWP): the paper's
/// Fig. 8 — w_l columns to the left of the panel and w_r to the right, both
/// different for every matrix. `j` is the panel's first column, `jb` its
/// width; pivots act on rows [j, j + pivot-rows). Rows exist only if the
/// matrix still has a panel at this stage.
struct LaswpWork {
  int wl = 0;       ///< columns [0, wl) to the left of the panel
  int wr_off = 0;   ///< first column of the right part
  int wr = 0;       ///< number of columns right of the panel
  int rows = 0;     ///< pivot rows of this matrix at this stage
  bool none() const { return rows <= 0; }
};

inline LaswpWork dcwi_laswp(int j, int jb, int m_loc, int n_loc) {
  LaswpWork w;
  const int kmin = std::min(m_loc, n_loc);
  w.rows = std::max(0, std::min(jb, kmin - j));
  if (w.rows == 0) return w;
  w.wl = std::min(j, n_loc);
  w.wr_off = j + jb;
  w.wr = std::max(0, n_loc - (j + jb));
  return w;
}

}  // namespace irrlu::batch
