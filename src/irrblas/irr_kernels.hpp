// Public flat interfaces of the irregular-batch kernels (paper §IV).
//
// Argument convention (Figure 3 of the paper): scalar *required dimensions*
// describe the operation for the largest matrix in the batch; device arrays
// of *local dimensions* (m_vec, n_vec, k_vec) give the per-matrix operation
// extents at zero offset and are never modified; scalar *pointer offsets*
// (Ai, Aj, ...) locate the submatrix inside every matrix, i.e. the operand
// pointer of problem `id` is `Array[id] + Aj * ld[id] + Ai`. The DCWI layer
// (dcwi.hpp) turns these into the per-matrix effective workload at kernel
// execution time; no per-step pointer or integer arithmetic ever happens on
// the host.
//
// All pointers ("device arrays") live in simulated device memory; kernels
// are launched on `stream` of `dev` and are asynchronous with respect to
// the simulated timeline (the host may keep enqueueing).
#pragma once

#include "gpusim/device.hpp"
#include "lapack/types.hpp"

namespace irrlu::batch {

// ---------------------------------------------------------------- irrGEMM

/// C[id](Ci.., Cj..) = alpha * op(A[id])(..) * op(B[id])(..) + beta * C(..)
/// for every id; per-matrix effective (m, n, k) inferred by DCWI from
/// (m, n, k), (m_vec, n_vec, k_vec) and the offsets.
template <typename T>
void irr_gemm(gpusim::Device& dev, gpusim::Stream& stream, la::Trans transA,
              la::Trans transB, int m, int n, int k, T alpha,
              T const* const* dA_array, const int* ldda, int Ai, int Aj,
              T const* const* dB_array, const int* lddb, int Bi, int Bj,
              T beta, T* const* dC_array, const int* lddc, int Ci, int Cj,
              const int* m_vec, const int* n_vec, const int* k_vec,
              int batch_size);

// ---------------------------------------------------------------- irrTRSM

/// Solves op(T[id]) X = alpha B[id] (Side::Left) or X op(T[id]) = alpha B
/// (Side::Right) in place over the batch. Recursive: the host splits the
/// triangle until the base kernel solves blocks of <= 32, turning the bulk
/// of the work into irrGEMM calls — the paper's §IV-D design, enabled by
/// the offset-carrying interface (no per-level workspace or pointer
/// arithmetic). m is the order of the triangular system of the largest
/// matrix, n the maximum number of right-hand sides; m_vec/n_vec the local
/// counterparts (for Side::Right the triangle order aligns with n).
template <typename T>
void irr_trsm(gpusim::Device& dev, gpusim::Stream& stream, la::Side side,
              la::Uplo uplo, la::Trans trans, la::Diag diag, int m, int n,
              T alpha, T const* const* dT_array, const int* lddt, int Ti,
              int Tj, T* const* dB_array, const int* lddb, int Bi, int Bj,
              const int* m_vec, const int* n_vec, int batch_size);

// ------------------------------------------------------ panel decomposition

/// Small-pivot recovery (SuperLU-style static boosting) for the panel
/// kernels. When active, a pivot whose magnitude falls below
/// `tau * anorm_vec[id]` — a per-matrix threshold, so one ill-conditioned
/// problem never perturbs its batch siblings — is replaced by a signed
/// perturbation of that magnitude and elimination continues with finite
/// multipliers; `boost_vec[id]` (when non-null) counts the replacements.
/// `info` keeps its LAPACK meaning (first *exactly*-zero pivot column)
/// regardless of boosting, so singularity stays visible. Inactive (the
/// default: tau == 0 or anorm_vec == nullptr) the kernels are bit-for-bit
/// the unboosted ones.
struct PivotBoost {
  double tau = 0.0;  ///< relative threshold; <= 0 disables boosting
  /// Device array, one entry per matrix: the max-magnitude norm of the
  /// matrix (or front) *before* factorization. nullptr disables boosting.
  const double* anorm_vec = nullptr;
  /// Optional device array, one entry per matrix: incremented once per
  /// boosted pivot. Caller must zero-initialize.
  int* boost_vec = nullptr;

  bool active() const { return tau > 0.0 && anorm_vec != nullptr; }
};

/// Shared-memory footprint of the fused panel kernel for a panel of
/// (required) height m and width jb: the staged panel plus pivot space,
/// with alignment slack. Used both by the kernel's launch configuration
/// and by the irr_getrf driver's path switch, so the two always agree.
template <typename T>
std::size_t irr_getf2_smem_bytes(int m, int jb) {
  return static_cast<std::size_t>(m) * jb * sizeof(T) + jb * sizeof(int) +
         2 * alignof(std::max_align_t);
}

/// Fused panel factorization (irrGETF2, §IV-E): one thread block per
/// matrix stages its panel (rows Ai.., columns [Aj, Aj+jb)) in shared
/// memory and performs the unblocked partially-pivoted LU there. The caller
/// must have verified the shared-memory estimate fits the device (the
/// required panel height is m; smem = (m * jb) elements plus pivot space).
/// Pivot indices are written at ipiv_array[id][Aj + c] as *absolute* row
/// indices within the matrix (LAPACK convention with 0-based rows); beyond
/// each matrix's effective panel nothing is written. info_array[id] is set
/// to (1 + column) of the first exactly-zero pivot, if any.
template <typename T>
void irr_getf2_fused(gpusim::Device& dev, gpusim::Stream& stream, int m,
                     int jb, T* const* dA_array, const int* ldda, int Ai,
                     int Aj, const int* m_vec, const int* n_vec,
                     int* const* ipiv_array, int* info_array, int batch_size,
                     const PivotBoost& boost = {});

/// Column-wise panel path (the fallback when the panel exceeds shared
/// memory): for each of the jb columns, launches the four §IV-E kernels —
/// pivot search (irrIAMAX), row interchange within the panel (irrSWAP),
/// column scaling (irrSCAL) and the rank-1 trailing update (irrGER).
/// Same pivot/info contract as irr_getf2_fused.
template <typename T>
void irr_panel_columnwise(gpusim::Device& dev, gpusim::Stream& stream, int m,
                          int jb, T* const* dA_array, const int* ldda, int Ai,
                          int Aj, const int* m_vec, const int* n_vec,
                          int* const* ipiv_array, int* info_array,
                          int batch_size, const PivotBoost& boost = {});

// ---------------------------------------------------------------- irrLASWP

/// How the panel's row interchanges are applied to the columns outside the
/// panel (paper §IV-F).
enum class LaswpMethod {
  kLooped,     ///< reference: one swap per pivot row, strided row access
  kRehearsal,  ///< rehearse on one-column index matrices, then move data
               ///< through shared memory in contiguous chunks
};

/// Ints of workspace required by the rehearsal method (aux one-column
/// matrices of §IV-F): per matrix one count plus two entries per possible
/// pivot step.
inline std::size_t irr_laswp_workspace_size(int batch_size, int jb) {
  return static_cast<std::size_t>(batch_size) * (1 + 4 * jb);
}

/// Applies the interchanges recorded by the panel at columns [j, j+jb) to
/// the w_l columns left of the panel and the w_r columns right of it (both
/// inferred per matrix by DCWI). Pivot entries are absolute row indices as
/// produced by the panel kernels.
///
/// kLooped launches one irrSWAP per pivot row (the reference of §IV-F):
/// heavy launch count and strided row traffic, but *zero* data movement for
/// pivots already on the diagonal. kRehearsal first replays the swaps on
/// auxiliary one-column index matrices in `workspace`, then moves each
/// touched row exactly once through shared-memory chunks — faster for
/// realistic pivoting, slightly slower in the all-diagonal corner case,
/// exactly as the paper discusses. `workspace` must hold
/// irr_laswp_workspace_size(batch_size, jb) ints; if null, the routine
/// draws one from the device's per-stream workspace cache
/// (Device::workspace), which allocates on first use only and keeps the
/// call fully asynchronous. The explicit parameter remains the way to
/// share one workspace across routines (as irr_getrf's driver does).
template <typename T>
void irr_laswp(gpusim::Device& dev, gpusim::Stream& stream, int j, int jb,
               T* const* dA_array, const int* ldda, const int* m_vec,
               const int* n_vec, int const* const* ipiv_array, int batch_size,
               LaswpMethod method = LaswpMethod::kRehearsal,
               int* workspace = nullptr);

// ---------------------------------------------------------------- irrLU

/// Options for the blocked irregular LU driver.
struct IrrLuOptions {
  int nb = 32;  ///< panel width (the paper suggests 16-32)
  LaswpMethod laswp = LaswpMethod::kRehearsal;

  /// Caller-provided device workspaces (optional). When set the driver
  /// performs no allocation at all; when null it draws per-stream scratch
  /// from the device's workspace cache, allocating only on the first call
  /// (or a larger batch) — either way the driver is fully asynchronous,
  /// with no trailing synchronization (the paper's interface discussion
  /// §IV-F). kmin_workspace needs batch_size ints; laswp_workspace needs
  /// irr_laswp_workspace_size(batch_size, nb) ints.
  int* kmin_workspace = nullptr;
  int* laswp_workspace = nullptr;

  /// Small-pivot recovery passed through to the panel kernels (inactive by
  /// default; see PivotBoost).
  PivotBoost boost;
};

/// irrLU-GPU (§IV): blocked LU with partial pivoting on a batch of
/// matrices of arbitrary sizes. Factors matrix id in place to
/// min(m_vec[id], n_vec[id]) columns; the host loop runs to
/// max_id min(m_vec, n_vec) and DCWI retires matrices as they complete.
/// `m`/`n` are the required dims (max over the batch); offsets (Ai, Aj)
/// allow factoring a trailing submatrix of every matrix.
template <typename T>
void irr_getrf(gpusim::Device& dev, gpusim::Stream& stream, int m, int n,
               T* const* dA_array, const int* ldda, int Ai, int Aj,
               const int* m_vec, const int* n_vec, int* const* ipiv_array,
               int* info_array, int batch_size,
               const IrrLuOptions& opts = {});

// ---------------------------------------------------------------- irrQR

/// Blocked Householder QR over a non-uniform batch (the paper's stated
/// future-work decomposition, §VI — the interface and DCWI carry over
/// unchanged). On exit each A[id] holds R on/above the diagonal and the
/// reflector vectors below; tau_array[id] receives min(m_loc, n_loc)
/// scalar factors. Internally: fused shared-memory panel (GEQR2 + LARFT)
/// when it fits, and a compact-WY trailing update expressed as three
/// irrGEMM calls over zero-padded workspaces so that DCWI retires matrices
/// with no extra bookkeeping.
template <typename T>
void irr_geqrf(gpusim::Device& dev, gpusim::Stream& stream, int m, int n,
               T* const* dA_array, const int* ldda, const int* m_vec,
               const int* n_vec, T* const* tau_array, int batch_size,
               int nb = 32);

// ------------------------------------------------------------- auxiliaries

/// Columns per block of the panelled data-movement kernels: the two U12
/// row-swap kernels below and the multifrontal assemble, extend-add,
/// norm and extract stages give every 32-column panel of a matrix its own
/// block, so one large matrix spreads over many SMs instead of streaming
/// through one at the per-block bandwidth cap.
inline constexpr int kColumnPanel = 32;

/// Batched pivot application with explicit column range [c0, c0+w) capped
/// per matrix by DCWI — used by the multifrontal solver to apply F11 pivots
/// to F12 blocks of varying widths. The grid holds one block per (matrix,
/// kColumnPanel-column panel of w); DCWI retires the panels beyond a
/// matrix's width.
template <typename T>
void irr_laswp_range(gpusim::Device& dev, gpusim::Stream& stream, int k0,
                     int k1, int w, T* const* dA_array, const int* ldda,
                     int c0, const int* m_vec, const int* n_vec,
                     int const* const* ipiv_array, int batch_size);

/// Rehearsed variant of irr_laswp_range: the pivot chain [k0, k1) is first
/// replayed on auxiliary index columns (§IV-F), then every touched row
/// moves exactly once through shared-memory chunks instead of one strided
/// swap per pivot. Result-identical to irr_laswp_range; the traffic is
/// swap-chain-compressed. The rehearsal runs one block per matrix, the
/// move one per (matrix, kColumnPanel-column panel of w). The FP64
/// multifrontal path keeps the strided reference schedule for
/// cost-reproducibility with the pre-mixed-precision baseline; FP32 fronts
/// (DESIGN.md §14) take this kernel. `workspace`
/// must hold irr_laswp_workspace_size(batch_size, k1 - k0) ints, or null
/// to draw from the device's per-stream workspace cache.
template <typename T>
void irr_laswp_range_staged(gpusim::Device& dev, gpusim::Stream& stream,
                            int k0, int k1, int w, T* const* dA_array,
                            const int* ldda, int c0, const int* m_vec,
                            const int* n_vec, int const* const* ipiv_array,
                            int batch_size, int* workspace = nullptr);

}  // namespace irrlu::batch
