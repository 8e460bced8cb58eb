// irrLU-GPU (paper §IV): the blocked LU driver over a non-uniform batch.
//
// The host loop is written against the largest workload in the batch —
// max_id min(m_vec[id], n_vec[id]) columns — and is pure kernel enqueueing:
// the offsets in the expanded interface advance with the panel index, the
// local dimension vectors never change, and DCWI inside every kernel
// retires matrices (fully or partially) on the fly. No pointer or integer
// arithmetic kernels run between the computational steps.
#include <algorithm>
#include <complex>

#include "irrblas/dcwi.hpp"
#include "irrblas/irr_kernels.hpp"
#include "lapack/blas.hpp"
#include "trace/trace.hpp"

namespace irrlu::batch {

namespace {

/// One-time setup kernel: k_vec[id] = min(m_vec[id], n_vec[id]). Launched
/// once per factorization (not per step), keeping the driver asynchronous.
void setup_kmin(gpusim::Device& dev, gpusim::Stream& stream,
                const int* m_vec, const int* n_vec, int* k_vec,
                int batch_size) {
  dev.launch(stream, {"irr_lu_setup", batch_size > 0 ? 1 : 0, 0},
             [=](gpusim::BlockCtx& ctx) {
    for (int i = 0; i < batch_size; ++i)
      k_vec[i] = std::min(m_vec[i], n_vec[i]);
    ctx.record(0.0, 3.0 * batch_size * sizeof(int));
  });
}

}  // namespace

template <typename T>
void irr_getrf(gpusim::Device& dev, gpusim::Stream& stream, int m, int n,
               T* const* dA_array, const int* ldda, int Ai, int Aj,
               const int* m_vec, const int* n_vec, int* const* ipiv_array,
               int* info_array, int batch_size, const IrrLuOptions& opts) {
  if (batch_size <= 0) return;
  const int kmax = std::min(m, n);
  if (kmax <= 0) return;
  const int nb = std::max(1, opts.nb);

  // Per-factorization device workspaces: caller-provided, or served from
  // the device's reusable workspace cache (keyed by stream, so concurrent
  // streams never share scratch). The cached buffers live as long as the
  // device, so the driver is fully asynchronous either way — only the
  // first call on a stream (or a batch larger than any before) pays an
  // allocation; repeated per-group calls stop allocating at all.
  int* kmin_ws = opts.kmin_workspace;
  int* laswp_ws = opts.laswp_workspace;
  if (kmin_ws == nullptr)
    kmin_ws = dev.workspace<int>("irrlu.kmin.s" + std::to_string(stream.id()),
                                 static_cast<std::size_t>(batch_size));
  if (laswp_ws == nullptr)
    laswp_ws =
        dev.workspace<int>("irrlu.laswp.s" + std::to_string(stream.id()),
                           irr_laswp_workspace_size(batch_size, nb));
  setup_kmin(dev, stream, m_vec, n_vec, kmin_ws, batch_size);

  for (int j = 0; j < kmax; j += nb) {
    const int jb = std::min(nb, kmax - j);

    // --- panel decomposition (§IV-E) -------------------------------------
    // Rough shared-memory estimate with the fixed-width assumption: the
    // tallest remaining panel is (m - j) rows by jb columns.
    {
      IRRLU_TRACE_SCOPE(dev.tracer(), "panel");
      const bool fused = irr_getf2_smem_bytes<T>(m - j, jb) <=
                         dev.model().shared_mem_per_block;
      if (fused) {
        irr_getf2_fused(dev, stream, m - j, jb, dA_array, ldda, Ai + j,
                        Aj + j, m_vec, n_vec, ipiv_array, info_array,
                        batch_size, opts.boost);
      } else {
        irr_panel_columnwise(dev, stream, m - j, jb, dA_array, ldda, Ai + j,
                             Aj + j, m_vec, n_vec, ipiv_array, info_array,
                             batch_size, opts.boost);
      }
    }

    // --- row interchanges outside the panel (§IV-F) ----------------------
    {
      IRRLU_TRACE_SCOPE(dev.tracer(), "swap");
      irr_laswp(dev, stream, j, jb, dA_array, ldda, m_vec, n_vec,
                const_cast<int const* const*>(ipiv_array), batch_size,
                opts.laswp, laswp_ws);
    }

    // --- triangular solve for the U block row ----------------------------
    if (j + jb < n) {
      {
        // Recursive irr_trsm launches internal irr_gemm kernels; scope
        // attribution charges them to the trsm phase (kernel-name
        // attribution still classes them as GEMM).
        IRRLU_TRACE_SCOPE(dev.tracer(), "trsm");
        irr_trsm(dev, stream, la::Side::Left, la::Uplo::Lower, la::Trans::No,
                 la::Diag::Unit, jb, n - j - jb, T(1),
                 const_cast<T const* const*>(dA_array), ldda, Ai + j, Aj + j,
                 dA_array, ldda, Ai + j, Aj + j + jb, kmin_ws, n_vec,
                 batch_size);
      }

      // --- trailing update (irrGEMM, §IV-C) -------------------------------
      if (j + jb < m) {
        IRRLU_TRACE_SCOPE(dev.tracer(), "update");
        irr_gemm(dev, stream, la::Trans::No, la::Trans::No, m - j - jb,
                 n - j - jb, jb, T(-1),
                 const_cast<T const* const*>(dA_array), ldda, Ai + j + jb,
                 Aj + j,
                 const_cast<T const* const*>(dA_array), ldda, Ai + j,
                 Aj + j + jb, T(1), dA_array, ldda, Ai + j + jb, Aj + j + jb,
                 m_vec, n_vec, kmin_ws, batch_size);
      }
    }
  }
}

template <typename T>
void irr_laswp_range(gpusim::Device& dev, gpusim::Stream& stream, int k0,
                     int k1, int w, T* const* dA_array, const int* ldda,
                     int c0, const int* m_vec, const int* n_vec,
                     int const* const* ipiv_array, int batch_size) {
  if (batch_size <= 0 || k1 <= k0 || w <= 0) return;
  // Block b swaps the rows of panel b % panels of matrix b / panels.
  const int panels = (w + kColumnPanel - 1) / kColumnPanel;
  dev.launch(stream,
             {"irr_laswp_range", batch_size * panels, 0,
              gpusim::kIndependentBlocks},
             [=](gpusim::BlockCtx& ctx) {
    const int id = ctx.block() / panels;
    const int pc = ctx.block() % panels * kColumnPanel;
    const int rows = std::min(k1, m_vec[id]);  // pivots available locally
    const int width =
        std::min({w, n_vec[id] - c0, pc + kColumnPanel}) - pc;
    if (rows <= k0 || width <= 0) return;
    const int lda = ldda[id];
    T* A = dA_array[id] + static_cast<std::ptrdiff_t>(c0 + pc) * lda;
    double swaps = 0;
    for (int r = k0; r < rows; ++r) {
      const int p = ipiv_array[id][r];
      if (p != r) {
        la::swap(width, A + r, lda, A + p, lda);
        swaps += 1;
      }
    }
    ctx.record(0.0, swaps * 4.0 * width * (64.0 / sizeof(T)) * sizeof(T));
  });
}

#define IRRLU_INSTANTIATE_GETRF(T)                                         \
  template void irr_getrf<T>(gpusim::Device&, gpusim::Stream&, int, int,   \
                             T* const*, const int*, int, int, const int*,  \
                             const int*, int* const*, int*, int,           \
                             const IrrLuOptions&);                         \
  template void irr_laswp_range<T>(gpusim::Device&, gpusim::Stream&, int,  \
                                   int, int, T* const*, const int*, int,   \
                                   const int*, const int*,                 \
                                   int const* const*, int);

IRRLU_INSTANTIATE_GETRF(float)
IRRLU_INSTANTIATE_GETRF(double)
IRRLU_INSTANTIATE_GETRF(std::complex<double>)

#undef IRRLU_INSTANTIATE_GETRF

}  // namespace irrlu::batch
