// The streamed per-matrix solver models the *structure* of a vendor dense
// solver (cuSOLVER/rocSOLVER getrf): per panel, one optimized panel kernel
// (internally blocked, so its memory traffic stays proportional to the
// panel size), one pivot-application kernel, then triangular solve and a
// tiled multi-block trailing GEMM. Large matrices therefore spread across
// the whole device — which is why this baseline eventually overtakes
// irrLU-GPU for huge matrices (paper Fig. 11) while drowning in dispatch
// overhead for thousands of small ones (Fig. 10).
#include "refbatch/streamed_solver.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "lapack/blas.hpp"
#include "lapack/flops.hpp"
#include "lapack/lapack.hpp"

namespace irrlu::refbatch {

namespace {

/// Single-matrix blocked LU, panel width 32, as a chain of launches on
/// one stream.
template <typename T>
void ref_getrf_single(gpusim::Device& dev, gpusim::Stream& stream, int m,
                      int n, T* const* dA, const int* ldda,
                      const int* mv, const int* nv, const int* kv,
                      int* const* ipiv, int* info) {
  constexpr int nb = 32;  // at most the 128 pivots the panel kernel holds
  const int kmin = std::min(m, n);
  for (int j = 0; j < kmin; j += nb) {
    const int jb = std::min(nb, kmin - j);

    // Panel: one kernel, one block. Staged in shared memory when it fits;
    // otherwise factored in place with internally-blocked traffic (a
    // vendor panel re-reads the panel a small constant number of times).
    const std::size_t smem_need =
        batch::irr_getf2_smem_bytes<T>(m - j, jb);
    const bool staged = smem_need <= dev.model().shared_mem_per_block;
    const gpusim::LaunchConfig pcfg{"ref_getf2", 1,
                                    staged ? smem_need : std::size_t{0}};
    dev.launch(stream, pcfg, [=](gpusim::BlockCtx& ctx) {
      const int lda = ldda[0];
      T* A = dA[0] + static_cast<std::ptrdiff_t>(j) * lda + j;
      const int pm = m - j;
      int pinfo;
      if (staged) {
        // Factor in place: getf2 is ld-independent, so this matches the
        // former stage/factor/copy-back sequence bit for bit while the
        // LaunchConfig keeps charging the staged footprint.
        int* spiv = ctx.smem_alloc<int>(static_cast<std::size_t>(jb));
        pinfo = la::getf2(pm, jb, A, lda, spiv);
        for (int c = 0; c < jb; ++c) ipiv[0][j + c] = j + spiv[c];
        ctx.record(la::getrf_flops(pm, jb),
                   2.0 * pm * jb * sizeof(T));
      } else {
        int spiv[128];
        pinfo = la::getrf(pm, jb, A, lda, spiv, 16);
        for (int c = 0; c < jb; ++c) ipiv[0][j + c] = j + spiv[c];
        // Internally blocked (vendor recursive panel): ~3 panel passes.
        ctx.record(la::getrf_flops(pm, jb), 3.0 * pm * jb * sizeof(T));
      }
      if (pinfo != 0 && info[0] == 0) info[0] = j + pinfo;
    });

    // Row interchanges outside the panel.
    dev.launch(stream, {"ref_laswp", 1, 0}, [=](gpusim::BlockCtx& ctx) {
      const int lda = ldda[0];
      T* A = dA[0];
      double swaps = 0;
      for (int r = j; r < j + jb; ++r) {
        const int p = ipiv[0][r];
        if (p == r) continue;
        la::swap(j, A + r, lda, A + p, lda);
        if (j + jb < n)
          la::swap(n - j - jb,
                   A + static_cast<std::ptrdiff_t>(j + jb) * lda + r, lda,
                   A + static_cast<std::ptrdiff_t>(j + jb) * lda + p, lda);
        swaps += 1;
      }
      // A vendor LASWP moves each touched row once through a fused
      // permutation kernel: traffic comparable to irrLASWP's rehearsal
      // method (half the raw strided cache waste).
      ctx.record(0.0, swaps * 4.0 * (n - jb) * (64.0 / sizeof(T)) / 2.0 *
                          sizeof(T));
    });

    if (j + jb < n) {
      batch::irr_trsm<T>(dev, stream, la::Side::Left, la::Uplo::Lower,
                         la::Trans::No, la::Diag::Unit, jb, n - j - jb, T(1),
                         const_cast<T const* const*>(dA), ldda, j, j,
                         const_cast<T* const*>(dA), ldda, j, j + jb, kv, nv,
                         1);
      if (j + jb < m) {
        batch::irr_gemm<T>(dev, stream, la::Trans::No, la::Trans::No,
                           m - j - jb, n - j - jb, jb, T(-1),
                           const_cast<T const* const*>(dA), ldda, j + jb, j,
                           const_cast<T const* const*>(dA), ldda, j, j + jb,
                           T(1), const_cast<T* const*>(dA), ldda, j + jb,
                           j + jb, mv, nv, kv, 1);
      }
    }
  }
}

}  // namespace

template <typename T>
void streamed_getrf(gpusim::Device& dev, const std::vector<int>& m_sizes,
                    const std::vector<int>& n_sizes, T* const* dA_array,
                    const int* ldda, int* const* ipiv_array, int* info_array,
                    const StreamedOptions& opts) {
  const int bs = static_cast<int>(m_sizes.size());
  IRRLU_CHECK(n_sizes.size() == m_sizes.size());
  IRRLU_CHECK(opts.num_streams >= 1);

  // Host-side setup: per-matrix dimension arrays on the device (a
  // per-matrix solver needs sizes on the host anyway).
  auto mv = dev.alloc<int>(static_cast<std::size_t>(bs));
  auto nv = dev.alloc<int>(static_cast<std::size_t>(bs));
  auto kv = dev.alloc<int>(static_cast<std::size_t>(bs));
  for (int i = 0; i < bs; ++i) {
    mv[i] = m_sizes[static_cast<std::size_t>(i)];
    nv[i] = n_sizes[static_cast<std::size_t>(i)];
    kv[i] = std::min(mv[i], nv[i]);
  }

  for (int i = 0; i < bs; ++i) {
    auto& s = dev.stream(i % opts.num_streams);
    ref_getrf_single<T>(dev, s, mv[i], nv[i], dA_array + i, ldda + i,
                        mv.data() + i, nv.data() + i, kv.data() + i,
                        ipiv_array + i, info_array + i);
  }
  dev.synchronize_all();
}

#define IRRLU_INSTANTIATE_STREAMED(T)                                      \
  template void streamed_getrf<T>(gpusim::Device&, const std::vector<int>&, \
                                  const std::vector<int>&, T* const*,       \
                                  const int*, int* const*, int*,            \
                                  const StreamedOptions&);

IRRLU_INSTANTIATE_STREAMED(float)
IRRLU_INSTANTIATE_STREAMED(double)

#undef IRRLU_INSTANTIATE_STREAMED

}  // namespace irrlu::refbatch
