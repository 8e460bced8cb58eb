// irrGEMM (paper §IV-C): matrix multiply over a non-uniform batch.
//
// Grid layout mirrors MAGMA's vbatched GEMM: the grid is sized for the
// *required* dimensions (the largest problem); every block first runs DCWI
// and exits immediately when its tile falls outside its matrix's effective
// workload. Tiles are staged through shared memory.
#include <algorithm>
#include <complex>

#include "irrblas/dcwi.hpp"
#include "irrblas/irr_kernels.hpp"
#include "lapack/blas.hpp"
#include "lapack/flops.hpp"

namespace irrlu::batch {

namespace {

/// Tile sizes adapt to the device's shared-memory capacity (a real GPU
/// kernel would be compiled per architecture; here the choice is runtime).
struct GemmTiles {
  int tm, tn, tk;
  std::size_t smem_bytes(std::size_t elem) const {
    return static_cast<std::size_t>(tm * tk + tk * tn) * elem +
           2 * alignof(std::max_align_t);
  }
};

template <typename T>
GemmTiles pick_tiles(const gpusim::DeviceModel& model) {
  for (GemmTiles t : {GemmTiles{64, 64, 16}, GemmTiles{32, 32, 8},
                      GemmTiles{16, 16, 8}, GemmTiles{8, 8, 4}}) {
    if (t.smem_bytes(sizeof(T)) <= model.shared_mem_per_block) return t;
  }
  return GemmTiles{4, 4, 2};
}

}  // namespace

template <typename T>
void irr_gemm(gpusim::Device& dev, gpusim::Stream& stream, la::Trans transA,
              la::Trans transB, int m, int n, int k, T alpha,
              T const* const* dA_array, const int* ldda, int Ai, int Aj,
              T const* const* dB_array, const int* lddb, int Bi, int Bj,
              T beta, T* const* dC_array, const int* lddc, int Ci, int Cj,
              const int* m_vec, const int* n_vec, const int* k_vec,
              int batch_size) {
  if (batch_size <= 0 || m <= 0 || n <= 0) return;
  const GemmTiles tiles = pick_tiles<T>(dev.model());
  const int kTileM = tiles.tm, kTileN = tiles.tn;
  const int tiles_m = (m + kTileM - 1) / kTileM;
  const int tiles_n = (n + kTileN - 1) / kTileN;
  const gpusim::LaunchConfig cfg{"irr_gemm", batch_size * tiles_m * tiles_n,
                                 tiles.smem_bytes(sizeof(T)),
                                 gpusim::kIndependentBlocks};

  dev.launch(stream, cfg, [=](gpusim::BlockCtx& ctx) {
    const int id = ctx.block() / (tiles_m * tiles_n);
    const int tile = ctx.block() % (tiles_m * tiles_n);
    const int tm = tile % tiles_m;
    const int tn = tile / tiles_m;

    const GemmWork w =
        dcwi_gemm(transA, transB, m, n, k, Ai, Aj, Bi, Bj, Ci, Cj, m_vec[id],
                  n_vec[id], k_vec ? k_vec[id] : k);
    if (w.none()) return;

    const int row0 = tm * kTileM;
    const int col0 = tn * kTileN;
    if (row0 >= w.m || col0 >= w.n) return;
    const int em = std::min(kTileM, w.m - row0);
    const int en = std::min(kTileN, w.n - col0);

    const int lda = ldda[id], ldb = lddb[id], ldc = lddc[id];
    const T* A = dA_array[id] + static_cast<std::ptrdiff_t>(Aj) * lda + Ai;
    const T* B = dB_array[id] + static_cast<std::ptrdiff_t>(Bj) * ldb + Bi;
    T* C = dC_array[id] + static_cast<std::ptrdiff_t>(Cj) * ldc + Ci +
           static_cast<std::ptrdiff_t>(col0) * ldc + row0;

    // Scale the C tile by beta exactly once (even when w.k == 0).
    if (beta != T(1)) {
      for (int j = 0; j < en; ++j) {
        T* cj = C + static_cast<std::ptrdiff_t>(j) * ldc;
        if (beta == T{})
          std::fill(cj, cj + em, T{});
        else
          for (int i = 0; i < em; ++i) cj[i] *= beta;
      }
    }
    double bytes = 2.0 * em * en * sizeof(T);  // C read-modify-write

    if (w.k > 0 && alpha != T{}) {
      // The packed engine does its own (register-file) staging, so the
      // tile goes straight through la::gemm on the op()-adjusted global
      // pointers. Byte accounting matches the former shared-memory
      // staging loop: every k-chunk moved (em + en) * ek elements, which
      // telescopes to (em + en) * w.k.
      const T* At = transA == la::Trans::No
                        ? A + row0
                        : A + static_cast<std::ptrdiff_t>(row0) * lda;
      const T* Bt = transB == la::Trans::No
                        ? B + static_cast<std::ptrdiff_t>(col0) * ldb
                        : B + col0;
      la::gemm(transA, transB, em, en, w.k, alpha, At, lda, Bt, ldb, T(1), C,
               ldc);
      bytes += static_cast<double>(em + en) * w.k * sizeof(T);
      ctx.record(la::gemm_flops(em, en, w.k) * la::flop_weight<T>, bytes);
    } else {
      ctx.record(0.0, bytes);
    }
  });
}

#define IRRLU_INSTANTIATE_IRRGEMM(T)                                          \
  template void irr_gemm<T>(                                                  \
      gpusim::Device&, gpusim::Stream&, la::Trans, la::Trans, int, int, int,  \
      T, T const* const*, const int*, int, int, T const* const*, const int*, \
      int, int, T, T* const*, const int*, int, int, const int*, const int*,  \
      const int*, int);

IRRLU_INSTANTIATE_IRRGEMM(float)
IRRLU_INSTANTIATE_IRRGEMM(double)
IRRLU_INSTANTIATE_IRRGEMM(std::complex<double>)

#undef IRRLU_INSTANTIATE_IRRGEMM

}  // namespace irrlu::batch
