// Launch layer for the interleaved (SoA) batch layout: packs strided
// fronts into per-size-class SoA buffers, runs the batch-axis-vectorized
// kernels (lapack/microkernel_ilv.hpp) over them, and unpacks the
// results — with honest simulated-cost accounting. DESIGN.md §12.
//
// The launch grid is lanes-first: every descriptor contributes
// ceil(lanes / kIlvLaneChunk) blocks, and one launch may span several
// descriptors (several size classes), so a level's worth of heterogeneous
// buckets still costs ONE launch per pipeline stage. Each block touches a
// contiguous lane chunk of one class — the coalesced access pattern the
// device model's per-block bandwidth term rewards, and the reason the
// interleaved row-swap traffic below drops the strided path's row-access
// penalty factor.
#pragma once

#include <vector>

#include "gpusim/device.hpp"
#include "irrblas/vbatch.hpp"
#include "lapack/microkernel_ilv.hpp"
#include "lapack/types.hpp"

namespace irrlu::batch {

/// Policy knobs for routing multifrontal leaf/small size classes through
/// the interleaved layout (consumed by the kBatched engine; see
/// DESIGN.md §12). Off by default: the strided path stays the reference
/// and the default simulated output is unchanged by this layer.
struct InterleavedOptions {
  bool enabled = false;
  /// Largest separator (s) and update (u) extent routed. The default is
  /// the measured crossover against the strided engine: the SoA
  /// microkernels win >= 2.6x at dims <= 12 on the host
  /// (BENCH_blas.json interleaved_* rows) and stay ahead in simulated
  /// device time through 16 once the level-wide descriptor group
  /// amortizes the allocations, while fronts in the 20-32 range cost
  /// more than they save on both clocks (BENCH_factor.json). Raising it
  /// is always *correct* — the engine additionally clamps to 32, above
  /// which the strided path switches to blocked/recursive algorithms
  /// whose operation order the interleaved kernels do not mirror, so the
  /// bitwise-identity contract would break.
  int max_class_dim = 16;
};

/// Lanes per simulated block (= the microkernels' vector grain).
inline constexpr int kIlvLaneChunk = 8;

/// One kernel invocation over a lane range of one size class, within a
/// (possibly multi-class) fused stage launch. `args.lane0/lane1` are
/// filled per block by the launcher; everything else is caller-set.
struct IlvOpDesc {
  la::mk::ilv::Kernel kern;
  la::mk::ilv::Args args;
  int lane0 = 0;  ///< first lane of this op within the class buffers
  int lanes = 0;  ///< lanes processed
  double flops_per_lane = 0;
  double bytes_per_lane = 0;
};

/// Launches one fused stage: grid = sum over descs of ceil(lanes/chunk);
/// each block runs its desc's kernel on its lane chunk and records
/// per-lane work. Descs with zero lanes contribute nothing; an all-empty
/// stage skips the launch entirely.
void ilv_launch(gpusim::Device& dev, gpusim::Stream& stream, const char* name,
                std::vector<IlvOpDesc> descs);

/// One size class of a pack/unpack stage: `lanes` strided matrices
/// (src[lane] with leading dimension src_ld[lane], both indexed by the
/// absolute lane id) against the m x n SoA window `dst`. When `absmax`
/// is set, the sweep also writes max |a_ij| per lane — the boost-norm /
/// growth extremum fused into the copy (order-independent, so it equals
/// the strided mf_front_norm/mf_front_growth value bitwise; the extremum
/// stays double even for float classes, like every anorm vector).
template <typename T>
struct IlvPackDescT {
  IlvViewT<T> dst;
  int m = 0, n = 0;
  int lane0 = 0, lanes = 0;
  T* const* src = nullptr;
  const int* src_ld = nullptr;
  double* absmax = nullptr;
};

using IlvPackDesc = IlvPackDescT<double>;

/// Strided -> SoA gather (+ optional per-lane max-magnitude).
template <typename T>
void ilv_pack(gpusim::Device& dev, gpusim::Stream& stream,
              std::vector<IlvPackDescT<T>> descs);
/// SoA -> strided scatter (+ optional per-lane max-magnitude).
template <typename T>
void ilv_unpack(gpusim::Device& dev, gpusim::Stream& stream,
                std::vector<IlvPackDescT<T>> descs);

// Non-template overloads so braced-init call sites keep deducing double.
inline void ilv_pack(gpusim::Device& dev, gpusim::Stream& stream,
                     std::vector<IlvPackDesc> descs) {
  ilv_pack<double>(dev, stream, std::move(descs));
}
inline void ilv_unpack(gpusim::Device& dev, gpusim::Stream& stream,
                       std::vector<IlvPackDesc> descs) {
  ilv_unpack<double>(dev, stream, std::move(descs));
}

/// One size class of a row-interchange stage: applies ipiv[lane][0..rows)
/// forward (row r swaps with row ipiv[lane][r]) to `width` columns of the
/// class window `view`. Bytes are counted per actual swap, coalesced:
/// swaps * 4 accesses * width * sizeof(T) — without the
/// (64 / sizeof(T)) row-access penalty the strided irr_laswp_range pays,
/// because a lane sweep is unit stride in this layout.
template <typename T>
struct IlvLaswpDescT {
  IlvViewT<T> view;
  int rows = 0, width = 0;
  int lane0 = 0, lanes = 0;
  int* const* ipiv = nullptr;
};

using IlvLaswpDesc = IlvLaswpDescT<double>;

template <typename T>
void ilv_laswp(gpusim::Device& dev, gpusim::Stream& stream,
               std::vector<IlvLaswpDescT<T>> descs);

inline void ilv_laswp(gpusim::Device& dev, gpusim::Stream& stream,
                      std::vector<IlvLaswpDesc> descs) {
  ilv_laswp<double>(dev, stream, std::move(descs));
}

// ---------------------------------------------------------------------------
// Stage descriptors: select the kernel with la::mk::ilv::make_* and fill
// one size class's arguments and per-lane cost. The multifrontal level
// pipeline collects one per class into a fused stage launch; the
// single-class wrappers below issue one each.
// ---------------------------------------------------------------------------

/// LU with partial pivoting of every lane's m x n matrix in `a`;
/// per-lane ipiv/info (and optional boosting) as in irr_getf2_fused.
template <typename T>
IlvOpDesc ilv_getf2_op(const IlvViewT<T>& a, int m, int n, int lanes,
                       int* const* ipiv, int* info, double tau = 0.0,
                       const double* anorm = nullptr, int* boost = nullptr);

/// Triangular solve per lane (Trans::No): op(T) X = alpha B (Left) or
/// X op(T) = alpha B (Right), B overwritten, B is m x n.
template <typename T>
IlvOpDesc ilv_trsm_op(la::Side side, la::Uplo uplo, la::Diag diag, int m,
                      int n, double alpha, const IlvViewT<T>& t,
                      const IlvViewT<T>& b, int lanes);

/// C = alpha * A * B + beta * C per lane (Trans::No both sides).
template <typename T>
IlvOpDesc ilv_gemm_op(int m, int n, int k, double alpha, const IlvViewT<T>& a,
                      const IlvViewT<T>& b, double beta, const IlvViewT<T>& c,
                      int lanes);

// ---------------------------------------------------------------------------
// Single-class convenience wrappers (tests, benchmarks): one stage
// descriptor, one launch; nothing is launched for lanes <= 0.
// ---------------------------------------------------------------------------

template <typename T>
void irr_getf2_ilv(gpusim::Device& dev, gpusim::Stream& stream,
                   const IlvViewT<T>& a, int m, int n, int lanes,
                   int* const* ipiv, int* info, double tau = 0.0,
                   const double* anorm = nullptr, int* boost = nullptr);

template <typename T>
void irr_gemm_ilv(gpusim::Device& dev, gpusim::Stream& stream, int m, int n,
                  int k, double alpha, const IlvViewT<T>& a,
                  const IlvViewT<T>& b, double beta, const IlvViewT<T>& c,
                  int lanes);

template <typename T>
void irr_trsm_ilv(gpusim::Device& dev, gpusim::Stream& stream, la::Side side,
                  la::Uplo uplo, la::Diag diag, int m, int n, double alpha,
                  const IlvViewT<T>& t, const IlvViewT<T>& b, int lanes);

}  // namespace irrlu::batch
