// Batch-axis-vectorized ("interleaved" / SoA) small-matrix microkernels.
//
// A size class of `batch` matrices of shape m x n is stored with element
// (r, c) of matrix (lane) i at buf[(c*ld + r)*batch + i]: the batch index
// is innermost, so a loop over lanes is unit stride — the access pattern
// of "Efficient Interleaved Batch Matrix Solvers for CUDA" (PAPERS.md),
// which on the host turns every inner loop into a vectorizable sweep and
// on the simulated device makes every access coalesced.
//
// The kernels here are pure host math over that layout; launch wrappers
// and cost accounting live in src/irrblas. Each entry point processes a
// lane slice [lane0, lane1) of the class, which is how the device
// wrappers grid the batch into lane-chunk blocks.
//
// Bitwise contract (what tests/test_interleaved.cpp asserts): for every
// lane, the results are bit-identical to running the strided engine path
// (la::getf2 / la::trsm / la::gemm) on that lane's matrix alone. The
// batch is a set of independent per-matrix problems, so reordering the
// loops lane-innermost preserves bits exactly as long as each lane's
// per-element operation sequence replicates the strided engine's; every
// kernel below mirrors its strided counterpart's expression shapes and
// loop orders (documented inline), and this translation unit is compiled
// with the same optimization flags as microkernel.cpp so floating-point
// contraction decisions match.
#pragma once

namespace irrlu::la::mk::ilv {

/// Element precision of a kernel body. Every kernel runs its arithmetic
/// entirely in its own precision (alpha/beta are converted on entry). The
/// f64 and f32 variants are per lane bit-identical to the strided engine
/// path of their type in every build, -march=native included: both
/// translation units fuse the same multiply-adds (DESIGN.md §12).
enum class Prec { kF64, kF32 };

/// Arguments of one interleaved kernel call. Pointers are class bases
/// (already offset to the target submatrix) of the kernel's element type
/// — the Kernel's Prec says whether they are double or float lanes; lane
/// indexing of the per-lane arrays (ipiv/info/anorm/boost) is absolute,
/// i.e. by the same lane index that addresses the SoA buffers.
struct Args {
  int lane0 = 0;  ///< first lane of the slice
  int lane1 = 0;  ///< one past the last lane
  int batch = 0;  ///< full lane stride of the SoA buffers
  double alpha = 1.0;
  double beta = 1.0;
  const void* a = nullptr;  ///< gemm A / trsm triangle
  int lda = 0;
  const void* b = nullptr;  ///< gemm B
  int ldb = 0;
  void* c = nullptr;  ///< in/out matrix (gemm C, trsm B, getf2 A)
  int ldc = 0;
  // getf2 extras (see la::getf2 and irr_getf2_fused):
  int* const* ipiv = nullptr;     ///< per-lane pivot arrays
  int* info = nullptr;            ///< per-lane LAPACK info (latched)
  double tau = 0.0;               ///< boost threshold factor
  const double* anorm = nullptr;  ///< per-lane boost reference, null = off
  int* boost = nullptr;           ///< per-lane boosted-pivot counters
};

struct Kernel;
/// A kernel reads its shape from its own descriptor: size-specialized
/// variants compiled for fixed dimensions ignore the runtime fields their
/// specialization pins down, the generic fallbacks consume them all.
using Fn = void (*)(const Kernel& k, const Args& a);

/// Self-descriptive kernel handle (libxsmm idiom: the make_* builders
/// resolve the body for one (op, shape, precision) with one switch over
/// function pointers; launch descriptors hold the handle by value).
struct Kernel {
  Fn fn = nullptr;
  int m = 0, n = 0, k = 0;  ///< problem shape (k = 0 for trsm/getf2)
  bool left = false;        ///< trsm side
  bool lower = false;       ///< trsm effective triangle
  bool unit = false;        ///< trsm diagonal
  Prec prec = Prec::kF64;   ///< element type the body operates on
};

/// C (m x n) = alpha * A (m x k) * B (k x n) + beta * C, Trans::No both
/// sides, per lane bit-identical to la::gemm (beta pass, then a single
/// k-ascending accumulation chain per element — exact for k <= KC = 256,
/// which covers every small size class routed through this layout).
/// Specialized over k in [1, 16].
Kernel make_gemm(int m, int n, int k, Prec prec = Prec::kF64);

/// Triangular solve, Trans::No: op over B (m x n) with the triangle A
/// (order m for left, n for right), per lane bit-identical to la::trsm
/// including its alpha scaling and its 16-blocked substitution structure
/// above order 16. Specialized over triangle orders in [1, 16].
Kernel make_trsm(bool left, bool lower, bool unit, int m, int n,
                 Prec prec = Prec::kF64);

/// Unblocked right-looking LU with partial pivoting and optional
/// small-pivot boosting, per lane bit-identical to la::getf2 (and so to
/// the fused panel kernel irr_getf2_fused, which wraps it): pivot search
/// with the NaN-freeze iamax semantics, full-width row swaps, guarded
/// reciprocal scaling, boost rule and LAPACK info latching all replicate
/// exactly. Generic only — the column loop is data-dependent, so there is
/// no profitable dimension to pin.
Kernel make_getf2(int m, int n, Prec prec = Prec::kF64);

}  // namespace irrlu::la::mk::ilv
