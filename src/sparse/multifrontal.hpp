// Numeric multifrontal LU factorization on the simulated device (§III-A +
// §V-B): traverses the assembly tree level by level from the leaves,
// factoring all fronts of a level as one irregular batch with the irrLU /
// irrTRSM / irrGEMM kernels — or with one of the baseline schedules the
// paper compares against (Table I, Figure 14).
//
// Factor storage: the L/U blocks of every front (L11\U11, U12, L21) are
// extracted into a compact factor store for the solve phase; the square
// working fronts can then be released. Two memory disciplines are offered
// (the paper: "if the entire assembly tree does not fit in the device
// memory, the factorization is split in multiple traversals of subtrees"):
//   - kAllUpfront: every front allocated for the whole factorization
//     (fastest, maximal footprint);
//   - kStackedLevels: only two adjacent levels of fronts are live at any
//     time — a level is freed as soon as its Schur complements have been
//     absorbed by its parents (batched engine only).
#pragma once

#include <memory>
#include <vector>

#include "gpusim/device.hpp"
#include "irrblas/irr_kernels.hpp"
#include "sparse/precision.hpp"
#include "sparse/symbolic.hpp"

namespace irrlu::sparse {

/// Factorization schedule.
enum class Engine {
  kBatched,          ///< irrLU-GPU batched per level (the paper's solution)
  kLooped,           ///< naive per-front kernel loop (cuBLAS/cuSOLVER loop)
  kLegacySmallBatch, ///< STRUMPACK-v6.3.1-style: batch only fronts < 32,
                     ///< loop the rest, synchronize per level
  kRightLooking,     ///< SuperLU-style: postorder per-front with eager
                     ///< scatter and per-front synchronization
};

// MemoryMode (the working-front memory discipline) lives in
// sparse/symbolic.hpp so the symbolic phase can predict either
// discipline's peak footprint; it is re-exported here via that include.

const char* to_string(Engine e);

struct FactorOptions {
  Engine engine = Engine::kBatched;
  MemoryMode memory = MemoryMode::kAllUpfront;
  /// Figure-14 hybrid ("cuBLAS GEMM in a loop for sizes > 256"): within
  /// the batched engine, fronts of order d = s + u > threshold stay in
  /// their level's batch for the norm, irrLU, row swaps, both TRSMs and
  /// the growth scan; only their Schur GEMM leaves the batch, as one
  /// launch per front. A GEMM-schedule knob only: factor bits are the same
  /// for every value. 0 disables.
  int hybrid_gemm_threshold = 256;
  /// Small-pivot recovery threshold: during the panel factorization a pivot
  /// with magnitude below pivot_tau * ||F||_max (per front, where ||F||_max
  /// is the max-magnitude entry of the assembled front *before*
  /// elimination) is replaced by a signed perturbation of that magnitude
  /// (SuperLU-style boosting), so one degenerate front never poisons its
  /// batch siblings with NaN/Inf. Boost counts and pivot growth are
  /// reported through FactorReport. <= 0 disables recovery (and the norm /
  /// growth launches) entirely.
  double pivot_tau = 1e-10;
  /// Front-factorization precision policy (classic LU-IR, DESIGN.md §14):
  /// kF64 factors every level in double — bit-identical to the
  /// pre-precision code path; kF32 factors every level in single (half the
  /// simulated flop time and half the front/factor bytes, FP64 accuracy
  /// recovered by the solver's iterative refinement); kAdaptive keeps the
  /// top kAdaptiveRootLevels levels — the root path, where pivot growth
  /// concentrates — in double and factors the deeper levels in single.
  /// Precision is uniform within a level, so every engine's batch groups
  /// stay single-precision-class.
  PrecisionPolicy precision = PrecisionPolicy::kF64;
};

/// Per-factorization numerical diagnostics (tentpole of the robustness
/// layer): filled during the constructor, with the condition estimate
/// computed lazily on first request.
struct FactorReport {
  int fronts = 0;             ///< fronts factored
  long boosted_pivots = 0;    ///< pivots replaced by the boost rule
  int zero_pivot_fronts = 0;  ///< fronts with an *exactly* zero pivot
  /// max over fronts of ||F after factorization||_max / ||F before||_max —
  /// a cheap element-growth proxy; large values flag unstable elimination.
  /// 0 when pivot_tau disabled the diagnostics.
  double pivot_growth = 0;
  /// Peak device bytes the symbolic analysis predicted for the effective
  /// memory mode (after any engine fallback), and the peak actually
  /// measured over the constructor's allocation window — printed side by
  /// side by ablation_memory, maxwell_solver --mem-report, and the trace
  /// summary.
  std::size_t predicted_peak_bytes = 0;
  std::size_t measured_peak_bytes = 0;
  /// Precision policy this factorization ran under and the precision each
  /// level actually used (index = level, level 0 = root). With the default
  /// kF64 policy every entry is kF64 and fp32_fronts is 0.
  PrecisionPolicy precision_policy = PrecisionPolicy::kF64;
  std::vector<Precision> level_precision;
  long fp32_fronts = 0;  ///< fronts factored in single precision
};

/// Owns the factored fronts (compact device storage) and performs solves.
class MultifrontalFactor {
 public:
  /// Assembles and factors `a_perm` (already scaled and permuted). The
  /// matrix values and the symbolic analysis must describe the same
  /// pattern. The compact factors stay alive for subsequent solves.
  MultifrontalFactor(gpusim::Device& dev, const CsrMatrix& a_perm,
                     const SymbolicAnalysis& sym, const FactorOptions& opts);

  /// Solves L U x = P b in the permuted space, overwriting x (length n;
  /// other lengths throw). Pivoting is restricted to the fronts' diagonal
  /// blocks, matching the factorization. Host-side reference
  /// implementation.
  void solve(std::vector<double>& x) const;

  /// The same solve for nrhs right-hand sides, executed as level-batched
  /// kernels on the device: X is column-major n x nrhs (ld = n, in the
  /// permuted space, one RHS per column), overwritten with the solutions.
  /// Per non-empty level one forward launch (leaves to root) and one
  /// backward launch (root to leaves), with one thread block per front
  /// that reads its factor blocks once for all nrhs columns — the
  /// interleaved batch-solver access pattern ("Efficient Interleaved Batch
  /// Matrix Solvers for CUDA", PAPERS.md). On real hardware the forward
  /// sweep's scatter into shared ancestor entries would need atomics; the
  /// simulator runs those blocks in order, and the level schedule already
  /// guarantees child-before-parent ordering. One device allocation (the
  /// x staging) per call under every precision policy: FP32 fronts are
  /// read in place, each block widening its factor blocks exactly
  /// (host_blocks). Column j's bits equal those of a one-column call on
  /// column j alone, so a solution does not depend on its batch.
  void solve_many(double* x, int nrhs) const;
  /// Convenience overload: x.size() must equal n * nrhs.
  void solve_many(std::vector<double>& x, int nrhs) const;

  /// Solves (L U)^T x = b in the permuted space, overwriting x (length n):
  /// the transpose of solve(), obtained by transposing every per-front
  /// elimination step and reversing the two sweeps. Host-side; needed by
  /// the Hager condition estimator.
  void solve_transpose(std::vector<double>& x) const;

  /// Simulated device seconds spent in the numeric factorization.
  double factor_seconds() const { return factor_seconds_; }
  long launch_count() const { return launches_; }
  long sync_count() const { return syncs_; }
  double sync_wait_seconds() const { return sync_wait_; }
  /// Peak bytes of device memory this factorization added on top of what
  /// was live when the constructor started (working fronts + factor store
  /// + update lists + assembly data + descriptors + workspaces), measured
  /// over the constructor's windowed high-water mark. Comparable to
  /// SymbolicAnalysis::predicted_peak_bytes of the effective memory mode.
  std::size_t peak_device_bytes() const { return peak_bytes_; }
  /// Bytes retained after factorization (the compact factors + pivots).
  std::size_t factor_bytes() const;
  /// True when every front factored without a zero pivot. Boosted (small
  /// but nonzero) pivots do not clear this flag — only exact zeros do, the
  /// LAPACK `info` convention.
  bool numerically_ok() const { return ok_; }

  /// Numerical diagnostics collected during factorization.
  const FactorReport& report() const { return report_; }

  /// The device this factorization ran on — lets callers time their own
  /// phases (simulated clock, tracer histograms) without threading the
  /// device reference alongside the factor.
  gpusim::Device& device() const { return dev_; }

  /// Raw compact factor storage (every front's L11\U11 | U12 | L21 blocks
  /// concatenated in postorder) — read-only, the bit-identity oracle the
  /// service tests and bench_service compare cached-refactor factors
  /// against their uncached twins with. FP32-policy fronts live in the
  /// single-precision store instead (factor_data_f32()).
  const double* factor_data() const { return factor_store_.data(); }
  std::size_t factor_elems() const { return factor_store_.size(); }
  const float* factor_data_f32() const { return factor_store_f_.data(); }
  std::size_t factor_elems_f32() const { return factor_store_f_.size(); }
  /// Every front's pivot rows (front-local, one per separator column),
  /// concatenated in postorder.
  const int* pivot_data() const { return ipiv_storage_.data(); }
  std::size_t pivot_count() const { return ipiv_storage_.size(); }
  /// Precision the given level's fronts were factored (and stored) in.
  Precision level_prec(int lvl) const {
    return level_prec_[static_cast<std::size_t>(lvl)];
  }
  /// True when any level was factored in single precision — the signal the
  /// solver's FP64-refactor fallback keys on.
  bool has_fp32() const {
    for (Precision p : level_prec_)
      if (p == Precision::kF32) return true;
    return false;
  }

  /// Hager/Higham 1-norm condition estimate of the factored (prepared)
  /// matrix: ||A_prep||_1 * est(||A_prep^{-1}||_1), the latter from a few
  /// solve()/solve_transpose() pairs. Computed on first call, then cached.
  /// Returns +inf when a solve produces non-finite entries.
  double condest_1() const;

 private:
  class Pipeline;  ///< one factorization's stages (multifrontal.cpp)

  gpusim::Device& dev_;
  const SymbolicAnalysis& sym_;
  gpusim::DeviceBuffer<double> factor_store_;
  gpusim::DeviceBuffer<float> factor_store_f_;  ///< FP32 fronts' blocks
  std::vector<Precision> level_prec_;  ///< per-level factor precision
  gpusim::DeviceBuffer<int> ipiv_storage_;
  gpusim::DeviceBuffer<int> upd_storage_;  ///< flattened update index lists
  std::vector<std::size_t> fstore_offset_;  ///< into factor_store_
  std::vector<std::size_t> ipiv_offset_;
  std::vector<std::size_t> upd_offset_;
  double factor_seconds_ = 0;
  long launches_ = 0;
  long syncs_ = 0;
  double sync_wait_ = 0;
  std::size_t peak_bytes_ = 0;
  bool ok_ = true;
  FactorReport report_;
  int n_ = 0;                      ///< order of the factored matrix
  double anorm1_ = 0;              ///< ||A_prep||_1, for condest_1()
  mutable double condest_ = -1.0;  ///< cached condest_1(), -1 = not yet

  // Compact factor blocks of front f: L11\U11 (s x s), then U12 (s x u,
  // ld s), then L21 (u x s, ld u). fstore_offset_[f] indexes into the
  // store matching the front's level precision (double or float).
  Precision front_prec(int f) const {
    return level_prec_[static_cast<std::size_t>(
        sym_.fronts[static_cast<std::size_t>(f)].level)];
  }
  const double* f11(int f) const {
    return factor_store_.data() + fstore_offset_[static_cast<std::size_t>(f)];
  }
  const double* u12(int f) const {
    const Front& fr = sym_.fronts[static_cast<std::size_t>(f)];
    return f11(f) + static_cast<std::size_t>(fr.s()) * fr.s();
  }
  const double* l21(int f) const {
    const Front& fr = sym_.fronts[static_cast<std::size_t>(f)];
    return u12(f) + static_cast<std::size_t>(fr.s()) * fr.u();
  }
  const float* f11f(int f) const {
    return factor_store_f_.data() +
           fstore_offset_[static_cast<std::size_t>(f)];
  }
  int* front_ipiv(int f) const {
    return ipiv_storage_.data() + ipiv_offset_[static_cast<std::size_t>(f)];
  }

  // Front f's factor blocks in double, for the host sweeps and the
  // solve_many kernel blocks: FP64 fronts return direct store pointers
  // (bit-identical to the pre-precision path); FP32 fronts widen their
  // contiguous block exactly into `scratch` first (valid until the next
  // call with the same scratch).
  struct HostBlocks {
    const double* f11;
    const double* u12;
    const double* l21;
  };
  HostBlocks host_blocks(int f, std::vector<double>& scratch) const;
};

}  // namespace irrlu::sparse
