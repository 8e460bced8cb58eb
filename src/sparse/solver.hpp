// SparseDirectSolver — the user-facing facade reproducing the paper's
// three-phase pipeline (§III-A):
//   1. reordering & symbolic analysis: MC64-style matching/scaling (static
//      pivoting), nested dissection, assembly-tree construction;
//   2. numeric factorization on the (simulated) device, with a choice of
//      schedules (irr-batched, naive loop, legacy small-batch,
//      right-looking);
//   3. solve by forward/backward substitution, with optional iterative
//      refinement (the paper reports machine precision after one step).
#pragma once

#include <memory>
#include <vector>

#include "gpusim/device.hpp"
#include "ordering/mc64.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/csr.hpp"
#include "sparse/multifrontal.hpp"
#include "sparse/symbolic.hpp"

namespace irrlu::sparse {

struct SolverOptions {
  bool use_mc64 = true;  ///< matching + scaling before ordering
  ordering::NDOptions nd;
  FactorOptions factor;
  /// Cap on adaptive iterative refinement sweeps in solve(): refinement
  /// stops early once the componentwise backward error reaches
  /// refine_tolerance, stagnates, or diverges (see SolveReport).
  int max_refine_steps = 10;
  /// Componentwise backward-error target of the refinement loop; roughly
  /// 5x double machine epsilon by default.
  double refine_tolerance = 1e-15;
  /// Run solve_report()'s triangular solves as level-batched device
  /// kernels (MultifrontalFactor::solve_many) instead of the host-side
  /// reference sweep. solve_report_many() always runs on the device.
  bool solve_on_device = false;
  /// Classic LU-IR safety net (DESIGN.md §14): when the factor precision
  /// policy produced FP32 fronts and a solve cannot reach
  /// refine_tolerance, transparently refactor the same prepared matrix in
  /// full FP64 and re-run the solve, keeping the better result per
  /// request. SolveReport::refactored_fp64 records the escalation. No
  /// effect on pure-FP64 factorizations.
  bool fp64_fallback = true;
  /// Pivot-growth threshold that escalates a mixed-precision
  /// factorization to FP64 right at factor()/refactor() time: growth of
  /// this magnitude wipes out FP32's ~2^-24 relative accuracy before
  /// refinement even starts. Growth is only measured when
  /// factor.pivot_tau > 0, so the check is inert otherwise.
  double growth_refactor_threshold = 1e8;
};

/// Outcome classification of solve_report().
enum class SolveStatus {
  kConverged,  ///< backward error <= refine_tolerance
  kDegraded,   ///< refinement stalled or hit the cap above the tolerance;
               ///< x is the best iterate seen and berr quantifies it
  kFailed,     ///< factorization unusable: the solution contains NaN/Inf
               ///< (x is whatever was produced — do not consume it)
};

const char* to_string(SolveStatus s);

/// Structured result of one solve: the solution plus everything needed to
/// decide whether to trust it. The componentwise (Oettli–Prager) backward
/// error is <= 1 for any finite x, so a non-finite `berr` certifies
/// garbage — that is exactly the kFailed criterion; no silent path.
struct SolveReport {
  std::vector<double> x;
  SolveStatus status = SolveStatus::kFailed;
  double berr = 0;          ///< componentwise backward error of x
  int refine_steps = 0;     ///< refinement sweeps actually applied
  /// True when the mixed-precision LU-IR fallback kicked in: the FP32
  /// factorization could not reach the tolerance and the solver
  /// refactored in FP64 for this solve (SolverOptions::fp64_fallback).
  bool refactored_fp64 = false;
  /// Backward error after the initial solve and after every refinement
  /// sweep (including diverged sweeps that were rolled back).
  std::vector<double> berr_history;

  bool ok() const { return status == SolveStatus::kConverged; }
};

/// Per-level workload statistics (the data behind the paper's Figure 13).
struct LevelStats {
  int level = 0;       ///< 0 = root
  int batch = 0;       ///< number of fronts
  int min_dim = 0, max_dim = 0;
  double avg_dim = 0;
};

/// Host wall seconds of the last analyze(), split by sub-phase.
struct AnalyzeTimings {
  double mc64_s = 0;      ///< MC64 matching and scaling
  double graph_s = 0;     ///< column permutation and Graph::from_pattern
  double nd_s = 0;        ///< nested dissection
  double permute_s = 0;   ///< symmetric permutation and value preparation
  double symbolic_s = 0;  ///< symbolic analysis (fronts, assembly tree)
};

class SparseDirectSolver {
 public:
  explicit SparseDirectSolver(const SolverOptions& opts = {}) : opts_(opts) {}

  /// Phase 1: analyzes A (any square CSR matrix). Must precede factor().
  void analyze(const CsrMatrix& a);

  /// Phase 2: numeric factorization on `dev`. Requires analyze().
  void factor(gpusim::Device& dev);

  /// Re-factors a matrix with the *same sparsity pattern* but new values,
  /// reusing the ordering and symbolic analysis — the amortization the
  /// paper's introduction highlights for sequences of systems. The
  /// MC64 scaling/permutation from analyze() is re-applied to the new
  /// values (the matching itself is not recomputed) by one gather through
  /// the entry map analyze() recorded. Throws irrlu::Error, keeping the
  /// current factorization, when the pattern of a_new differs from the
  /// analyzed one (CsrMatrix::same_pattern).
  void refactor(gpusim::Device& dev, const CsrMatrix& a_new);

  /// Phase 3: solves A x = b (original, unpermuted space) with adaptive
  /// iterative refinement, returning the solution plus its convergence
  /// diagnostics. Never throws on numerical failure — inspect
  /// SolveReport::status. Requires factor(). Runs as a one-request batch
  /// of solve_report_many()'s refinement loop and FP64 fallback, sweeping
  /// on the host unless SolverOptions::solve_on_device is set.
  SolveReport solve_report(const std::vector<double>& b) const;

  /// Thin legacy wrapper over solve_report(): returns just x, but fails
  /// fast (throws irrlu::Error) when the report status is kFailed — a
  /// numerically unusable factorization no longer returns silent garbage.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Batched counterpart of solve_report() for many right-hand sides
  /// against one factorization: the initial solves and every refinement
  /// sweep run as a single interleaved many-RHS triangular sweep on the
  /// device (MultifrontalFactor::solve_many) instead of nrhs sequential
  /// solves, so the factor blocks are read once per front per sweep and
  /// the launch count is per-level, not per-RHS-per-level. Each request
  /// keeps the full per-request quality contract: its own adaptive
  /// refinement control flow (tolerance, best-iterate rollback,
  /// stagnation/divergence stops), its own berr history, its own
  /// SolveStatus — requests leave the batch individually as they converge
  /// and only the still-active residuals are re-solved. Always takes the
  /// device path regardless of SolverOptions::solve_on_device. A request's
  /// report does not depend on the other requests of its batch: with
  /// solve_on_device set it is bitwise solve_report()'s, unless a batch
  /// fallback refactor (SolveReport::refactored_fp64) re-solved it.
  std::vector<SolveReport> solve_report_many(
      const std::vector<std::vector<double>>& bs) const;

  /// Normwise relative residual of a solution:
  /// ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf).
  double residual(const std::vector<double>& x,
                  const std::vector<double>& b) const;

  const SymbolicAnalysis& symbolic() const { return sym_; }
  const MultifrontalFactor& numeric() const { return *factor_; }
  std::vector<LevelStats> level_stats() const;
  /// Whether the last analyze() actually applied MC64 scaling (false when
  /// disabled by options *or* when MC64 found the matrix structurally
  /// singular and the pipeline fell back to the unscaled path). User
  /// options are never mutated by that fallback.
  bool mc64_active() const { return mc64_active_; }
  /// Where the last analyze() spent its host time.
  const AnalyzeTimings& analyze_timings() const { return analyze_timings_; }

 private:
  /// Factor with the configured policy; escalates to FP64 when the
  /// mixed-precision factorization's measured pivot growth exceeds
  /// growth_refactor_threshold (see SolverOptions).
  void build_factor(gpusim::Device& dev);
  /// Replaces the current factorization with a full-FP64 one of the same
  /// prepared matrix (the LU-IR fallback step).
  void refactor_fp64() const;
  /// The one solve path behind solve_report() (a one-request batch) and
  /// solve_report_many(): refine_batch(), then the LU-IR FP64-refactor
  /// fallback when any request falls short of the tolerance.
  std::vector<SolveReport> solve_batch(
      const std::vector<std::vector<double>>& bs, bool on_device) const;
  /// Per-request adaptive refinement over a batch; every sweep runs on the
  /// device (MultifrontalFactor::solve_many over the still-active
  /// requests) or, with on_device false, on the host one column at a time.
  std::vector<SolveReport> refine_batch(
      const std::vector<std::vector<double>>& bs, bool on_device) const;
  /// Feeds the per-policy refine-step histogram
  /// ("solve.refine_steps.<policy>") when a tracer is attached.
  void observe_refine_steps(int steps) const;
  /// Fills a_prep_'s values from a_ through prep_map_: the scaled,
  /// permuted values without re-permuting the pattern.
  void prepare_values();

  const SolverOptions opts_;
  CsrMatrix a_;        ///< original matrix
  CsrMatrix a_prep_;   ///< scaled, column-permuted, symmetrically permuted
  /// Source of one a_prep_ entry: its entry index in a_ and the MC64
  /// scale row and column (a_'s row and column of that entry).
  struct PrepEntry {
    int src, row, col;
  };
  std::vector<PrepEntry> prep_map_;  ///< one per a_prep_ entry
  ordering::Mc64Result mc64_;
  ordering::Ordering ord_;
  SymbolicAnalysis sym_;
  /// Mutable: the LU-IR FP64 fallback rebuilds the factor inside const
  /// solve calls.
  mutable std::unique_ptr<MultifrontalFactor> factor_;
  bool analyzed_ = false;
  bool mc64_active_ = false;  ///< per-analysis state, not a user option
  AnalyzeTimings analyze_timings_;
};

}  // namespace irrlu::sparse
