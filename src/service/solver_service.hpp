// SolverService — a request-stream front end over SparseDirectSolver (the
// deployment shape the paper's introduction motivates: applications that
// "solve sequences of systems with the same sparsity pattern", Maxwell /
// circuit / power-grid workloads re-solving as values and source terms
// change). The service accepts a stream of (tenant, matrix, rhs) requests
// and amortizes the expensive phases across them:
//   - a (pattern, precision-policy)-keyed LRU cache of symbolic analyses
//     and numeric factors: requests whose matrix hashes
//     (CsrMatrix::pattern_hash) to a cached session with the same factor
//     precision skip analyze() entirely (refactor path), and requests
//     whose values are bit-identical to the cached factor skip
//     factorization too; FP32 factors are billed at their true (half)
//     resident byte cost by admission control;
//   - an interleaved many-RHS solve path: all pending right-hand sides
//     against one factor are gathered into a single batched triangular
//     sweep (SparseDirectSolver::solve_report_many), reading the factor
//     blocks once per front per sweep instead of once per RHS;
//   - admission control: a memory budget enforced *before* factorization
//     using the symbolic peak predictor
//     (SymbolicAnalysis::predicted_peak_bytes), evicting least-recently
//     used cached factors to make room and rejecting requests whose
//     predicted footprint cannot fit even in an empty cache.
// Every response retains the full per-request quality contract of
// solve_report(): its own SolveStatus, backward error, and refinement
// history. Counters stream into the attached trace::Tracer (and from there
// into the trace-summary JSON) as `service.*` / `service.tenant.<id>.*`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "sparse/csr.hpp"
#include "sparse/solver.hpp"

namespace irrlu::service {

struct ServiceOptions {
  /// Options applied to every per-pattern solver (ordering, factorization
  /// schedule, refinement policy).
  sparse::SolverOptions solver;
  /// Capacity of the pattern-keyed LRU cache (distinct sparsity patterns
  /// whose symbolic analysis + numeric factor stay resident). Minimum 1.
  std::size_t max_cached_patterns = 8;
  /// Admission-control budget on device memory, in bytes: before a
  /// factorization is admitted, cached factors are evicted (LRU) until
  /// `resident factor bytes + predicted peak of the incoming
  /// factorization <= budget`; a request whose predicted peak exceeds the
  /// budget alone is rejected (Admission::kRejectedMemory) without
  /// touching the device. 0 = unlimited.
  std::size_t memory_budget_bytes = 0;
};

/// Admission-control verdict attached to every response.
enum class Admission {
  kAccepted,
  /// Predicted factorization peak exceeds memory_budget_bytes even with
  /// the cache fully evicted; the request was refused before any device
  /// allocation and its report is empty with status kFailed.
  kRejectedMemory,
};

const char* to_string(Admission a);

/// One unit of work: solve `a x = b` on behalf of `tenant`.
struct SolveRequest {
  std::string tenant;
  sparse::CsrMatrix a;
  std::vector<double> b;
  /// Per-request factor precision policy (DESIGN.md §14). Sessions are
  /// keyed by (pattern, policy): a tenant asking for kF32 never reuses —
  /// and is never served by — a kF64 factor of the same pattern, because
  /// the factors are numerically different objects with different
  /// footprints. Unset = the service-wide
  /// ServiceOptions::solver.factor.precision.
  std::optional<sparse::PrecisionPolicy> precision;
};

/// Per-request outcome: the numerical report plus the service-level
/// provenance (what was reused, how the request was batched).
struct SolveResponse {
  sparse::SolveReport report;
  Admission admission = Admission::kAccepted;
  std::uint64_t pattern_hash = 0;
  /// analyze() was skipped for this request — its pattern was already
  /// cached, or an earlier request in the same flush paid for the analyze
  /// it shares.
  bool symbolic_cache_hit = false;
  /// Factorization was skipped too — a factor with bit-identical values
  /// was already resident, or an earlier same-values request in the same
  /// flush paid for the factorization this request shares.
  bool factor_reused = false;
  /// Number of right-hand sides in the interleaved batch this request was
  /// solved in (>= 1 for accepted requests).
  int batch_width = 0;
};

struct TenantStats {
  long requests = 0;
  long symbolic_hits = 0;
  long factor_reuses = 0;
  long rejected = 0;
};

/// Service-lifetime counters (mirrored into the tracer when one is
/// attached to the device).
struct ServiceStats {
  long requests = 0;       ///< requests flushed (accepted + rejected)
  long analyze_runs = 0;   ///< symbolic analyses actually executed
  long symbolic_hits = 0;  ///< requests that skipped analyze()
  long factors = 0;        ///< fresh factorizations (new pattern)
  long refactors = 0;      ///< refactorizations (cached pattern, new values)
  long factor_reuses = 0;  ///< requests that skipped factorization entirely
  long evictions = 0;      ///< cache entries dropped (LRU or memory budget)
  long rejected = 0;       ///< requests refused by admission control
  long batches = 0;        ///< interleaved solve_report_many sweeps issued
  long batched_rhs = 0;    ///< right-hand sides carried by those sweeps
  std::map<std::string, TenantStats> tenants;

  /// Fraction of flushed requests that skipped symbolic analysis — the
  /// headline amortization metric of the service.
  double symbolic_hit_rate() const {
    return requests > 0 ? static_cast<double>(symbolic_hits) /
                              static_cast<double>(requests)
                        : 0.0;
  }
};

class SolverService {
 public:
  /// The device reference must outlive the service; all factorizations and
  /// batched solves run on it.
  explicit SolverService(gpusim::Device& dev, const ServiceOptions& opts = {});
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Enqueues a request; no work happens until flush(). Requests are
  /// answered in submission order, but the service is free to gather
  /// same-pattern requests into shared factorizations and interleaved
  /// solve batches.
  void submit(SolveRequest req);

  /// Processes every pending request and returns their responses in
  /// submission order. Grouping: requests are keyed by sparsity pattern
  /// (hash + exact same_pattern confirmation, so a hash collision can
  /// never alias two structures), each group resolves to a cached or
  /// fresh per-pattern solver session, and within a group requests with
  /// bit-identical values share one factorization and one interleaved
  /// many-RHS sweep. Numerical failures never throw — they surface as
  /// SolveReport::status on the individual response.
  std::vector<SolveResponse> flush();

  /// submit() every request, then flush().
  std::vector<SolveResponse> solve(std::vector<SolveRequest> reqs);

  const ServiceStats& stats() const { return stats_; }
  std::size_t pending() const { return pending_.size(); }
  /// Distinct sparsity patterns currently cached.
  std::size_t cached_patterns() const { return sessions_.size(); }
  /// Device bytes held by cached factors (the "resident" term admission
  /// control budgets against).
  std::size_t resident_factor_bytes() const;

  /// Read-only view of the cached per-pattern solver holding `a`'s
  /// sparsity pattern under `precision` (unset = the service default
  /// policy), nullptr when not cached. Does not touch the LRU order —
  /// this is the oracle tests and bench_service use to compare a
  /// cached-refactor factor bit-for-bit against an uncached twin.
  const sparse::SparseDirectSolver* peek(
      const sparse::CsrMatrix& a,
      std::optional<sparse::PrecisionPolicy> precision = std::nullopt) const;

 private:
  struct Session;

  Session* find_session(const sparse::CsrMatrix& a, std::uint64_t hash,
                        sparse::PrecisionPolicy policy);
  /// Evicts LRU sessions (excluding `keep`) until the cache has room for
  /// one more entry and, when a budget is set, until
  /// `resident + incoming_peak <= budget`. Returns false when the budget
  /// cannot be met even with everything else evicted.
  bool admit(std::size_t incoming_peak, const Session* keep);
  void bump(const char* name, double v);
  /// Counts one flushed request's outcome in ServiceStats, the tenant's
  /// TenantStats and the mirrored tracer counters.
  void account(const std::string& tenant, const SolveResponse& r);

  gpusim::Device& dev_;
  const ServiceOptions opts_;
  std::vector<SolveRequest> pending_;
  std::vector<std::unique_ptr<Session>> sessions_;
  ServiceStats stats_;
  std::uint64_t lru_tick_ = 0;
};

}  // namespace irrlu::service
