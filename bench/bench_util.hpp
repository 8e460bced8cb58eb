// Shared helpers for the paper-reproduction benchmark drivers: device
// construction, the paper's workload generators, and FLOP-rate reporting.
//
// Reported times are *simulated device seconds* from the gpusim cost model
// (see DESIGN.md §1: the paper's GPUs are simulated); every kernel still
// executes its numerics for real, so the results double as correctness
// runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/cli.hpp"
#include "common/host_pool.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gpusim/device.hpp"
#include "lapack/flops.hpp"
#include "lapack/microkernel.hpp"
#include "trace/report.hpp"
#include "trace/session.hpp"

namespace irrlu::bench {

inline gpusim::DeviceModel model_by_name(const std::string& name) {
  if (name == "a100") return gpusim::DeviceModel::a100();
  if (name == "mi100") return gpusim::DeviceModel::mi100();
  if (name == "cpu") return gpusim::DeviceModel::xeon6140x2();
  IRRLU_CHECK_MSG(false, "unknown device '" << name << "'");
  return {};
}

/// The paper's Fig. 10/11 batch: `count` square matrices with sizes
/// uniformly sampled in [lo, hi].
inline std::vector<int> paper_batch_sizes(int count, int lo, int hi,
                                          std::uint64_t seed) {
  Rng rng(seed);
  return rng.uniform_sizes(count, lo, hi);
}

/// Aggregate LU operation count over a batch (all low-order terms kept,
/// §V-A).
inline double batch_getrf_flops(const std::vector<int>& n) {
  double f = 0;
  for (int v : n) f += la::getrf_flops(v, v);
  return f;
}

/// Aggregate TRSM count: sum n_i * m_i^2 (Fig. 6 caption).
inline double batch_trsm_flops(const std::vector<int>& m,
                               const std::vector<int>& n) {
  double f = 0;
  for (std::size_t i = 0; i < m.size(); ++i) f += la::trsm_flops(m[i], n[i]);
  return f;
}

inline double gflops(double flops, double seconds) {
  return seconds > 0 ? flops / seconds / 1e9 : 0.0;
}

/// The commit the benchmark binary ran against: GITHUB_SHA when CI set
/// it, otherwise `git rev-parse HEAD`, otherwise "unknown" (tarball
/// builds). Never throws.
inline std::string bench_git_sha() {
  if (const char* sha = std::getenv("GITHUB_SHA"); sha != nullptr && *sha)
    return sha;
#if defined(__unix__) || defined(__APPLE__)
  if (FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    const std::size_t got = fread(buf, 1, sizeof buf - 1, p);
    const int rc = pclose(p);
    buf[got] = '\0';
    if (char* nl = std::strchr(buf, '\n')) *nl = '\0';
    if (rc == 0 && std::strlen(buf) >= 7) return buf;
  }
#endif
  return "unknown";
}

/// Emits the "meta" provenance object every BENCH_*.json carries (see the
/// schema docs below): the git commit, the UTC generation timestamp, the
/// hostname, the host thread count and the packed engine's vector width.
/// Call between kv("schema", ...) and the payload keys.
inline void write_bench_meta(json::Writer& w) {
  w.key("meta");
  w.begin_object(/*compact=*/true);
  w.kv("git_sha", bench_git_sha());
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  if (std::tm tm{}; gmtime_r(&now, &tm) != nullptr)
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm);
  w.kv("generated_utc", stamp);
  char host[256] = "unknown";
#if defined(__unix__) || defined(__APPLE__)
  if (gethostname(host, sizeof host - 1) != 0)
    std::strcpy(host, "unknown");
  host[sizeof host - 1] = '\0';
#endif
  w.kv("hostname", host);
  w.kv_int("host_threads", default_host_threads());
  w.kv_int("engine_vector_bytes", la::mk::vector_bytes());
  w.end_object();
}

/// Standard tracing hook for the driver binaries: `--trace path.json`
/// (or the IRRLU_TRACE environment variable) attaches a recorder to `dev`
/// and writes the Chrome trace plus the "irrlu-trace-summary-v2" JSON on
/// destruction. With neither set the session is disabled and the device
/// runs the untraced fast path.
inline std::unique_ptr<trace::TraceSession> make_trace_session(
    gpusim::Device& dev, const CliArgs& args) {
  return std::make_unique<trace::TraceSession>(dev,
                                               args.get_string("trace", ""));
}

/// Variant for drivers that construct several Devices in one run (one per
/// memory mode, per device model, per sweep point): inserts ".<suffix>"
/// before the ".json" extension of the resolved trace path so each
/// configuration writes its own Chrome trace + summary pair. Resolution
/// order matches the single-device overload: `--trace`, then IRRLU_TRACE,
/// else a disabled session.
inline std::unique_ptr<trace::TraceSession> make_trace_session(
    gpusim::Device& dev, const CliArgs& args, const std::string& suffix) {
  std::string path = args.get_string("trace", "");
  if (path.empty()) {
    const char* env = std::getenv("IRRLU_TRACE");
    if (env != nullptr) path = env;
  }
  if (!path.empty() && !suffix.empty()) {
    const std::string ext = ".json";
    if (path.size() > ext.size() &&
        path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
      path.insert(path.size() - ext.size(), "." + suffix);
    } else {
      path += "." + suffix;
    }
  }
  return std::make_unique<trace::TraceSession>(dev, path);
}

// ---------------------------------------------------------------------------
// Trace summary schema ("irrlu-trace-summary-v3", written by
// trace::write_summary_json next to every Chrome trace; read back with
// trace::read_summary_json, which also accepts v1/v2 files). Top level:
//
//   schema            "irrlu-trace-summary-v3"
//   device            DeviceModel name the run simulated
//   peak_gflops       roofline compute peak (num_sms * peak_flops_per_sm *
//                     compute_efficiency)
//   peak_gbs          roofline memory bandwidth
//   dropped_launches  launches past the recorder cap (0 for healthy runs)
//   rows              one entry per (scope x kernel) pair:
//
//   scope             full scope path at enqueue ("factor/level=3/panel")
//   kernel            LaunchConfig name
//   launches, blocks  counts
//   flops, bytes      work recorded by the kernel bodies
//   sim_seconds       sum of per-launch device intervals (end - start);
//                     overlapping launches double-count by design
//   excl_seconds      exclusive attribution; per-kernel sums across scopes
//                     reproduce Device::profile() exactly
//   wall_seconds      real host seconds executing the kernel bodies
//   gflops, gbs       flops/bytes over sim_seconds
//
// Rows are keyed by (scope, kernel), so per-phase numbers compare PR over
// PR as long as the scope labels stay stable.
//
// v2 adds an optional "memory" object (present when the run recorded any
// device allocations; see trace/memory.hpp, read back with
// trace::read_memory_summary):
//
//   peak_bytes        high-water device bytes over the traced run
//   current_bytes     bytes still live at write time (0 after teardown)
//   events            allocation/free events recorded
//   dropped_events    events past the recorder cap (aggregate stats stay
//                     exact even when > 0)
//   tags              one entry per allocation tag, sorted by peak_bytes
//                     descending: {tag, allocs, frees, current_bytes,
//                     peak_bytes, lifetime_bytes}
//
// v3 adds two more optional objects (set IRRLU_TRACE_ANALYSIS=0 to
// suppress the first; both are read back with present=false on absence):
//
//   analysis          critical-path / utilization / what-if results from
//                     trace::analyze_trace (trace/analysis.hpp; read back
//                     with trace::read_analysis_summary). Present when the
//                     run recorded launches. Keys: valid, caveat?,
//                     makespan_s, critical_path_s, path_nodes,
//                     kernels[] and scopes[] (top-10 on-path contributors:
//                     {name, launches, seconds, run_s, stall_s, slack_s}),
//                     streams[] ({stream, launches, busy_s, idle_s,
//                     busy_fraction, gaps, largest_gap_s, waits_on[]}),
//                     what_if[] ({kind, target, k, projected_s, speedup,
//                     bound})
//   histograms        the Tracer's latency-histogram registry
//                     (trace/histogram.hpp; read back with
//                     trace::read_histograms_summary). Present when any
//                     phase observed a latency. One key per metric
//                     ("service.factor_s", "solve.refine_s", ...):
//                     {count, sum, min, max, p50, p90, p99, underflow?,
//                     buckets[] ({le, count}, log-spaced, 8 per octave)}
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// BENCH_blas.json schema (written by bench/bench_blas_core, schema id
// "irrlu-bench-blas-v1"): host wall-clock perf trajectory of the packed
// micro-kernel engine vs the retained naive reference (la::ref). Top level:
//
//   {
//     "schema":  "irrlu-bench-blas-v1",
//     "meta":    { provenance stamp, see below },
//     "unit":    "ns",
//     "classes": [ <class>, ... ]
//   }
//
// Every BENCH_*.json carries the same "meta" object (write_bench_meta):
//
//   git_sha          commit of the producing build (GITHUB_SHA in CI,
//                    `git rev-parse HEAD` locally, "unknown" otherwise)
//   generated_utc    ISO-8601 UTC generation time
//   hostname         machine that produced the numbers (wall-clock columns
//                    are machine-dependent; compare only same-host runs)
//   host_threads     worker threads a Device runs independent blocks on
//                    and nested dissection bisects on
//                    (default_host_threads(), IRRLU_HOST_THREADS)
//   engine_vector_bytes
//                    vector register width of the packed engine's tile
//                    (la::mk::vector_bytes(): 64 AVX-512, 32 AVX, 16
//                    portable); it sets the tile shape and FP32 speed.
//                    FP32 factor bits and pivots also differ between
//                    builds with and without FMA
//
// tools/bench_compare ignores "meta" when gating (timestamps and hosts
// differ between baseline and candidate by construction).
//
// Each <class> is one shape class from the Figure-13-style front-size
// distribution (leaf / mid / sep / root representative (s, u) pairs mapped
// onto the GEMM Schur update u x u x s and the TRSM panel solves), or one
// of the gemm_odd_* LIBXSMM wrap-test shapes (24x23x21 at ld 32, 35x16x20
// at ld 35; "_batch" rows time 999 / 1024 independent calls of the shape):
//
//   name             "gemm_nn_mid", "trsm_ll_root", ... (stable key)
//   op               "gemm" | "trsm"
//   transa, transb   "N" | "T"       (gemm; "N"/"N" placeholders for trsm)
//   side, uplo       "L"/"R", "L"/"U" (trsm; placeholders for gemm)
//   m, n, k          problem extents (k is 0 for trsm)
//   ld               leading-dimension floor (0: tight; every operand's
//                    ld is max(rows, ld))
//   flops            operation count for one timed call (la::*_flops,
//                    times batch)
//   engine_median_ns median wall-clock ns per call through la::gemm/la::trsm
//   naive_median_ns  same through la::ref::gemm/la::ref::trsm (the pre-
//                    engine algorithms, compiled with project-default flags)
//   engine_gflops, naive_gflops    flops / median_ns
//   speedup          naive_median_ns / engine_median_ns
//   batch            matrices per timed call (1 except the
//                    gemm_odd_*_batch rows)
//   prec             "f64" | "f32" — element type of both sides of the
//                    row. Every class has an f32 twin ("_f32" suffix,
//                    DESIGN.md §14) in single precision; the ns ratio
//                    f64-row / f32-row is the throughput win the FP32
//                    multifrontal levels inherit
//
// Medians are taken over a work-scaled, odd repetition count after a
// wall-time-bounded warm-up (a few ms of sustained work, so microsecond-
// scale bodies are timed at steady-state frequency rather than mid-ramp).
// Compare engine_median_ns per class across PRs (the rows are stable);
// speedup tracks the engine against the frozen pre-PR baseline.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// BENCH_factor.json schema (written by bench/bench_factor, schema id
// "irrlu-bench-factor-v1"): end-to-end host wall-clock of the sparse solver
// pipeline over a family of Maxwell torus systems, with the device memory
// pool on vs off. Top level:
//
//   {
//     "schema":  "irrlu-bench-factor-v1",
//     "device":  DeviceModel name,
//     "repeats": refactor repetitions per configuration,
//     "points":  [ <point>, ... ]
//   }
//
// Each <point> is one torus resolution:
//
//   ntheta, ncross    mesh parameters (torus(ntheta, ncross, ncross))
//   n, nnz            system dimension and nonzero count
//   configs           two entries, pool on first:
//     pool                    true | false
//     analyze_wall_s          phase-1 host seconds (ordering + symbolic)
//     analyze_mc64_wall_s     its MC64, nested-dissection and symbolic
//     analyze_nd_wall_s       sub-phases (SparseDirectSolver::
//     analyze_symbolic_wall_s analyze_timings), medians over the samples
//     factor_wall_s           first numeric factorization, host seconds
//     refactor_wall_median_s  median over `repeats` same-pattern refactors
//                             (the sequence-of-systems scenario the pool
//                             accelerates; every allocation recycles here)
//     solve_wall_s            one solve with refinement, host seconds
//     factor_sim_s            simulated device seconds — bitwise equal
//                             between the two configs by construction
//     launches, allocs        device launch / allocation event counts
//                             (also bitwise equal pool on/off)
//     host_allocs             actual host mallocs behind those events;
//                             the pool makes this strictly smaller
//     pool_hits, pool_misses, pool_bytes_served, pool_hit_rate
//                             MemPool::Stats (zero when pool is false)
//     peak_bytes              device high-water mark (equal on/off)
//     residual                normwise residual of the final solve
//   refactor_speedup  pool-off / pool-on refactor medians (wall clock,
//                     machine-dependent — report, do not gate on it)
//   host_alloc_ratio  pool-on / pool-off host mallocs (deterministic)
//   precision         FP32-vs-FP64 LU-IR A/B on the same point
//                     (DESIGN.md §14; fresh solver per config, pool on):
//     configs                  two entries, f32 first:
//       policy                     "f32" | "f64"
//       factor_wall_s              first numeric factorization, host s
//       factor_sim_s               simulated device seconds
//       fp32_fronts                fronts factored in single precision
//       solve_status               "converged" | "degraded" | "failed"
//       refine_steps, berr         refinement sweeps and final
//                                  componentwise backward error
//       refactored_fp64            the solve escalated to the FP64
//                                  fallback refactor
//     sim_speedup              f64 / f32 factor_sim_s (deterministic)
//
// Top level additionally carries (non-quick runs):
//
//   precision_anchor_points   [ { ntheta, ncross, n, precision }, ... ] —
//                             two large meshes ({48,12}, {64,16}) run for
//                             the precision A/B only (no pool columns;
//                             they would dominate the runtime)
//   precision_family_sim_speedup
//                             work-weighted family aggregate: sum of f64
//                             factor_sim_s over points + anchors divided
//                             by the f32 sum; the driver exits nonzero
//                             below 1.5 on the full family, and whenever
//                             an FP32-path solve fails to converge on a
//                             point where pure FP64 converges without
//                             fallback
//
// The torus family mixes fat 3D points (ntheta x ncross x ncross with
// ncross >= 6) with thin-tube points (ncross == 2) whose assembly trees
// consist entirely of small fronts, the paper's deep-level regime.
//
// The driver itself exits nonzero when any deterministic invariant fails
// (sim time / launches / allocs / peak differ between pool configs, or
// the pool does not reduce host_allocs), and on the precision conditions
// above; ctest runs it as bench_factor_smoke.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// BENCH_service.json schema (written by bench/bench_service, schema id
// "irrlu-bench-service-v1"): the solver-service layer — interleaved
// many-RHS solve vs sequential solves, and a replay stream through the
// pattern-keyed symbolic/factor cache. Top level:
//
//   {
//     "schema":  "irrlu-bench-service-v1",
//     "device":  DeviceModel name,
//     "n":       dimension of the many-RHS Maxwell system,
//     "manyrhs": [ <width>, ... ],
//     "replay":  { ... }
//   }
//
// Each <width> compares one batch size on one shared factorization; the
// rows run every width for an FP64 factor, then for an FP32 factor of the
// same system:
//
//   prec                         "f64" | "f32" — factor precision policy
//                                (FP32 rows refine in FP64, LU-IR; the
//                                driver fails if one fell back to FP64)
//   nrhs                         right-hand sides in the batch
//   seq_sim_s, batched_sim_s     simulated device seconds of nrhs
//                                sequential solve_report() calls vs one
//                                solve_report_many() (deterministic)
//   speedup                      seq_sim_s / batched_sim_s; asserted
//                                >= 1 at every width and >= 2 at
//                                nrhs >= 64, for both precisions
//   seq_wall_s, batched_wall_s   host wall clock (report only)
//   seq_launches, batched_launches
//                                device launches per phase: two per
//                                non-empty level per sweep in both, one
//                                sweep per RHS vs one per batch
//   batched_allocs               device allocations of the batched phase:
//                                one per solve_many sweep (the initial
//                                solve plus each refinement sweep)
//   statuses_match               per-request SolveStatus identical across
//                                the two paths (asserted)
//   max_berr                     worst componentwise backward error of the
//                                interleaved path
//
// "replay" summarizes the request stream through SolverService (three
// tenants, three sparsity patterns, values perturbed between same-pattern
// requests, flush window 8):
//
//   requests, patterns, flushes  stream shape
//   analyze_runs                 symbolic analyses executed — asserted
//                                == patterns (each analyzed exactly once)
//   symbolic_hits, hit_rate      requests that skipped analyze();
//                                hit_rate asserted >= 0.8
//   factors, refactors, factor_reuses
//                                fresh / same-pattern-new-values /
//                                same-values factorization outcomes
//   batches, batched_rhs         interleaved sweeps issued and the RHS
//                                they carried
//   evictions, rejected          cache evictions, admission rejections
//   factor_bits_identical        cached-refactor factor store bitwise
//                                equal to an uncached twin (asserted; the
//                                replay disables MC64, whose scaling is
//                                values-dependent by design)
//   wall_s                       host wall clock of all flushes (report
//                                only)
//
// The driver exits nonzero when any asserted invariant fails; ctest runs
// it as bench_service_smoke.
// ---------------------------------------------------------------------------

}  // namespace irrlu::bench
