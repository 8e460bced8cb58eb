// Seeded workload generators and the closed-loop runner of the solver
// benchmark (see README.md in this directory for the workloads, the op
// definition and the metric table).
//
// The generator builds every input up front (meshes, assembled Maxwell
// systems, right-hand sides); the runner hands the library only those CSR
// matrices and vectors and times calls into its public API from outside.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/solver_service.hpp"
#include "sparse/csr.hpp"
#include "sparse/solver.hpp"

namespace perfbench {

enum class Workload { kMaxwellSweep, kThinTubeCold, kServiceMixed };

/// Parses "maxwell_sweep" | "thin_tube_cold" | "service_mixed".
std::optional<Workload> workload_from_string(const std::string& s);

/// Outside correctness bound: an op fails when the componentwise backward
/// error the benchmark recomputes from A, x and b exceeds this.
inline constexpr double kBerrBound = 1e-12;

/// The pinned input grids (every point converges in FP64; selftest.cpp
/// asserts it).
std::vector<double> sweep_omegas();                 ///< 15.5 .. 18.5, step 0.25
std::vector<int> thin_nthetas();                    ///< 384 .. 1536, step 32
std::vector<std::pair<int, int>> service_meshes();  ///< (ntheta, ncross)
std::vector<double> service_omegas();               ///< {15.5, 16, 16.5, 17}
inline constexpr double kThinOmega = 16.0;

/// Indefinite Maxwell system on torus(ntheta, ncross, ncross) with the
/// paper's load; `b` is the assembled load vector.
struct System {
  irrlu::sparse::CsrMatrix a;
  std::vector<double> b;
};
System maxwell_system(int ntheta, int ncross, double omega);

/// One library op: solve `systems[system]`; a cold op runs a fresh
/// analyze + factor, a warm op refactors the previous op's solver. Pass p
/// of a run starts at ops[p mod size] and its first op is always cold.
struct LibraryOp {
  int system = 0;
  bool cold = false;
};

/// One service request: tenant `tenant` solves matrices[matrix] x = rhs.
struct Request {
  int tenant = 0;
  int matrix = 0;
  std::vector<double> rhs;
};

inline constexpr int kTenants = 4;
/// Tenants 0 and 1 use the service default (FP64); 2 and 3 ask for FP32.
bool tenant_fp32(int tenant);

/// Every input of one pass of a workload. A run repeats the pass.
struct Inputs {
  Workload workload = Workload::kMaxwellSweep;
  std::vector<System> systems;                   ///< library workloads
  std::vector<LibraryOp> ops;                    ///< one pass, in order
  std::vector<irrlu::sparse::CsrMatrix> matrices;  ///< service workload
  std::vector<std::vector<Request>> rounds;      ///< one flush per round

  long ops_per_pass() const;
  /// Identity of the generated stream: pattern hashes in op order and a
  /// checksum over every value and right-hand side.
  std::vector<std::uint64_t> pattern_hashes() const;
  double value_checksum() const;
};

Inputs generate(Workload w, std::uint64_t seed);

irrlu::sparse::SolverOptions solver_options();
irrlu::service::ServiceOptions service_options();

/// Componentwise backward error max_i |b - A x|_i / (|A| |x| + |b|)_i,
/// recomputed with CsrMatrix::multiply on A and on |A|.
double outside_berr(const irrlu::sparse::CsrMatrix& a,
                    const std::vector<double>& x,
                    const std::vector<double>& b);

/// Host wall samples of benchmark-side spans around the public calls and
/// of the analyze split re-run (traced phases only).
struct Spans {
  std::vector<double> analyze, factor, refactor, solve, flush;
  std::vector<double> split_mc64, split_nd, split_symbolic;
  std::vector<double> fronts, factor_flops;  ///< per analyzed pattern
  std::vector<double> factor_sim_s;  ///< per library op's factorization
  long refine_steps = 0, solves = 0, fp64_fallbacks = 0;
  /// Service workload: wall of the solver's own "factor" and "solve_many"
  /// trace scopes, and the number of interleaved batches they served.
  double scope_factor_s = 0, scope_solve_many_s = 0;
  long scope_factor_entries = 0, service_batches = 0;
};

/// Counters of the first pass: deterministic for a given seed.
struct PassCounters {
  long ops = 0;
  double sim_s = 0;
  std::size_t peak_device_bytes = 0;
  long launches = 0, host_allocs = 0, pool_hits = 0, pool_misses = 0;
  long fp64_fallbacks = 0;
  irrlu::service::ServiceStats service;
};

struct PhaseResult {
  std::vector<double> op_wall;    ///< host wall per op
  std::vector<char> op_cold;      ///< op ran analyze
  long attempted = 0, failed = 0;
  double max_berr = 0;
  double busy_s = 0;  ///< wall inside timed calls (ops, or service flushes)
  double sim_s = 0;  ///< simulated device seconds over the whole phase
  std::size_t peak_device_bytes = 0;  ///< device high-water, whole phase
  PassCounters pass1;
  Spans spans;
};

/// Runs whole passes over `in` on a fresh device until `seconds` of wall
/// have elapsed (seconds = 0 runs exactly one pass). With a non-empty
/// `trace_path` a trace::TraceSession is attached to the device and the
/// benchmark-side spans are recorded; the session writes its summary JSON
/// next to `trace_path` when the phase ends.
PhaseResult run_phase(const Inputs& in, double seconds,
                      const std::string& trace_path = {});

}  // namespace perfbench
