#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "common/rng.hpp"
#include "fem/mesh.hpp"
#include "fem/nedelec.hpp"
#include "gpusim/device.hpp"
#include "ordering/graph.hpp"
#include "ordering/mc64.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/symbolic.hpp"
#include "trace/session.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using irrlu::Rng;
using irrlu::sparse::CsrMatrix;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Library ops per pass of thin_tube_cold; service rounds per pattern visit
// (a service pass visits every pattern once per tenant).
constexpr int kThinOpsPerPass = 16;
constexpr int kBlockRounds = 3;
constexpr int kWidths[kBlockRounds] = {1, 4, 16};  // RHS per burst

std::vector<double> random_rhs(int n, Rng& rng) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  std::shuffle(v.begin(), v.end(), rng.engine());
}

Inputs generate_sweep(Rng& rng) {
  Inputs in;
  in.workload = Workload::kMaxwellSweep;
  const std::vector<double> omegas = sweep_omegas();
  std::vector<int> order(omegas.size());
  std::iota(order.begin(), order.end(), 0);
  shuffle(order, rng);
  for (double w : omegas) in.systems.push_back(maxwell_system(32, 8, w));
  // Warm ops; run_phase makes the first op of every pass cold and rotates
  // the start by one position per pass, so a run analyzes at several omegas
  // (MC64's matching, and with it the fronts, depends on the values).
  for (int k : order) in.ops.push_back({k, false});
  return in;
}

Inputs generate_thin(Rng& rng) {
  Inputs in;
  in.workload = Workload::kThinTubeCold;
  // Stratified draw: one ntheta from each of kThinOpsPerPass equal slices of
  // the grid, so every seed spans the whole size range and the per-pass
  // work barely depends on the seed.
  const std::vector<int> grid = thin_nthetas();
  const double slice =
      static_cast<double>(grid.size()) / static_cast<double>(kThinOpsPerPass);
  std::vector<int> picks;
  for (int k = 0; k < kThinOpsPerPass; ++k) {
    const auto idx = static_cast<std::size_t>((k + rng.uniform()) * slice);
    picks.push_back(grid[std::min(idx, grid.size() - 1)]);
  }
  shuffle(picks, rng);
  for (int k = 0; k < kThinOpsPerPass; ++k) {
    in.systems.push_back(
        maxwell_system(picks[static_cast<std::size_t>(k)], 2, kThinOmega));
    in.ops.push_back({k, true});
  }
  return in;
}

Inputs generate_service(Rng& rng) {
  Inputs in;
  in.workload = Workload::kServiceMixed;
  const auto meshes = service_meshes();
  const auto omegas = service_omegas();
  const int np = static_cast<int>(meshes.size());
  const int nw = static_cast<int>(omegas.size());
  for (const auto& [nt, nc] : meshes)
    for (double w : omegas) in.matrices.push_back(maxwell_system(nt, nc, w).a);

  // Balanced schedule, the same cycle for every seed. A pass has one block
  // of 3 rounds per pattern; in block b tenant t works on pattern
  // (phase + b + t) mod 6, a Latin square, so each block mixes four
  // patterns and each tenant visits all six; tenant t moves onto the
  // pattern tenant t + 1 just left, which the cache may still hold. Within
  // a block a tenant sends one burst of each width 1, 4 and 16, in an order
  // fixed by the pattern, and changes omega once, from w0 = (p + t) mod 4
  // to w0 + 2: each precision's two tenants cover all four omegas of every
  // pattern once per pass. The seed picks the phase (where the repeated
  // cycle starts) and the RHS. Seed-drawn widths and omegas made the cost
  // of a pass differ by up to 50% between seeds, because FP32 convergence,
  // and with it the FP64 fallback, depends on (pattern, omega).
  std::vector<std::vector<int>> schedule(kTenants);  // matrix per round
  std::vector<std::vector<int>> widths(kTenants);
  const int phase = rng.uniform_int(0, np - 1);
  for (int blk = 0; blk < np; ++blk)
    for (int t = 0; t < kTenants; ++t) {
      const auto tu = static_cast<std::size_t>(t);
      const int p = (phase + blk + t) % np;
      const int w0 = (p + t) % nw;
      const int change_at = 1 + p % 2;
      for (int k = 0; k < kBlockRounds; ++k) {
        const int omega = k < change_at ? w0 : (w0 + 2) % nw;
        schedule[tu].push_back(p * nw + omega);
        widths[tu].push_back(kWidths[(p + k) % kBlockRounds]);
      }
    }
  for (std::size_t r = 0; r < schedule[0].size(); ++r) {
    std::vector<Request> round;
    for (int t = 0; t < kTenants; ++t) {
      const auto tu = static_cast<std::size_t>(t);
      const int m = schedule[tu][r];
      const int n = in.matrices[static_cast<std::size_t>(m)].rows();
      for (int q = 0; q < widths[tu][r]; ++q)
        round.push_back({t, m, random_rhs(n, rng)});
    }
    in.rounds.push_back(std::move(round));
  }
  return in;
}

/// Wall time of `f`, pushed to `out`, inside a benchmark-side trace span
/// (a no-op when `tr` is null).
template <typename F>
auto span(irrlu::trace::Tracer* tr, const char* label,
          std::vector<double>& out, F&& f) {
  irrlu::trace::TraceScope scope(tr, label);
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    out.push_back(since(t0));
  } else {
    auto r = f();
    out.push_back(since(t0));
    return r;
  }
}

/// Re-runs the three analyze sub-phases on `a` exactly as
/// SparseDirectSolver::analyze sequences them, timing each.
void analyze_split(const CsrMatrix& a, const irrlu::sparse::SolverOptions& o,
                   Spans& sp) {
  namespace ord = irrlu::ordering;
  const int n = a.rows();
  auto t0 = Clock::now();
  const ord::Mc64Result mc = ord::mc64_scaling(n, a.ptr().data(),
                                               a.ind().data(), a.val().data());
  sp.split_mc64.push_back(since(t0));
  const CsrMatrix aq =
      mc.structurally_nonsingular
          ? a.scaled(mc.dr, mc.dc).permute_columns(mc.col_of_row)
          : a;
  const ord::Graph g =
      ord::Graph::from_pattern(n, aq.ptr().data(), aq.ind().data());
  t0 = Clock::now();
  const ord::Ordering ordering = ord::nested_dissection(g, o.nd);
  sp.split_nd.push_back(since(t0));
  const CsrMatrix a_prep = aq.permute_symmetric(ordering.perm);
  t0 = Clock::now();
  const auto sym = irrlu::sparse::SymbolicAnalysis::build(a_prep, ordering);
  sp.split_symbolic.push_back(since(t0));
  sp.fronts.push_back(static_cast<double>(sym.fronts.size()));
  sp.factor_flops.push_back(sym.factor_flops);
}

}  // namespace

std::optional<Workload> workload_from_string(const std::string& s) {
  if (s == "maxwell_sweep") return Workload::kMaxwellSweep;
  if (s == "thin_tube_cold") return Workload::kThinTubeCold;
  if (s == "service_mixed") return Workload::kServiceMixed;
  return std::nullopt;
}

std::vector<double> sweep_omegas() {
  std::vector<double> w;
  for (int k = 0; k <= 12; ++k) w.push_back(15.5 + 0.25 * k);
  return w;
}

std::vector<int> thin_nthetas() {
  std::vector<int> n;
  for (int v = 384; v <= 1536; v += 32) n.push_back(v);
  return n;
}

std::vector<std::pair<int, int>> service_meshes() {
  return {{12, 6}, {16, 8}, {20, 6}, {24, 8}, {384, 2}, {768, 2}};
}

std::vector<double> service_omegas() { return {15.5, 16.0, 16.5, 17.0}; }

bool tenant_fp32(int tenant) { return tenant >= 2; }

System maxwell_system(int ntheta, int ncross, double omega) {
  const auto mesh = irrlu::fem::HexMesh::torus(ntheta, ncross, ncross);
  irrlu::fem::EdgeSystem sys = irrlu::fem::assemble_maxwell(
      mesh, omega, irrlu::fem::paper_maxwell_load(omega, omega / 1.05));
  return {std::move(sys.a), std::move(sys.b)};
}

long Inputs::ops_per_pass() const {
  long n = static_cast<long>(ops.size());
  for (const auto& round : rounds) n += static_cast<long>(round.size());
  return n;
}

std::vector<std::uint64_t> Inputs::pattern_hashes() const {
  std::vector<std::uint64_t> h;
  for (const auto& op : ops)
    h.push_back(systems[static_cast<std::size_t>(op.system)].a.pattern_hash());
  for (const auto& round : rounds)
    for (const auto& req : round)
      h.push_back(
          matrices[static_cast<std::size_t>(req.matrix)].pattern_hash());
  return h;
}

double Inputs::value_checksum() const {
  // Position-weighted so a reordering of the stream changes the sum too.
  double sum = 0;
  long k = 0;
  auto add = [&](const std::vector<double>& v) {
    for (double x : v) sum += x * static_cast<double>(1 + (k++ % 7));
  };
  for (const auto& op : ops) {
    add(systems[static_cast<std::size_t>(op.system)].a.val());
    add(systems[static_cast<std::size_t>(op.system)].b);
  }
  for (const auto& round : rounds)
    for (const auto& req : round) {
      add(matrices[static_cast<std::size_t>(req.matrix)].val());
      add(req.rhs);
    }
  return sum;
}

Inputs generate(Workload w, std::uint64_t seed) {
  Rng rng(seed);
  switch (w) {
    case Workload::kMaxwellSweep: return generate_sweep(rng);
    case Workload::kThinTubeCold: return generate_thin(rng);
    case Workload::kServiceMixed: return generate_service(rng);
  }
  return {};
}

irrlu::sparse::SolverOptions solver_options() {
  irrlu::sparse::SolverOptions o;
  o.nd.leaf_size = 16;
  o.solve_on_device = true;  // the solve then has a simulated-time cost too
  return o;
}

irrlu::service::ServiceOptions service_options() {
  irrlu::service::ServiceOptions o;
  o.solver = solver_options();
  o.max_cached_patterns = 4;
  return o;
}

double outside_berr(const CsrMatrix& a, const std::vector<double>& x,
                    const std::vector<double>& b) {
  const auto n = static_cast<std::size_t>(a.rows());
  std::vector<double> abs_val(a.val());
  for (double& v : abs_val) v = std::fabs(v);
  const CsrMatrix abs_a(a.rows(), a.ptr(), a.ind(), std::move(abs_val));
  std::vector<double> abs_x(n), ax(n), denom(n);
  for (std::size_t i = 0; i < n; ++i) abs_x[i] = std::fabs(x[i]);
  a.multiply(x.data(), ax.data());
  abs_a.multiply(abs_x.data(), denom.data());
  double berr = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = std::fabs(b[i] - ax[i]);
    const double d = denom[i] + std::fabs(b[i]);
    const double e = d > 0 ? r / d : r;
    if (!(e <= berr)) berr = e;  // propagates NaN
  }
  return berr;
}

PhaseResult run_phase(const Inputs& in, double seconds,
                      const std::string& trace_path) {
  namespace sp = irrlu::sparse;
  PhaseResult r;
  Spans& s = r.spans;
  const sp::SolverOptions sopts = solver_options();

  // Declaration order is destruction order in reverse: solvers and the
  // service release their device buffers before the session writes and
  // detaches, and the session before the device goes away.
  irrlu::gpusim::Device dev(irrlu::gpusim::DeviceModel::a100());
  std::unique_ptr<irrlu::trace::TraceSession> session;
  if (!trace_path.empty())
    session = std::make_unique<irrlu::trace::TraceSession>(dev, trace_path);
  irrlu::trace::Tracer* tr = dev.tracer();
  std::unique_ptr<irrlu::service::SolverService> svc;
  if (in.workload == Workload::kServiceMixed)
    svc = std::make_unique<irrlu::service::SolverService>(dev,
                                                          service_options());
  std::unique_ptr<sp::SparseDirectSolver> solver;

  // Outside correctness check of one op, plus its solve statistics.
  auto check = [&](const CsrMatrix& a, const sp::SolveReport& rep,
                   const std::vector<double>& b) {
    ++r.attempted;
    bool ok = rep.status == sp::SolveStatus::kConverged &&
              rep.x.size() == b.size();
    if (ok) {
      const double berr = outside_berr(a, rep.x, b);
      r.max_berr = std::max(r.max_berr, berr);
      ok = berr <= kBerrBound;
    }
    if (!ok) ++r.failed;
    s.refine_steps += rep.refine_steps;
    ++s.solves;
    s.fp64_fallbacks += rep.refactored_fp64 ? 1 : 0;
  };

  auto library_op = [&](const LibraryOp& op, bool cold) {
    const System& sys = in.systems[static_cast<std::size_t>(op.system)];
    const auto t0 = Clock::now();
    if (cold) {
      solver = std::make_unique<sp::SparseDirectSolver>(sopts);
      span(tr, "bench.analyze", s.analyze, [&] { solver->analyze(sys.a); });
      span(tr, "bench.factor", s.factor, [&] { solver->factor(dev); });
    } else {
      span(tr, "bench.refactor", s.refactor,
           [&] { solver->refactor(dev, sys.a); });
    }
    const sp::SolveReport rep = span(tr, "bench.solve_report", s.solve,
                                     [&] { return solver->solve_report(sys.b); });
    r.op_wall.push_back(since(t0));
    r.op_cold.push_back(cold);
    r.busy_s += r.op_wall.back();
    check(sys.a, rep, sys.b);
    if (tr != nullptr) {
      s.factor_sim_s.push_back(solver->numeric().factor_seconds());
      if (cold) analyze_split(sys.a, sopts, s);
    }
  };

  auto service_round = [&](const std::vector<Request>& round) {
    for (const Request& q : round) {
      irrlu::service::SolveRequest req;
      req.tenant = "t" + std::to_string(q.tenant);
      req.a = in.matrices[static_cast<std::size_t>(q.matrix)];
      req.b = q.rhs;
      if (tenant_fp32(q.tenant)) req.precision = sp::PrecisionPolicy::kF32;
      svc->submit(std::move(req));
    }
    const auto out = span(tr, "bench.flush", s.flush,
                          [&] { return svc->flush(); });
    const double wall = s.flush.back();
    r.busy_s += wall;
    for (std::size_t i = 0; i < round.size(); ++i) {
      const CsrMatrix& a =
          in.matrices[static_cast<std::size_t>(round[i].matrix)];
      r.op_wall.push_back(wall);
      r.op_cold.push_back(!out[i].symbolic_cache_hit);
      const bool accepted =
          out[i].admission == irrlu::service::Admission::kAccepted;
      if (!accepted) {
        ++r.attempted;
        ++r.failed;
        continue;
      }
      check(a, out[i].report, round[i].rhs);
      if (tr != nullptr && !out[i].symbolic_cache_hit)
        analyze_split(a, sopts, s);
    }
  };

  // Runs end on a pass boundary, so every run holds the same mix of ops.
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    const std::size_t n = in.ops.empty() ? in.rounds.size() : in.ops.size();
    for (std::size_t k = 0; k < n; ++k) {
      if (in.ops.empty()) {
        service_round(in.rounds[k]);
      } else {
        const LibraryOp& op = in.ops[(k + static_cast<std::size_t>(pass)) % n];
        library_op(op, op.cold || k == 0);
      }
    }
    if (pass == 0) {
      PassCounters& c = r.pass1;
      c.ops = static_cast<long>(r.op_wall.size());
      c.sim_s = dev.synchronize_all();
      c.peak_device_bytes = dev.peak_bytes();
      c.launches = dev.launch_count();
      c.host_allocs = dev.host_alloc_count();
      c.pool_hits = dev.pool_stats().hits;
      c.pool_misses = dev.pool_stats().misses;
      c.fp64_fallbacks = s.fp64_fallbacks;
      if (svc) c.service = svc->stats();
    }
    if (since(start) >= seconds) break;
  }
  r.sim_s = dev.synchronize_all();
  r.peak_device_bytes = dev.peak_bytes();

  if (tr != nullptr) {
    for (const auto& node : tr->scopes()) {
      if (node.label == "factor") {
        s.scope_factor_s += node.wall_seconds;
        s.scope_factor_entries += node.entries;
      } else if (node.label == "solve_many") {
        s.scope_solve_many_s += node.wall_seconds;
      }
    }
    if (svc) s.service_batches = svc->stats().batches;
  }
  return r;
}

}  // namespace perfbench
