// Solver-service benchmark: (1) the interleaved many-RHS solve path
// against N sequential device solves on one factorization, for FP64 and
// FP32 factors — simulated device seconds, launch and allocation counts,
// the win the interleaved-batch access pattern buys (factor blocks read
// once per front per sweep, launches per level instead of per RHS per
// level, one device allocation per sweep); (2) a replay stream of mixed
// same-pattern / new-pattern requests through SolverService — cache hit
// rate, analyze/refactor/reuse counts, batching behaviour. Writes
// BENCH_service.json ("irrlu-bench-service-v1", schema documented in
// bench_util.hpp).
//
// Invariants (asserted, nonzero exit on violation — the ctest smoke
// target):
//   - per-request SolveStatus identical between the sequential and the
//     interleaved path at every batch width;
//   - simulated-time speedup of the interleaved path >= 1x at every
//     width and >= 2x at 64+ RHS, for both factor precisions
//     (deterministic: the simulated timeline is machine-independent);
//   - replay symbolic cache hit rate >= 0.8 and analyze runs == distinct
//     patterns;
//   - cached-refactor factors bit-identical to an uncached twin (MC64 is
//     disabled in the replay: its scaling is values-dependent by design,
//     so bit-identity is only a meaningful oracle for the
//     values-independent pipeline).
// Wall-clock is reported but never asserted.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "fem/mesh.hpp"
#include "fem/nedelec.hpp"
#include "service/solver_service.hpp"
#include "sparse/solver.hpp"

using namespace irrlu;
using namespace irrlu::bench;

namespace {

double wall_s(const std::function<void()>& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

std::vector<double> random_rhs(int n, unsigned seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

struct ManyRhsResult {
  const char* prec = "";
  int nrhs = 0;
  double seq_sim_s = 0, batched_sim_s = 0;
  double seq_wall_s = 0, batched_wall_s = 0;
  long seq_launches = 0, batched_launches = 0, batched_allocs = 0;
  bool statuses_match = true;
  double max_berr = 0;
};

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick");
  const std::string device = args.get_string("device", "a100");
  const std::string out_path = args.get_string("out", "BENCH_service.json");
  const int requests = args.get_int("requests", quick ? 24 : 48);
  bool ok = true;

  // -------------------------------------------------------------------
  // Part 1: interleaved many-RHS solve vs N sequential device solves on
  // one Maxwell torus factorization per precision.
  // -------------------------------------------------------------------
  const int nt = quick ? 8 : 12, nc = quick ? 4 : 6;
  const fem::HexMesh mesh = fem::HexMesh::torus(nt, nc, nc);
  const double omega = 16.0;
  const fem::EdgeSystem sys = fem::assemble_maxwell(
      mesh, omega, fem::paper_maxwell_load(omega, omega / 1.05));
  const int n = sys.a.rows();

  gpusim::Device dev(model_by_name(device));
  auto session = make_trace_session(dev, args, "service");

  std::printf("interleaved many-RHS solve vs sequential (torus %dx%d, "
              "N=%d, device=%s)\n\n",
              nt, nc, n, device.c_str());
  TextTable table({"prec", "nrhs", "seq sim (ms)", "batched sim (ms)",
                   "speedup", "seq launches", "batched launches",
                   "batched allocs", "statuses"});

  std::vector<ManyRhsResult> manyrhs;
  for (const sparse::PrecisionPolicy policy :
       {sparse::PrecisionPolicy::kF64, sparse::PrecisionPolicy::kF32}) {
    sparse::SolverOptions sopts;
    sopts.nd.leaf_size = 16;
    sopts.factor.precision = policy;
    sopts.solve_on_device = true;  // the sequential baseline must also run
                                   // on the device to have a sim timeline
    sparse::SparseDirectSolver solver(sopts);
    solver.analyze(sys.a);
    solver.factor(dev);
    for (const int nrhs : std::vector<int>{4, 16, 64}) {
      std::vector<std::vector<double>> bs;
      for (int j = 0; j < nrhs; ++j)
        bs.push_back(random_rhs(n, 1000u + static_cast<unsigned>(j)));

      ManyRhsResult r;
      r.prec = sparse::to_string(policy);
      r.nrhs = nrhs;

      std::vector<sparse::SolveReport> seq;
      const double t0 = dev.synchronize_all();
      const long launches0 = dev.launch_count();
      r.seq_wall_s = wall_s([&] {
        for (const auto& b : bs) seq.push_back(solver.solve_report(b));
      });
      const double t1 = dev.synchronize_all();
      const long launches1 = dev.launch_count();
      const long allocs1 = dev.alloc_count();

      std::vector<sparse::SolveReport> bat;
      r.batched_wall_s =
          wall_s([&] { bat = solver.solve_report_many(bs); });
      const double t2 = dev.synchronize_all();

      r.seq_sim_s = t1 - t0;
      r.batched_sim_s = t2 - t1;
      r.seq_launches = launches1 - launches0;
      r.batched_launches = dev.launch_count() - launches1;
      r.batched_allocs = dev.alloc_count() - allocs1;
      for (int j = 0; j < nrhs; ++j) {
        const auto ju = static_cast<std::size_t>(j);
        if (bat[ju].status != seq[ju].status) r.statuses_match = false;
        r.max_berr = std::max(r.max_berr, bat[ju].berr);
      }

      const double speedup =
          r.batched_sim_s > 0 ? r.seq_sim_s / r.batched_sim_s : 0.0;
      table.add_row(r.prec, nrhs, TextTable::fmt(r.seq_sim_s * 1e3, 3),
                    TextTable::fmt(r.batched_sim_s * 1e3, 3),
                    TextTable::fmt(speedup, 2), r.seq_launches,
                    r.batched_launches, r.batched_allocs,
                    r.statuses_match ? "match" : "DIFFER");

      if (!r.statuses_match) {
        std::fprintf(stderr,
                     "FAIL: %s nrhs=%d per-request SolveStatus differs "
                     "between sequential and interleaved path\n",
                     r.prec, nrhs);
        ok = false;
      }
      if (policy != sparse::PrecisionPolicy::kF64 &&
          !solver.numeric().has_fp32()) {
        // An FP64 fallback refactor replaced the factor: the row would
        // time FP64 sweeps under an FP32 label.
        std::fprintf(stderr, "FAIL: %s nrhs=%d fell back to FP64 factors\n",
                     r.prec, nrhs);
        ok = false;
      }
      const double floor = nrhs >= 64 ? 2.0 : 1.0;
      if (speedup < floor) {
        std::fprintf(stderr,
                     "FAIL: %s nrhs=%d interleaved speedup %.2fx < %.0fx "
                     "(sim %.6e s vs %.6e s)\n",
                     r.prec, nrhs, speedup, floor, r.seq_sim_s,
                     r.batched_sim_s);
        ok = false;
      }
      manyrhs.push_back(r);
    }
  }
  table.print();

  // -------------------------------------------------------------------
  // Part 2: replay stream through the SolverService — three tenants,
  // three sparsity patterns, values perturbed between same-pattern
  // requests (the sequence-of-systems scenario), flushed in windows so
  // same-pattern requests batch.
  // -------------------------------------------------------------------
  std::printf("\nservice replay stream (%d requests, 3 patterns, "
              "flush window 8)\n\n",
              requests);

  service::ServiceOptions svc_opts;
  svc_opts.solver.nd.leaf_size = 16;
  svc_opts.solver.use_mc64 = false;  // bit-identity oracle, see header
  gpusim::Device sdev(model_by_name(device));
  auto ssession = make_trace_session(sdev, args, "service.replay");
  service::SolverService svc(sdev, svc_opts);

  const std::vector<sparse::CsrMatrix> patterns = {
      sparse::laplacian2d(20, 20), sparse::laplacian2d(24, 16),
      sparse::laplacian2d(18, 21)};
  const std::vector<std::string> tenants = {"em", "power", "circuit"};

  Rng rng(7);
  std::vector<sparse::CsrMatrix> current = patterns;  // live values
  double replay_wall = 0;
  int flushes = 0;
  for (int q = 0; q < requests; ++q) {
    const auto p = static_cast<std::size_t>(q) % patterns.size();
    // Every third visit to a pattern changes its values (refactor);
    // otherwise the resident factor is reused.
    if (q >= static_cast<int>(patterns.size()) && q % 3 == 0)
      for (auto& v : current[p].val()) v *= 1.0 + 0.01 * rng.uniform(-1, 1);
    service::SolveRequest req;
    req.tenant = tenants[p];
    req.a = current[p];
    req.b = random_rhs(current[p].rows(), 2000u + static_cast<unsigned>(q));
    svc.submit(std::move(req));
    if (svc.pending() == 8 || q + 1 == requests) {
      replay_wall += wall_s([&] {
        const auto out = svc.flush();
        for (const auto& resp : out)
          if (resp.report.status == sparse::SolveStatus::kFailed) ok = false;
      });
      ++flushes;
    }
  }

  const auto& st = svc.stats();
  std::printf("  requests %ld | analyze runs %ld | symbolic hits %ld "
              "(rate %.3f)\n",
              st.requests, st.analyze_runs, st.symbolic_hits,
              st.symbolic_hit_rate());
  std::printf("  factors %ld | refactors %ld | factor reuses %ld | "
              "batches %ld (%.1f RHS/batch)\n",
              st.factors, st.refactors, st.factor_reuses, st.batches,
              st.batches > 0 ? static_cast<double>(st.batched_rhs) /
                                   static_cast<double>(st.batches)
                             : 0.0);

  if (st.symbolic_hit_rate() < 0.8) {
    std::fprintf(stderr, "FAIL: replay symbolic hit rate %.3f < 0.8\n",
                 st.symbolic_hit_rate());
    ok = false;
  }
  if (st.analyze_runs != static_cast<long>(patterns.size())) {
    std::fprintf(stderr,
                 "FAIL: %ld analyze runs for %zu distinct patterns\n",
                 st.analyze_runs, patterns.size());
    ok = false;
  }

  // Bit-identity of a cached-refactor factor against an uncached twin.
  bool bits_identical = false;
  {
    const sparse::SparseDirectSolver* cached = svc.peek(current[0]);
    if (cached != nullptr) {
      gpusim::Device fdev(model_by_name(device));
      sparse::SparseDirectSolver fresh(svc_opts.solver);
      fresh.analyze(current[0]);
      fresh.factor(fdev);
      bits_identical =
          cached->numeric().factor_elems() == fresh.numeric().factor_elems() &&
          std::memcmp(cached->numeric().factor_data(),
                      fresh.numeric().factor_data(),
                      fresh.numeric().factor_elems() * sizeof(double)) == 0;
    }
    if (!bits_identical) {
      std::fprintf(stderr,
                   "FAIL: cached-refactor factors not bit-identical to the "
                   "uncached path\n");
      ok = false;
    }
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  IRRLU_CHECK_MSG(f != nullptr, "bench_service: cannot open " << out_path);
  json::Writer w(f);
  w.begin_object();
  w.kv("schema", "irrlu-bench-service-v1");
  bench::write_bench_meta(w);
  w.kv("device", device);
  w.kv_int("n", n);
  w.key("manyrhs");
  w.begin_array();
  for (const ManyRhsResult& r : manyrhs) {
    w.begin_object(/*compact=*/true);
    w.kv("prec", r.prec);
    w.kv_int("nrhs", r.nrhs);
    w.kv("seq_sim_s", r.seq_sim_s, "%.17g");
    w.kv("batched_sim_s", r.batched_sim_s, "%.17g");
    w.kv("speedup",
         r.batched_sim_s > 0 ? r.seq_sim_s / r.batched_sim_s : 0.0, "%.4f");
    w.kv("seq_wall_s", r.seq_wall_s, "%.6e");
    w.kv("batched_wall_s", r.batched_wall_s, "%.6e");
    w.kv_int("seq_launches", r.seq_launches);
    w.kv_int("batched_launches", r.batched_launches);
    w.kv_int("batched_allocs", r.batched_allocs);
    w.kv_bool("statuses_match", r.statuses_match);
    w.kv("max_berr", r.max_berr, "%.6e");
    w.end_object();
  }
  w.end_array();
  w.key("replay");
  w.begin_object();
  w.kv_int("requests", st.requests);
  w.kv_int("patterns", static_cast<long long>(patterns.size()));
  w.kv_int("flushes", flushes);
  w.kv_int("analyze_runs", st.analyze_runs);
  w.kv_int("symbolic_hits", st.symbolic_hits);
  w.kv("hit_rate", st.symbolic_hit_rate(), "%.6f");
  w.kv_int("factors", st.factors);
  w.kv_int("refactors", st.refactors);
  w.kv_int("factor_reuses", st.factor_reuses);
  w.kv_int("batches", st.batches);
  w.kv_int("batched_rhs", st.batched_rhs);
  w.kv_int("evictions", st.evictions);
  w.kv_int("rejected", st.rejected);
  w.kv_bool("factor_bits_identical", bits_identical);
  w.kv("wall_s", replay_wall, "%.6e");
  w.end_object();
  w.end_object();
  std::fprintf(f, "\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (ok)
    std::printf("statuses identical seq vs interleaved; hit rate %.3f; "
                "cached factors bit-identical.\n",
                svc.stats().symbolic_hit_rate());
  return ok ? 0 : 1;
}
