// solver_bench: runs one workload for one seed and writes the raw
// measurements as JSON; run.py turns them into the reported metrics.
//
//   solver_bench --workload maxwell_sweep --seed 1 --seconds 50
//                --trace 0 --out raw.json [--trace-dir DIR]
//
// --trace 0 runs one untraced phase for --seconds. --trace 1 runs an
// untraced phase and then a traced phase (a trace::TraceSession on a fresh
// device, summary JSON written to DIR/<workload>.summary.json), each for
// half of --seconds. Exits 1 when any op fails the outside correctness
// check, 2 on bad arguments, 3 when the library throws.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "gpusim/device.hpp"
#include "service/solver_service.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr int kSetupRepeats = 3;

void write_doubles(irrlu::json::Writer& w, const char* key,
                   const std::vector<double>& v) {
  w.key(key);
  w.begin_array(/*compact=*/true);
  for (double x : v) w.number(x);
  w.end_array();
}

void write_phase(irrlu::json::Writer& w, const char* key,
                 const PhaseResult& r) {
  w.key(key);
  w.begin_object();
  write_doubles(w, "op_wall_s", r.op_wall);
  w.key("op_cold");
  w.begin_array(/*compact=*/true);
  for (char c : r.op_cold) w.boolean(c != 0);
  w.end_array();
  w.kv_int("attempted", r.attempted);
  w.kv_int("failed", r.failed);
  w.kv("max_berr", r.max_berr);
  w.kv("busy_s", r.busy_s);
  w.kv("sim_s", r.sim_s);
  w.kv_int("peak_device_bytes", static_cast<long long>(r.peak_device_bytes));

  const PassCounters& c = r.pass1;
  w.key("pass1");
  w.begin_object();
  w.kv_int("ops", c.ops);
  w.kv("sim_s", c.sim_s);
  w.kv_int("peak_device_bytes", static_cast<long long>(c.peak_device_bytes));
  w.kv_int("launches", c.launches);
  w.kv_int("host_allocs", c.host_allocs);
  w.kv_int("pool_hits", c.pool_hits);
  w.kv_int("pool_misses", c.pool_misses);
  w.kv_int("fp64_fallbacks", c.fp64_fallbacks);
  const irrlu::service::ServiceStats& st = c.service;
  w.key("service");
  w.begin_object(/*compact=*/true);
  w.kv_int("requests", st.requests);
  w.kv_int("analyze_runs", st.analyze_runs);
  w.kv_int("symbolic_hits", st.symbolic_hits);
  w.kv_int("factors", st.factors);
  w.kv_int("refactors", st.refactors);
  w.kv_int("factor_reuses", st.factor_reuses);
  w.kv_int("evictions", st.evictions);
  w.kv_int("rejected", st.rejected);
  w.kv_int("batches", st.batches);
  w.kv_int("batched_rhs", st.batched_rhs);
  w.end_object();
  w.end_object();

  const Spans& s = r.spans;
  w.key("spans");
  w.begin_object();
  write_doubles(w, "analyze", s.analyze);
  write_doubles(w, "factor", s.factor);
  write_doubles(w, "refactor", s.refactor);
  write_doubles(w, "solve", s.solve);
  write_doubles(w, "flush", s.flush);
  write_doubles(w, "split_mc64", s.split_mc64);
  write_doubles(w, "split_nd", s.split_nd);
  write_doubles(w, "split_symbolic", s.split_symbolic);
  write_doubles(w, "fronts", s.fronts);
  write_doubles(w, "factor_flops", s.factor_flops);
  write_doubles(w, "factor_sim_s", s.factor_sim_s);
  w.kv_int("refine_steps", s.refine_steps);
  w.kv_int("solves", s.solves);
  w.kv_int("fp64_fallbacks", s.fp64_fallbacks);
  w.kv("scope_factor_s", s.scope_factor_s);
  w.kv_int("scope_factor_entries", s.scope_factor_entries);
  w.kv("scope_solve_many_s", s.scope_solve_many_s);
  w.kv_int("service_batches", s.service_batches);
  w.end_object();
  w.end_object();
}

int run(const irrlu::CliArgs& args) {
  const std::string name = args.get_string("workload", "");
  const auto workload = workload_from_string(name);
  const std::string out_path = args.get_string("out", "");
  if (!workload || out_path.empty()) {
    std::fprintf(stderr, "usage: solver_bench --workload "
                         "maxwell_sweep|thin_tube_cold|service_mixed "
                         "--seed N --seconds S --trace 0|1 --out FILE "
                         "[--trace-dir DIR]\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10);
  const bool traced = args.get_int("trace", 0) != 0;

  // Set-up: input generation plus device (and service) construction,
  // repeated so run.py can report the median.
  std::vector<double> setup_s;
  Inputs in;
  for (int k = 0; k < kSetupRepeats; ++k) {
    in = Inputs{};  // one copy of the inputs at a time
    const auto t0 = std::chrono::steady_clock::now();
    in = generate(*workload, seed);
    irrlu::gpusim::Device dev(irrlu::gpusim::DeviceModel::a100());
    if (*workload == Workload::kServiceMixed) {
      irrlu::service::SolverService svc(dev, service_options());
    }
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }

  std::vector<PhaseResult> phases;
  if (!traced) {
    phases.push_back(run_phase(in, seconds));
  } else {
    const std::string dir = args.get_string("trace-dir", ".");
    phases.push_back(run_phase(in, seconds / 2));
    phases.push_back(run_phase(in, seconds / 2, dir + "/" + name + ".json"));
  }

  long attempted = 0, failed = 0;
  double max_berr = 0;
  for (const auto& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
    max_berr = std::max(max_berr, p.max_berr);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "solver_bench: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  irrlu::json::Writer w(f);
  w.begin_object();
  w.kv("workload", name);
  w.kv_int("seed", static_cast<long long>(seed));
  w.kv_bool("correct", failed == 0);
  w.kv_int("attempted", attempted);
  w.kv_int("failed", failed);
  w.kv("max_berr", max_berr);
  w.kv("berr_bound", kBerrBound);
  w.kv_int("ops_per_pass", in.ops_per_pass());
  w.kv("value_checksum", in.value_checksum());
  write_doubles(w, "setup_s", setup_s);
  w.kv_int("peak_rss_bytes", static_cast<long long>(ru.ru_maxrss) * 1024);
  write_phase(w, "untraced", phases.front());
  if (traced) write_phase(w, "traced", phases.back());
  w.end_object();
  std::fprintf(f, "\n");
  std::fclose(f);

  if (failed > 0)
    std::fprintf(stderr,
                 "solver_bench: %ld of %ld ops failed the correctness "
                 "check (max berr %.3e, bound %.1e)\n",
                 failed, attempted, max_berr, kBerrBound);
  return failed > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(irrlu::CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solver_bench: %s\n", e.what());
    return 3;
  }
}
