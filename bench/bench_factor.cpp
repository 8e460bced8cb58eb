// End-to-end factorization benchmark: analyze / factor / refactor / solve
// wall-clock over a family of Maxwell torus systems, run twice per point —
// once with the device memory pool enabled (the default) and once with it
// disabled — writing BENCH_factor.json ("irrlu-bench-factor-v1", schema
// documented in bench_util.hpp).
//
// What this measures is *host* time: the simulated-device timeline is, by
// design, bit-identical with the pool on or off (a pool hit charges the
// same alloc_overhead as a fresh allocation; see DESIGN.md §10). The
// driver hard-asserts that identity — factor sim seconds, launch count,
// raw allocation count and peak device bytes must match bitwise between
// the two configurations — and that the pool strictly reduces the number
// of host mallocs once allocations recycle (the repeated-refactor loop,
// i.e. the paper's "sequence of systems with one sparsity pattern"
// scenario). A violation exits nonzero, which is what the ctest smoke
// target checks. Wall-clock ratios are reported but never asserted:
// timings are machine-dependent, the invariants are not.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "fem/mesh.hpp"
#include "fem/nedelec.hpp"
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

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Everything recorded about one (mesh point, pool flag) run.
struct ConfigResult {
  bool pool = false;
  double analyze_s = 0, factor_s = 0, refactor_median_s = 0, solve_s = 0;
  /// Medians of the analyze sub-phases (SparseDirectSolver::analyze_timings).
  double analyze_mc64_s = 0, analyze_nd_s = 0, analyze_symbolic_s = 0;
  double factor_sim_s = 0;
  long launches = 0, allocs = 0, host_allocs = 0;
  long pool_hits = 0, pool_misses = 0;
  double pool_bytes_served = 0;
  std::size_t peak_bytes = 0;
  double residual = 0;
};

/// One side of the mixed-precision A/B (DESIGN.md §14): the same system
/// factored under one precision policy, then solved with the LU-IR
/// refinement loop.
struct PrecConfig {
  sparse::PrecisionPolicy policy = sparse::PrecisionPolicy::kF64;
  double factor_wall_s = 0;
  double factor_sim_s = 0;
  long fp32_fronts = 0;
  std::string solve_status;
  int refine_steps = 0;
  double berr = 0;
  bool refactored_fp64 = false;
};

/// The mixed-precision experiment of one mesh point: FP32 policy vs FP64
/// policy. The simulated-time ratio is the headline LU-IR win (half the
/// bytes, double the microkernel rate); the FP32 side must still converge
/// to the FP64 refinement tolerance without tripping the fallback.
struct PrecExperiment {
  PrecConfig cfg[2];  // [0] = kF32, [1] = kF64
  double sim_speedup = 0;
};

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick");
  const int repeats = args.get_int("repeats", quick ? 3 : 5);
  const std::string device = args.get_string("device", "a100");
  const std::string out_path = args.get_string("out", "BENCH_factor.json");
  const double omega = args.get_double("omega", 16.0);
  // Precision policy of the pool experiment's solvers ("f64" | "f32" |
  // "adaptive"). The mixed-precision A/B below always runs f32 vs f64
  // regardless of this flag; the default keeps the committed artifact on
  // the reference FP64 path.
  sparse::PrecisionPolicy main_policy = sparse::PrecisionPolicy::kF64;
  {
    const std::string p = args.get_string("precision", "f64");
    IRRLU_CHECK_MSG(sparse::policy_from_string(p.c_str(), main_policy),
                    "--precision must be f64, f32, or adaptive (got '"
                        << p << "')");
  }

  // (ntheta, ncross) torus resolutions; edge-element counts grow with
  // ntheta * ncross^2. --quick keeps the smoke target in ctest seconds.
  // The ncross = 2 points are thin tubes whose assembly trees consist
  // entirely of small fronts — the paper's deep-level regime.
  std::vector<std::pair<int, int>> family;
  if (quick)
    family = {{8, 4}, {48, 2}};
  else if (args.get_bool("large"))
    family = {{12, 6}, {16, 8}, {24, 8}, {32, 10}, {384, 2}, {1536, 2}};
  else
    family = {{12, 6}, {16, 8}, {24, 8}, {384, 2}, {768, 2}};

  std::printf("factorization benchmark (Maxwell torus family, device=%s, "
              "%d refactor repeats)\n\n",
              device.c_str(), repeats);
  TextTable table({"point", "N", "pool", "factor (ms)", "refactor med (ms)",
                   "host allocs", "pool hits", "hit rate"});
  TextTable prec_table({"point", "N", "f64 sim (ms)", "f32 sim (ms)",
                        "sim speedup", "f32 status", "f32 steps",
                        "f32 berr"});

  struct PointResult {
    int ntheta, ncross, n;
    long nnz;
    ConfigResult cfg[2];  // [0] = pool on, [1] = pool off
    PrecExperiment prec;
  };
  std::vector<PointResult> points;
  bool ok = true;

  // Mixed-precision A/B (DESIGN.md §14): the same system factored under
  // the uniform FP32 policy vs the reference FP64 policy, defaults
  // otherwise. The simulated-time ratio is deterministic. Wherever the
  // FP64 reference solve converges, the FP32 side must recover the same
  // refinement tolerance through LU-IR without tripping the fallback
  // refactor — near-resonant points where even FP64 partial pivoting
  // degrades (e.g. the 32x10 torus of --large) are exempt; the fallback
  // still engages there and keeps the better of the two results.
  auto run_prec_ab = [&](const fem::EdgeSystem& sys,
                         const std::vector<double>& b, int nt, int nc) {
    const int n = sys.a.rows();
    const sparse::PrecisionPolicy pols[2] = {sparse::PrecisionPolicy::kF32,
                                             sparse::PrecisionPolicy::kF64};
    PrecExperiment px;
    for (int i = 0; i < 2; ++i) {
      gpusim::Device pdev(model_by_name(device));
      sparse::SolverOptions opts;
      opts.nd.leaf_size = 16;
      opts.factor.precision = pols[i];
      sparse::SparseDirectSolver s(opts);
      s.analyze(sys.a);
      PrecConfig& r = px.cfg[i];
      r.policy = pols[i];
      r.factor_wall_s = wall_s([&] { s.factor(pdev); });
      // Read the simulated factor time and front census before the
      // solve: a fallback refactor would replace the numeric factor.
      r.factor_sim_s = s.numeric().factor_seconds();
      r.fp32_fronts = s.numeric().report().fp32_fronts;
      const sparse::SolveReport rep = s.solve_report(b);
      r.solve_status = sparse::to_string(rep.status);
      r.refine_steps = rep.refine_steps;
      r.berr = rep.berr;
      r.refactored_fp64 = rep.refactored_fp64;
    }
    px.sim_speedup = px.cfg[0].factor_sim_s > 0
                         ? px.cfg[1].factor_sim_s / px.cfg[0].factor_sim_s
                         : 0.0;
    if (px.cfg[1].solve_status == "converged" &&
        (px.cfg[0].solve_status != "converged" ||
         px.cfg[0].refactored_fp64)) {
      std::fprintf(stderr,
                   "FAIL: N=%d FP32-policy solve did not converge through "
                   "LU-IR (status %s, refactored_fp64=%d, berr %.3e)\n",
                   n, px.cfg[0].solve_status.c_str(),
                   px.cfg[0].refactored_fp64 ? 1 : 0, px.cfg[0].berr);
      ok = false;
    }
    prec_table.add_row(
        "torus " + std::to_string(nt) + "x" + std::to_string(nc), n,
        TextTable::fmt(px.cfg[1].factor_sim_s * 1e3, 3),
        TextTable::fmt(px.cfg[0].factor_sim_s * 1e3, 3),
        TextTable::fmt(px.sim_speedup, 2), px.cfg[0].solve_status,
        px.cfg[0].refine_steps, TextTable::sci(px.cfg[0].berr, 2));
    return px;
  };
  struct PrecPoint {
    int ntheta, ncross, n;
    PrecExperiment prec;
  };
  std::vector<PrecPoint> prec_anchors;

  for (const auto& [nt, nc] : family) {
    const fem::HexMesh mesh = fem::HexMesh::torus(nt, nc, nc);
    const fem::EdgeSystem sys = fem::assemble_maxwell(
        mesh, omega, fem::paper_maxwell_load(omega, omega / 1.05));
    const std::vector<double> b(sys.b.begin(), sys.b.end());

    PointResult pt;
    pt.ntheta = nt;
    pt.ncross = nc;
    pt.n = sys.a.rows();
    pt.nnz = static_cast<long>(sys.a.nnz());

    {
      // Untimed warmup of the whole pipeline at this size so the first
      // measured sample does not absorb one-time process costs (page
      // faults, packing-buffer growth, branch warmup).
      gpusim::Device dev(model_by_name(device));
      sparse::SolverOptions opts;
      opts.nd.leaf_size = 16;
      opts.factor.precision = main_policy;
      sparse::SparseDirectSolver warm(opts);
      warm.analyze(sys.a);
      warm.factor(dev);
    }

    // Samples are interleaved pool-on / pool-off (one A/B pair per
    // repetition, medians per config) so slow machine drift — frequency
    // scaling, noisy neighbours — cancels instead of biasing whichever
    // configuration happened to run second.
    std::vector<double> analyze_t[2], factor_t[2], refactor_t[2];
    std::vector<double> mc64_t[2], nd_t[2], symbolic_t[2];
    std::unique_ptr<gpusim::Device> devs[2];
    std::unique_ptr<trace::TraceSession> sessions[2];
    std::unique_ptr<sparse::SparseDirectSolver> solvers[2];
    for (int k = 0; k < repeats; ++k)
      for (int i = 0; i < 2; ++i) {
        const bool pool = i == 0;
        solvers[i].reset();  // drop device buffers before their device
        sessions[i].reset();
        devs[i] = std::make_unique<gpusim::Device>(model_by_name(device),
                                                   pool);
        sessions[i] = make_trace_session(
            *devs[i], args,
            "N" + std::to_string(pt.n) + (pool ? ".pool-on" : ".pool-off"));
        sparse::SolverOptions opts;
        opts.nd.leaf_size = 16;
        opts.factor.precision = main_policy;
        solvers[i] = std::make_unique<sparse::SparseDirectSolver>(opts);
        analyze_t[i].push_back(wall_s([&] { solvers[i]->analyze(sys.a); }));
        const sparse::AnalyzeTimings& at = solvers[i]->analyze_timings();
        mc64_t[i].push_back(at.mc64_s);
        nd_t[i].push_back(at.nd_s);
        symbolic_t[i].push_back(at.symbolic_s);
        factor_t[i].push_back(wall_s([&] { solvers[i]->factor(*devs[i]); }));
      }
    // Refactor with the same values on the surviving pair: the
    // sequence-of-systems pattern. From the second factorization on,
    // every front and every kernel workspace has a recycled block of
    // exactly the right class, so the pool configuration is what
    // separates the two columns.
    for (int k = 0; k < repeats; ++k)
      for (int i = 0; i < 2; ++i)
        refactor_t[i].push_back(
            wall_s([&] { solvers[i]->refactor(*devs[i], sys.a); }));

    for (int i = 0; i < 2; ++i) {
      ConfigResult& r = pt.cfg[i];
      r.pool = i == 0;
      r.analyze_s = median(analyze_t[i]);
      r.analyze_mc64_s = median(mc64_t[i]);
      r.analyze_nd_s = median(nd_t[i]);
      r.analyze_symbolic_s = median(symbolic_t[i]);
      r.factor_s = median(factor_t[i]);
      r.refactor_median_s = median(refactor_t[i]);
      std::vector<double> x;
      r.solve_s = wall_s([&] { x = solvers[i]->solve(b); });
      r.residual = solvers[i]->residual(x, b);

      r.factor_sim_s = solvers[i]->numeric().factor_seconds();
      r.launches = devs[i]->launch_count();
      r.allocs = devs[i]->alloc_count();
      r.host_allocs = devs[i]->host_alloc_count();
      r.pool_hits = devs[i]->pool_stats().hits;
      r.pool_misses = devs[i]->pool_stats().misses;
      r.pool_bytes_served =
          static_cast<double>(devs[i]->pool_stats().bytes_served);
      r.peak_bytes = devs[i]->peak_bytes();
      solvers[i].reset();  // release device buffers before the device
      sessions[i].reset();
      devs[i].reset();

      const double hit_rate =
          r.allocs > 0 ? static_cast<double>(r.pool_hits) /
                             static_cast<double>(r.allocs)
                       : 0.0;
      table.add_row("torus " + std::to_string(nt) + "x" + std::to_string(nc),
                    pt.n, r.pool ? "on" : "off",
                    TextTable::fmt(r.factor_s * 1e3, 2),
                    TextTable::fmt(r.refactor_median_s * 1e3, 2),
                    r.host_allocs, r.pool_hits, TextTable::fmt(hit_rate, 3));
    }

    // Invariants (never timing): the pool is invisible to the simulated
    // device and to the allocation stream, and strictly cheaper in host
    // mallocs once the refactor loop recycles.
    const ConfigResult& on = pt.cfg[0];
    const ConfigResult& off = pt.cfg[1];
    if (on.factor_sim_s != off.factor_sim_s || on.launches != off.launches ||
        on.allocs != off.allocs || on.peak_bytes != off.peak_bytes) {
      std::fprintf(stderr,
                   "FAIL: N=%d simulated runs diverge pool on/off "
                   "(sim %.17g vs %.17g s, launches %ld vs %ld, allocs %ld "
                   "vs %ld, peak %zu vs %zu B)\n",
                   pt.n, on.factor_sim_s, off.factor_sim_s, on.launches,
                   off.launches, on.allocs, off.allocs, on.peak_bytes,
                   off.peak_bytes);
      ok = false;
    }
    if (on.host_allocs >= off.host_allocs) {
      std::fprintf(stderr,
                   "FAIL: N=%d pool did not reduce host allocations "
                   "(%ld with pool vs %ld without)\n",
                   pt.n, on.host_allocs, off.host_allocs);
      ok = false;
    }
    if (on.residual > 1e-10 || off.residual > 1e-10) {
      std::fprintf(stderr, "FAIL: N=%d residual too large (%.3e / %.3e)\n",
                   pt.n, on.residual, off.residual);
      ok = false;
    }

    pt.prec = run_prec_ab(sys, b, nt, nc);
    points.push_back(pt);
  }

  // Large fat-torus anchors for the family-wide LU-IR speedup: on the
  // thin tubes and small points every front is latency-floor bound (the
  // per-launch and per-block overheads are precision-independent), so the
  // FP32 policy gains little there — the fat 3D points are where halved
  // bytes and the doubled microkernel rate have compute to win back.
  // The anchors run the precision A/B only (no pool experiment), keeping
  // the added bench runtime bounded; --quick skips them along with the
  // family-wide assertion below.
  if (!quick) {
    const std::vector<std::pair<int, int>> anchors = {{48, 12}, {64, 16}};
    for (const auto& [nt, nc] : anchors) {
      const fem::HexMesh mesh = fem::HexMesh::torus(nt, nc, nc);
      const fem::EdgeSystem sys = fem::assemble_maxwell(
          mesh, omega, fem::paper_maxwell_load(omega, omega / 1.05));
      const std::vector<double> b(sys.b.begin(), sys.b.end());
      PrecPoint ap;
      ap.ntheta = nt;
      ap.ncross = nc;
      ap.n = sys.a.rows();
      ap.prec = run_prec_ab(sys, b, nt, nc);
      prec_anchors.push_back(std::move(ap));
    }
  }

  table.print();
  std::printf("\nmixed precision (FP32 LU-IR vs FP64 reference):\n");
  prec_table.print();

  // Family-wide LU-IR win: summed over the torus family (sweep points +
  // fat anchors), the FP32 policy must factor at least 1.5x faster in
  // simulated device time than the FP64 reference. The sum is a
  // work-weighted average, so the fat anchors dominate exactly as real
  // factorization time does; the thin tubes honestly report per-point
  // ratios below 1 (their all-small-front trees are bound by
  // precision-independent launch and block-start floors, and the FP32
  // conversion kernels are pure overhead there). --quick runs only the
  // two smallest points, which is why it logs the ratio instead of
  // asserting on it.
  double prec_sim_f32 = 0, prec_sim_f64 = 0;
  for (const PointResult& pt : points) {
    prec_sim_f32 += pt.prec.cfg[0].factor_sim_s;
    prec_sim_f64 += pt.prec.cfg[1].factor_sim_s;
  }
  for (const PrecPoint& ap : prec_anchors) {
    prec_sim_f32 += ap.prec.cfg[0].factor_sim_s;
    prec_sim_f64 += ap.prec.cfg[1].factor_sim_s;
  }
  const double family_prec_speedup =
      prec_sim_f32 > 0 ? prec_sim_f64 / prec_sim_f32 : 0.0;
  if (!quick && family_prec_speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: family-wide FP32 simulated factor speedup %.3f < "
                 "1.5 (f64 %.6e s vs f32 %.6e s)\n",
                 family_prec_speedup, prec_sim_f64, prec_sim_f32);
    ok = false;
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  IRRLU_CHECK_MSG(f != nullptr, "bench_factor: cannot open " << out_path);
  json::Writer w(f);
  auto write_prec = [&w](const PrecExperiment& px) {
    w.key("configs");
    w.begin_array();
    for (const PrecConfig& r : px.cfg) {
      w.begin_object(/*compact=*/true);
      w.kv("policy", sparse::to_string(r.policy));
      w.kv("factor_wall_s", r.factor_wall_s, "%.6e");
      w.kv("factor_sim_s", r.factor_sim_s, "%.17g");
      w.kv_int("fp32_fronts", r.fp32_fronts);
      w.kv("solve_status", r.solve_status);
      w.kv_int("refine_steps", r.refine_steps);
      w.kv("berr", r.berr, "%.6e");
      w.kv_bool("refactored_fp64", r.refactored_fp64);
      w.end_object();
    }
    w.end_array();
    w.kv("sim_speedup", px.sim_speedup, "%.4f");
  };
  w.begin_object();
  w.kv("schema", "irrlu-bench-factor-v1");
  bench::write_bench_meta(w);
  w.kv("device", device);
  w.kv_int("repeats", repeats);
  w.key("points");
  w.begin_array();
  for (const PointResult& pt : points) {
    w.begin_object();
    w.kv_int("ntheta", pt.ntheta);
    w.kv_int("ncross", pt.ncross);
    w.kv_int("n", pt.n);
    w.kv_int("nnz", pt.nnz);
    w.key("configs");
    w.begin_array();
    for (const ConfigResult& r : pt.cfg) {
      w.begin_object(/*compact=*/true);
      w.kv_bool("pool", r.pool);
      w.kv("analyze_wall_s", r.analyze_s, "%.6e");
      w.kv("analyze_mc64_wall_s", r.analyze_mc64_s, "%.6e");
      w.kv("analyze_nd_wall_s", r.analyze_nd_s, "%.6e");
      w.kv("analyze_symbolic_wall_s", r.analyze_symbolic_s, "%.6e");
      w.kv("factor_wall_s", r.factor_s, "%.6e");
      w.kv("refactor_wall_median_s", r.refactor_median_s, "%.6e");
      w.kv("solve_wall_s", r.solve_s, "%.6e");
      w.kv("factor_sim_s", r.factor_sim_s, "%.17g");
      w.kv_int("launches", r.launches);
      w.kv_int("allocs", r.allocs);
      w.kv_int("host_allocs", r.host_allocs);
      w.kv_int("pool_hits", r.pool_hits);
      w.kv_int("pool_misses", r.pool_misses);
      w.kv("pool_bytes_served", r.pool_bytes_served, "%.0f");
      w.kv("pool_hit_rate",
           r.allocs > 0 ? static_cast<double>(r.pool_hits) /
                              static_cast<double>(r.allocs)
                        : 0.0,
           "%.6f");
      w.kv_int("peak_bytes", static_cast<long long>(r.peak_bytes));
      w.kv("residual", r.residual, "%.6e");
      w.end_object();
    }
    w.end_array();
    w.kv("refactor_speedup",
         pt.cfg[0].refactor_median_s > 0
             ? pt.cfg[1].refactor_median_s / pt.cfg[0].refactor_median_s
             : 0.0,
         "%.4f");
    w.kv("host_alloc_ratio",
         pt.cfg[1].host_allocs > 0
             ? static_cast<double>(pt.cfg[0].host_allocs) /
                   static_cast<double>(pt.cfg[1].host_allocs)
             : 0.0,
         "%.6f");
    w.key("precision");
    w.begin_object();
    write_prec(pt.prec);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  // Fat-torus anchors (non-quick runs): precision A/B only, included in
  // the family speedup sum.
  w.key("precision_anchor_points");
  w.begin_array();
  for (const PrecPoint& ap : prec_anchors) {
    w.begin_object();
    w.kv_int("ntheta", ap.ntheta);
    w.kv_int("ncross", ap.ncross);
    w.kv_int("n", ap.n);
    w.key("precision");
    w.begin_object();
    write_prec(ap.prec);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("precision_family_sim_speedup", family_prec_speedup, "%.4f");
  w.end_object();
  std::fprintf(f, "\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (ok) {
    std::printf("pool on/off simulated timelines identical; host mallocs "
                "strictly lower with the pool; FP32 LU-IR converged "
                "wherever FP64 does");
    if (quick)
      std::printf(" (family sim speedup %.2fx; the >= 1.5x assertion "
                  "needs the full family's fat anchors).\n",
                  family_prec_speedup);
    else
      std::printf(" with family sim speedup %.2fx >= 1.5.\n",
                  family_prec_speedup);
  }
  return ok ? 0 : 1;
}
