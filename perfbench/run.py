#!/usr/bin/env python3
"""Solver benchmark: builds solver_bench from source, runs one workload
for one seed and prints the metrics as one JSON object on the last line.

    python3 perfbench/run.py --workload maxwell_sweep --seed 1 \
        --seconds 15 --trace 0

Run from the repository root. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics (see perfbench/README.md). The build goes
to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Exits 1
(after printing the result, "correct": false) when any op fails the
outside correctness check, and 2 without printing a result when the build
or the benchmark binary fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("maxwell_sweep", "thin_tube_cold", "service_mixed")
BENCH_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds solver_bench; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "solver_bench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "solver_bench")


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    v = sorted(values)
    if len(v) == 1:
        return v[0]
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def mean(values):
    return statistics.fmean(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    ph = raw["untraced"]
    wall = ph["op_wall_s"]
    cold = [w for w, c in zip(wall, ph["op_cold"]) if c]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "latency_p50_s": (quantile(wall, 0.5), "s"),
        "latency_p90_s": (quantile(wall, 0.9), "s"),
        "throughput_ops_s": (len(wall) / ph["busy_s"], "1/s"),
        "cold_latency_p50_s": (quantile(cold, 0.5), "s"),
        "sim_s_per_op": (ph["sim_s"] / len(wall), "s"),
        "peak_device_bytes": (ph["peak_device_bytes"], "bytes"),
        "peak_rss_bytes": (raw["peak_rss_bytes"], "bytes"),
    }


# Kernel families of the trace summary rows (LaunchConfig names).
KERNELS = {
    "gemm": ("irr_gemm",),
    "trsm": ("irr_trsm",),
    "panel": ("irr_getf2", "irr_iamax", "irr_swap", "irr_scal", "irr_ger",
              "irr_laswp", "ilv_laswp"),
    "assemble": ("mf_assemble",),
    "move": ("mf_extract", "mf_extend_add"),
    "diag": ("mf_front_norm", "mf_front_growth"),
}


def per_layer(raw, summary):
    untraced, ph = raw["untraced"], raw["traced"]
    sp, p1 = ph["spans"], ph["pass1"]
    svc = p1["service"]
    ops = len(ph["op_wall_s"])
    rows = summary.get("rows", [])
    counters = summary.get("counters", {})
    hists = summary.get("histograms", {})

    def rows_sum(family, field):
        prefixes = KERNELS[family]
        return sum(r[field] for r in rows if r["kernel"].startswith(prefixes))

    def hist(name, field):
        return hists.get(name, {}).get(field, 0.0)

    if sp["flush"]:  # service_mixed: the library calls happen inside flush
        analyze_total = hist("service.analyze_wall_s", "sum")
        analyze_s = ratio(analyze_total, hist("service.analyze_wall_s",
                                              "count"))
        factor_s = ratio(sp["scope_factor_s"], sp["scope_factor_entries"])
        solve_s = ratio(sp["scope_solve_many_s"], sp["service_batches"])
        factor_sim_s = ratio(hist("service.factor_s", "sum"),
                             hist("service.factor_s", "count"))
    else:
        analyze_total = sum(sp["analyze"])
        analyze_s = mean(sp["analyze"])
        factor_s = mean(sp["factor"])
        solve_s = mean(sp["solve"])
        factor_sim_s = mean(sp["factor_sim_s"])
    refactor_s = mean(sp["refactor"])
    factor_flops = mean(sp["factor_flops"])
    nd_s = mean(sp["split_nd"])
    factorizations = sp["scope_factor_entries"]
    factor_rows = [r for r in rows if "factor" in r["scope"].split("/")]
    kernel_wall = sum(r["wall_seconds"] for r in rows)
    gemm_wall = rows_sum("gemm", "wall_seconds")
    traced_tput = ops / ph["busy_s"]
    untraced_tput = len(untraced["op_wall_s"]) / untraced["busy_s"]

    return {
        "ordering.mc64_s": (mean(sp["split_mc64"]), "s"),
        "ordering.nd_s": (nd_s, "s"),
        "ordering.nd_share": (ratio(nd_s, analyze_s), "ratio"),
        "sparse.analyze_s": (analyze_s, "s"),
        "sparse.symbolic_s": (mean(sp["split_symbolic"]), "s"),
        "sparse.fronts": (mean(sp["fronts"]), "count"),
        "sparse.factor_flops": (factor_flops, "flop"),
        "sparse.factor_s": (factor_s, "s"),
        "sparse.refactor_s": (refactor_s, "s"),
        "sparse.refactor_gflops": (ratio(factor_flops, refactor_s) / 1e9,
                                   "GF/s"),
        "sparse.factor_sim_s": (factor_sim_s, "s"),
        "sparse.factor_launches": (
            ratio(sum(r["launches"] for r in factor_rows), factorizations),
            "count"),
        "sparse.fp32_fronts": (
            ratio(counters.get("factor.fp32_fronts", 0.0), factorizations),
            "count"),
        "sparse.solve_s": (solve_s, "s"),
        "sparse.refine_steps_mean": (ratio(sp["refine_steps"], sp["solves"]),
                                     "count"),
        "sparse.fp64_fallbacks": (p1["fp64_fallbacks"], "count"),
        "solve.refine_p50_s": (hist("solve.refine_s", "p50"), "s"),
        "irrblas.gemm_wall_s": (gemm_wall / ops, "s"),
        "irrblas.gemm_gflops": (
            ratio(rows_sum("gemm", "flops"), gemm_wall) / 1e9, "GF/s"),
        "irrblas.trsm_wall_s": (rows_sum("trsm", "wall_seconds") / ops, "s"),
        "irrblas.panel_wall_s": (rows_sum("panel", "wall_seconds") / ops,
                                 "s"),
        "sparse.mf_assemble_wall_s": (
            rows_sum("assemble", "wall_seconds") / ops, "s"),
        "sparse.mf_move_wall_s": (rows_sum("move", "wall_seconds") / ops,
                                  "s"),
        "sparse.mf_diag_wall_s": (rows_sum("diag", "wall_seconds") / ops,
                                  "s"),
        "gpusim.launches_per_op": (p1["launches"] / p1["ops"], "count"),
        "gpusim.host_allocs_per_op": (p1["host_allocs"] / p1["ops"],
                                      "count"),
        "gpusim.pool_hit_rate": (
            ratio(p1["pool_hits"], p1["pool_hits"] + p1["pool_misses"]),
            "ratio"),
        "gpusim.unattributed_s": (
            (ph["busy_s"] - analyze_total - kernel_wall) / ops, "s"),
        "service.flush_s": (mean(sp["flush"]), "s"),
        "service.symbolic_hit_rate": (
            ratio(svc["symbolic_hits"], svc["requests"]), "ratio"),
        "service.factor_reuse_rate": (
            ratio(svc["factor_reuses"], svc["requests"]), "ratio"),
        "service.analyze_runs": (svc["analyze_runs"], "count"),
        "service.refactors": (svc["refactors"], "count"),
        "service.evictions": (svc["evictions"], "count"),
        "service.mean_batch_rhs": (ratio(svc["batched_rhs"], svc["batches"]),
                                   "count"),
        "service.analyze_p50_s": (hist("service.analyze_wall_s", "p50"), "s"),
        "service.factor_p50_s": (hist("service.factor_s", "p50"), "s"),
        "service.solve_p50_s": (hist("service.solve_s", "p50"), "s"),
        "trace.overhead_share": (1.0 - traced_tput / untraced_tput, "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    trace_dir = os.path.join(build_dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    raw_path = os.path.join(build_dir,
                            f"raw.{args.workload}.{args.seed}.json")
    env = dict(os.environ)
    env.pop("IRRLU_TRACE", None)
    env["IRRLU_TRACE_ANALYSIS"] = "0"  # critical-path replay is not needed
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, env=env, timeout=BENCH_TIMEOUT_S,
                              stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        log(f"perfbench: solver_bench exceeded {BENCH_TIMEOUT_S} s")
        return 2
    if proc.returncode not in (0, 1):
        log(f"perfbench: solver_bench exited with {proc.returncode}")
        return 2
    with open(raw_path) as f:
        raw = json.load(f)

    if args.trace:
        summary_path = os.path.join(trace_dir,
                                    f"{args.workload}.summary.json")
        with open(summary_path) as f:
            metrics = per_layer(raw, json.load(f))
        # The Chrome trace beside the summary grows to ~10 MB per traced
        # second and is not read here.
        chrome_path = os.path.join(trace_dir, f"{args.workload}.json")
        if os.path.exists(chrome_path):
            os.remove(chrome_path)
    else:
        metrics = end_to_end(raw)
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
