// Unit tests for the trace-analytics layer (trace/analysis.hpp,
// trace/histogram.hpp): critical-path identity against the simulated
// makespan, exact per-stream busy/idle accounting, the what-if(k=1)
// bit-identity no-op, histogram percentile exactness, and the
// analysis-on/off output invariance.
//
// The device model below is chosen so every simulated time is a dyadic
// rational (half-performance points zeroed, power-of-two peaks and
// overheads): sums and differences of such times are exact in doubles,
// so the telescoping critical-path identity and the busy+idle == span
// identity can be asserted with EXPECT_EQ rather than tolerances.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "trace/analysis.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/report.hpp"
#include "trace/trace.hpp"

using namespace irrlu::gpusim;
using namespace irrlu::trace;

namespace {

/// All-dyadic cost model: block time = flops / 2^31 with no saturation
/// terms, power-of-two overheads.
DeviceModel dyadic_model() {
  DeviceModel m;
  m.name = "dyadic";
  m.num_sms = 2;
  m.peak_flops_per_sm = 2147483648.0;  // 2^31
  m.compute_efficiency = 1.0;
  m.half_perf_flops = 0;  // sat_c == 1: tc = flops / peak exactly
  m.half_perf_bytes = 0;
  m.mem_bandwidth = 2147483648.0;
  m.max_sm_bandwidth = 2147483648.0;
  m.host_dispatch_overhead = 0x1p-14;
  m.device_launch_latency = 0x1p-15;
  m.block_start_overhead = 0x1p-16;
  m.stream_sync_overhead = 0x1p-14;
  m.alloc_overhead = 0x1p-13;
  return m;
}

/// Hand-built dependency DAG over two streams: a producer chain on
/// stream 0, a host sync joining stream 0 before a consumer on stream 1
/// (the cross-stream edge), a host sync joining stream 1 back, an
/// allocation, and a tail kernel — every edge kind the replay handles.
double run_dag(Device& dev) {
  auto& s0 = dev.stream(0);
  auto& s1 = dev.stream(1);
  IRRLU_TRACE_SCOPE(dev.tracer(), "dag");
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "produce");
    dev.launch(s0, {"producer", 4, 0},
               [](BlockCtx& c) { c.record(0x1p22, 0); });
    dev.launch(s0, {"producer", 2, 0},
               [](BlockCtx& c) { c.record(0x1p21, 0); });
  }
  dev.synchronize(s0);
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "consume");
    dev.launch(s1, {"consumer", 2, 0},
               [](BlockCtx& c) { c.record(0x1p23, 0); });
  }
  dev.synchronize(s1);
  {
    auto buf = dev.alloc<double>(128);
    IRRLU_TRACE_SCOPE(dev.tracer(), "tail");
    dev.launch(s0, {"tail", 1, 0}, [](BlockCtx& c) { c.record(0x1p20, 0); });
  }
  return dev.synchronize_all();
}

double max_sim_end(const Tracer& t) {
  double m = 0;
  for (const LaunchRecord& r : t.launches())
    if (r.sim_end > m) m = r.sim_end;
  return m;
}

}  // namespace

// -- critical path ----------------------------------------------------------

TEST(Analysis, CriticalPathLengthEqualsMakespanExactly) {
  Device dev(dyadic_model());
  Tracer tracer;
  dev.set_tracer(&tracer);
  run_dag(dev);

  const Analysis a = analyze_trace(tracer, dev.model());
  ASSERT_TRUE(a.valid) << a.caveat;
  EXPECT_EQ(a.makespan, max_sim_end(tracer));
  // Telescoping contributions: bitwise identity, not a tolerance.
  EXPECT_EQ(a.critical_path_seconds, a.makespan);
  ASSERT_FALSE(a.path.empty());
  // The path is time-ordered and contiguous: each node starts where the
  // previous one ended, the last node ends at the makespan.
  EXPECT_EQ(a.path.front().start, 0.0);
  for (std::size_t i = 1; i < a.path.size(); ++i)
    EXPECT_EQ(a.path[i].start, a.path[i - 1].end);
  EXPECT_EQ(a.path.back().end, a.makespan);
  for (const CritNode& n : a.path) {
    EXPECT_GE(n.contribution, 0.0);
    EXPECT_GE(n.stall_seconds, 0.0);
    EXPECT_EQ(n.contribution, n.run_seconds + n.stall_seconds);
  }
  // Kernel rollups partition the path: their seconds sum to the makespan.
  double rollup = 0;
  for (const PathContribution& c : a.kernels) rollup += c.seconds;
  EXPECT_EQ(rollup, a.makespan);
}

TEST(Analysis, SlackCountsOffPathWork) {
  Device dev(dyadic_model());
  Tracer tracer;
  dev.set_tracer(&tracer);
  run_dag(dev);

  const Analysis a = analyze_trace(tracer, dev.model());
  ASSERT_TRUE(a.valid);
  long on_path = 0;
  double slack = 0;
  for (const PathContribution& c : a.kernels) {
    on_path += c.launches;
    slack += c.slack_seconds;
  }
  EXPECT_EQ(on_path, static_cast<long>(a.path.size()));
  // Slack is exactly the execution of launches never touched by the path
  // (a launch visited only through its dispatch segment still counts as
  // on-path and contributes no slack).
  std::set<std::size_t> touched;
  for (const CritNode& n : a.path) touched.insert(n.launch);
  double off_path_exec = 0;
  const auto& launches = tracer.launches();
  for (std::size_t i = 0; i < launches.size(); ++i)
    if (touched.count(i) == 0)
      off_path_exec += launches[i].sim_end - launches[i].sim_start;
  EXPECT_EQ(slack, off_path_exec);
}

// -- stream utilization -----------------------------------------------------

TEST(Analysis, StreamBusyPlusIdleSumsToSpanExactly) {
  Device dev(dyadic_model());
  Tracer tracer;
  dev.set_tracer(&tracer);
  run_dag(dev);

  const Analysis a = analyze_trace(tracer, dev.model());
  ASSERT_EQ(a.streams.size(), 2u);
  for (const StreamUtilization& u : a.streams) {
    // Exact identity, by construction: idle = span - busy.
    EXPECT_EQ(u.busy_seconds + u.idle_seconds, a.makespan);
    EXPECT_GE(u.busy_fraction, 0.0);
    EXPECT_LE(u.busy_fraction, 1.0);
    EXPECT_GE(u.gaps, 1);  // both streams have leading idle (dispatch)
    long hist_count = 0;
    EXPECT_EQ(u.gap_hist.count(), u.gaps);
    for (const auto& [b, c] : u.gap_hist.buckets()) hist_count += c;
    EXPECT_EQ(hist_count + u.gap_hist.underflow(), u.gaps);
    // waits_on attribution covers all idle time.
    double attributed = 0;
    for (const auto& [scope, s] : u.waits_on) attributed += s;
    EXPECT_EQ(attributed, u.idle_seconds);
  }
}

// -- what-if replay ---------------------------------------------------------

TEST(Analysis, WhatIfUnitScaleIsBitIdenticalNoOp) {
  Device dev(dyadic_model());
  Tracer tracer;
  dev.set_tracer(&tracer);
  run_dag(dev);

  const double makespan = max_sim_end(tracer);
  // Empty scale vector (all 1.0 implied).
  const ReplayResult r0 = replay_scaled(tracer, dev.model());
  ASSERT_TRUE(r0.ok) << r0.caveat;
  EXPECT_EQ(r0.makespan, makespan);
  // Explicit all-ones vector.
  const std::vector<double> ones(tracer.launches().size(), 1.0);
  const ReplayResult r1 = replay_scaled(tracer, dev.model(), ones);
  ASSERT_TRUE(r1.ok);
  EXPECT_EQ(r1.makespan, makespan);
}

TEST(Analysis, WhatIfProjectionsBracketTheMakespan) {
  Device dev(dyadic_model());
  Tracer tracer;
  dev.set_tracer(&tracer);
  run_dag(dev);

  const Analysis a = analyze_trace(tracer, dev.model());
  ASSERT_TRUE(a.valid);
  ASSERT_FALSE(a.what_ifs.empty());
  for (const WhatIf& wi : a.what_ifs) {
    EXPECT_LE(wi.projected_seconds, a.makespan);
    EXPECT_GE(wi.speedup, 1.0);
    // The Amdahl ceiling (k -> inf) dominates the finite-k speedup.
    EXPECT_GE(wi.bound, wi.speedup);
  }
}

TEST(Analysis, ScalingTheOnlyKernelHalvesItsExecution) {
  // Single-stream, single-kernel chain: at k=2 every duration halves and
  // the dispatch overheads stay, so the projected makespan is computable
  // by hand.
  Device dev(dyadic_model());
  Tracer tracer;
  dev.set_tracer(&tracer);
  auto& s0 = dev.stream(0);
  dev.launch(s0, {"only", 1, 0}, [](BlockCtx& c) { c.record(0x1p24, 0); });
  dev.launch(s0, {"only", 1, 0}, [](BlockCtx& c) { c.record(0x1p24, 0); });
  dev.synchronize_all();

  const auto& L = tracer.launches();
  ASSERT_EQ(L.size(), 2u);
  const std::vector<double> half(L.size(), 0.5);
  const ReplayResult r = replay_scaled(tracer, dev.model(), half);
  ASSERT_TRUE(r.ok);
  const double d0 = L[0].sim_end - L[0].sim_start;
  const double d1 = L[1].sim_end - L[1].sim_start;
  // First launch: same start, half duration. Second launch was
  // stream-bound; it now starts at the first's new end (its dispatch
  // constraint is earlier) and runs half as long.
  EXPECT_EQ(r.makespan, L[0].sim_start + 0.5 * d0 + 0.5 * d1);
}

// -- degraded traces --------------------------------------------------------

TEST(Analysis, CappedTraceYieldsInvalidWithCaveat) {
  Device dev(dyadic_model());
  Tracer tracer(/*reserve_launches=*/4, /*max_launches=*/2);
  dev.set_tracer(&tracer);
  run_dag(dev);
  ASSERT_GT(tracer.dropped_launches(), 0);

  const Analysis a = analyze_trace(tracer, dev.model());
  EXPECT_FALSE(a.valid);
  EXPECT_NE(a.caveat.find("capped"), std::string::npos);
  EXPECT_TRUE(a.path.empty());
  // Stream utilization is still reported (busy/idle need no replay).
  EXPECT_FALSE(a.streams.empty());
}

TEST(Analysis, EmptyTraceIsInvalidButHarmless) {
  Device dev(dyadic_model());
  Tracer tracer;
  dev.set_tracer(&tracer);
  const Analysis a = analyze_trace(tracer, dev.model());
  EXPECT_FALSE(a.valid);
  EXPECT_EQ(a.makespan, 0.0);
  EXPECT_TRUE(a.path.empty());
  EXPECT_TRUE(a.streams.empty());
}

// -- histograms -------------------------------------------------------------

TEST(Histogram, PercentilesExactOnKnownInputs) {
  Histogram h;
  // 100 observations: 1.0 x50, 2.0 x40, 8.0 x10. Bucket uppers are exact
  // powers of two (bucket_upper(8k) == 2^k), so the percentile values
  // are exact.
  for (int i = 0; i < 50; ++i) h.observe(1.0);
  for (int i = 0; i < 40; ++i) h.observe(2.0);
  for (int i = 0; i < 10; ++i) h.observe(8.0);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 8.0);
  EXPECT_EQ(h.sum(), 50.0 + 80.0 + 80.0);
  EXPECT_EQ(h.percentile(0.50), 1.0);  // rank 50 is the last 1.0
  EXPECT_EQ(h.percentile(0.51), 2.0);
  EXPECT_EQ(h.percentile(0.90), 2.0);  // rank 90 is the last 2.0
  EXPECT_EQ(h.percentile(0.91), 8.0);
  EXPECT_EQ(h.percentile(0.99), 8.0);
  EXPECT_EQ(h.percentile(1.00), 8.0);
}

TEST(Histogram, BucketBoundariesAreHalfOpen) {
  // bucket b covers (upper(b-1), upper(b)]: an exact power of two lands
  // in its own bucket, a nudge above in the next.
  EXPECT_EQ(Histogram::bucket_upper(Histogram::bucket_index(1.0)), 1.0);
  EXPECT_EQ(Histogram::bucket_upper(Histogram::bucket_index(2.0)), 2.0);
  EXPECT_GT(Histogram::bucket_index(std::nextafter(2.0, 3.0)),
            Histogram::bucket_index(2.0));
  EXPECT_LE(Histogram::bucket_index(std::nextafter(2.0, 1.0)),
            Histogram::bucket_index(2.0));
  for (double v : {1e-9, 3.7e-5, 0.125, 1.0, 7.5, 1e6}) {
    const int b = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_upper(b));
    EXPECT_GT(v, Histogram::bucket_upper(b - 1));
  }
}

TEST(Histogram, NonPositiveAndNaNLandInUnderflow) {
  Histogram h;
  h.observe(0.0);
  h.observe(-1.0);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(4.0);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.underflow(), 3);
  EXPECT_EQ(h.percentile(0.5), 0.0);   // rank 2 is in the underflow mass
  EXPECT_EQ(h.percentile(0.99), 4.0);  // rank 4 is the real observation
}

TEST(Histogram, TracerRegistryAccumulates) {
  Tracer t;
  t.observe("phase.a_s", 1.0);
  t.observe("phase.a_s", 2.0);
  t.observe("phase.b_s", 0.5);
  EXPECT_EQ(t.histograms().size(), 2u);
  EXPECT_EQ(t.histogram("phase.a_s").count(), 2);
  EXPECT_EQ(t.histogram("phase.b_s").count(), 1);
}

// -- analysis on/off invariance ---------------------------------------------

TEST(Analysis, AnalysisOnOffLeavesSimulatedTimelineIdentical) {
  // The analyzer is a pure post-processing pass: running it (or not)
  // must not change a single simulated time. Run the same program on a
  // traced device (analysis executed) and an untraced one; the final
  // clocks must agree bitwise — the same invariant the fig10 bench's
  // default (untraced) output relies on.
  Device traced(dyadic_model());
  Tracer tracer;
  traced.set_tracer(&tracer);
  const double t_traced = run_dag(traced);
  const Analysis a = analyze_trace(tracer, traced.model());
  ASSERT_TRUE(a.valid);

  Device plain(dyadic_model());
  const double t_plain = run_dag(plain);
  EXPECT_EQ(t_traced, t_plain);
}

TEST(Analysis, EnvKnobTogglesSummaryObjectOnly) {
  // IRRLU_TRACE_ANALYSIS=0 drops the "analysis" object from the summary
  // JSON; everything else (the rows) stays byte-equivalent.
  Device dev(dyadic_model());
  Tracer tracer;
  dev.set_tracer(&tracer);
  run_dag(dev);

  const std::string on = "analysis_env_on.json";
  const std::string off = "analysis_env_off.json";
  ::unsetenv("IRRLU_TRACE_ANALYSIS");
  write_summary_json(on, tracer, dev.model());
  ::setenv("IRRLU_TRACE_ANALYSIS", "0", 1);
  write_summary_json(off, tracer, dev.model());
  ::unsetenv("IRRLU_TRACE_ANALYSIS");

  const AnalysisSummary with = read_analysis_summary(on);
  EXPECT_TRUE(with.present);
  EXPECT_TRUE(with.valid);
  EXPECT_EQ(with.makespan, max_sim_end(tracer));
  EXPECT_EQ(with.critical_path_seconds, with.makespan);
  EXPECT_FALSE(with.kernels.empty());
  EXPECT_FALSE(with.streams.empty());
  const AnalysisSummary without = read_analysis_summary(off);
  EXPECT_FALSE(without.present);

  // The rows payload is unaffected by the knob.
  const auto rows_on = read_summary_json(on);
  const auto rows_off = read_summary_json(off);
  ASSERT_EQ(rows_on.size(), rows_off.size());
  for (std::size_t i = 0; i < rows_on.size(); ++i) {
    EXPECT_EQ(rows_on[i].kernel, rows_off[i].kernel);
    EXPECT_EQ(rows_on[i].sim_seconds, rows_off[i].sim_seconds);
  }
  std::remove(on.c_str());
  std::remove(off.c_str());
}

// -- exporters --------------------------------------------------------------

TEST(Analysis, SummaryRoundTripCarriesWhatIfsAndHistograms) {
  Device dev(dyadic_model());
  Tracer tracer;
  dev.set_tracer(&tracer);
  run_dag(dev);
  tracer.observe("service.factor_s", 0.5);
  tracer.observe("service.factor_s", 1.0);

  const std::string path = "analysis_roundtrip.json";
  write_summary_json(path, tracer, dev.model());

  const AnalysisSummary a = read_analysis_summary(path);
  ASSERT_TRUE(a.present);
  EXPECT_FALSE(a.what_ifs.empty());
  for (const auto& wi : a.what_ifs) {
    EXPECT_EQ(wi.speedup_k, 2.0);
    EXPECT_GE(wi.bound, wi.speedup);
  }
  const HistogramsSummary h = read_histograms_summary(path);
  ASSERT_TRUE(h.present);
  ASSERT_EQ(h.rows.size(), 1u);
  EXPECT_EQ(h.rows[0].name, "service.factor_s");
  EXPECT_EQ(h.rows[0].count, 2);
  // p50 rank 1 is the 0.5 sample; 0.5 == 2^-1 is an exact bucket upper.
  EXPECT_EQ(h.rows[0].p50, 0.5);
  EXPECT_EQ(h.rows[0].p99, 1.0);
  EXPECT_EQ(h.rows[0].sum, 1.5);
  std::remove(path.c_str());
}

TEST(Analysis, ChromeTraceGainsUtilizationCounterTrack) {
  Device dev(dyadic_model());
  Tracer tracer;
  dev.set_tracer(&tracer);
  run_dag(dev);

  const std::string path = "analysis_chrome.json";
  write_chrome_trace(path, tracer, dev.model());
  long counters = 0;
  for (const ChromeEvent& e : read_chrome_trace(path)) {
    if (e.pid != 4) continue;
    if (e.ph == "C") ++counters;
  }
  // One sample per launch end.
  EXPECT_EQ(counters, static_cast<long>(tracer.launches().size()));
  std::remove(path.c_str());
}
