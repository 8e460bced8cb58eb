// Unit tests for the tracing & telemetry subsystem: JSON helpers, the
// Tracer recorder, scope attribution, aggregate reports vs
// Device::profile(), the tracing-off invariant (bit-identical simulated
// times), and parse-back validation of both exporter formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "gpusim/device.hpp"
#include "trace/analysis.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/histogram.hpp"
#include "trace/report.hpp"
#include "trace/session.hpp"
#include "trace/trace.hpp"

using irrlu::Error;
using namespace irrlu::gpusim;
using namespace irrlu::trace;
namespace json = irrlu::json;

namespace {

/// Unique temp path per test (the build dir is the cwd under ctest).
std::string tmp_path(const std::string& stem) {
  return "trace_test_" + stem + "_" +
         std::to_string(::testing::UnitTest::GetInstance()
                            ->random_seed()) +
         ".json";
}

/// A small fixed launch program exercising streams, syncs, and scopes;
/// returns the final simulated time.
double run_program(Device& dev) {
  auto& s0 = dev.stream(0);
  auto& s1 = dev.stream(1);
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "outer");
    {
      IRRLU_TRACE_SCOPE(dev.tracer(), "produce");
      dev.launch(s0, {"producer", 4, 256},
                 [](BlockCtx& c) { c.record(1e6, 4e5); });
    }
    {
      IRRLU_TRACE_SCOPE(dev.tracer(), "consume");
      dev.launch(s1, {"consumer", 2, 0},
                 [](BlockCtx& c) { c.record(5e5, 1e5); });
    }
    dev.launch(s0, {"producer", 1, 0},
               [](BlockCtx& c) { c.record(1e4, 2e3); });
  }
  dev.synchronize(s0);
  return dev.synchronize_all();
}

}  // namespace

// ---------------------------------------------------------------------------
// JSON helpers (satellite: shared emitter in src/common)
// ---------------------------------------------------------------------------

TEST(Json, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, WriterParserRoundTrip) {
  const std::string path = tmp_path("roundtrip");
  {
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    json::Writer w(f);
    w.begin_object();
    w.kv("name", "irr\"lu");
    w.kv("pi", 3.25);
    w.kv_int("count", -7);
    w.kv_bool("flag", true);
    w.key("items");
    w.begin_array(/*compact=*/true);
    w.number_int(1);
    w.number_int(2);
    w.begin_object(true);
    w.kv("k", "v");
    w.end_object();
    w.end_array();
    w.key("nothing");
    w.null();
    w.end_object();
    std::fclose(f);
  }
  const json::Value v = json::parse_file(path);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->as_string(), "irr\"lu");
  EXPECT_DOUBLE_EQ(v.find("pi")->as_number(), 3.25);
  EXPECT_EQ(v.find("count")->as_int(), -7);
  EXPECT_TRUE(v.find("flag")->as_bool());
  const json::Value* items = v.find("items");
  ASSERT_TRUE(items != nullptr && items->is_array());
  ASSERT_EQ(items->items.size(), 3u);
  EXPECT_EQ(items->items[0].as_int(), 1);
  EXPECT_EQ(items->items[2].find("k")->as_string(), "v");
  EXPECT_EQ(v.find("nothing")->type, json::Value::Type::kNull);
  EXPECT_EQ(v.find("absent"), nullptr);
  std::remove(path.c_str());
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), Error);
  EXPECT_THROW(json::parse("[1,]"), Error);
  EXPECT_THROW(json::parse("{} trailing"), Error);
  EXPECT_THROW(json::parse("\"unterminated"), Error);
}

TEST(Json, ParserHandlesUnicodeEscapes) {
  const json::Value v = json::parse("\"a\\u00e9b\"");
  EXPECT_EQ(v.as_string(), "a\xc3\xa9" "b");  // é as UTF-8
}

// ---------------------------------------------------------------------------
// Tracer core
// ---------------------------------------------------------------------------

TEST(Tracer, InternsKernelNamesAndScopes) {
  Tracer t;
  EXPECT_EQ(t.intern_kernel("a"), t.intern_kernel("a"));
  EXPECT_NE(t.intern_kernel("a"), t.intern_kernel("b"));
  EXPECT_EQ(t.kernel_name(t.intern_kernel("b")), "b");

  const int outer = t.push_scope("outer");
  const int inner = t.push_scope("inner");
  t.pop_scope(0.5);
  const int inner2 = t.push_scope("inner");
  t.pop_scope(0.25);
  t.pop_scope(1.0);
  EXPECT_EQ(inner, inner2);  // same (parent, label) -> same node
  EXPECT_EQ(t.scope_path(inner), "outer/inner");
  EXPECT_EQ(t.scope_path(outer), "outer");
  EXPECT_EQ(t.scope_path(-1), "");
  const auto& nodes = t.scopes();
  EXPECT_EQ(nodes[static_cast<std::size_t>(inner)].parent, outer);
  EXPECT_EQ(nodes[static_cast<std::size_t>(outer)].parent, -1);
  EXPECT_EQ(nodes[static_cast<std::size_t>(inner)].entries, 2);
  EXPECT_DOUBLE_EQ(nodes[static_cast<std::size_t>(inner)].wall_seconds, 0.75);
  EXPECT_EQ(nodes[static_cast<std::size_t>(inner)].depth, 1);
  EXPECT_EQ(t.current_scope(), -1);  // fully unwound
}

TEST(Tracer, SameLabelUnderDifferentParentsIsDistinct) {
  Tracer t;
  const int a = t.push_scope("a");
  const int x1 = t.push_scope("x");
  t.pop_scope(0);
  t.pop_scope(0);
  const int b = t.push_scope("b");
  const int x2 = t.push_scope("x");
  t.pop_scope(0);
  t.pop_scope(0);
  EXPECT_NE(x1, x2);
  EXPECT_EQ(t.scope_path(x1), "a/x");
  EXPECT_EQ(t.scope_path(x2), "b/x");
  EXPECT_EQ(t.scopes()[static_cast<std::size_t>(x1)].parent, a);
  EXPECT_EQ(t.scopes()[static_cast<std::size_t>(x2)].parent, b);
}

TEST(Tracer, NullTracerScopeIsNoOp) {
  // The instrumented code paths pass dev.tracer() unconditionally; a null
  // tracer must be safe and free of side effects.
  IRRLU_TRACE_SCOPE(nullptr, "ignored");
  SUCCEED();
}

TEST(Tracer, RecordsLaunchFieldsFromDevice) {
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  run_program(dev);
  dev.set_tracer(nullptr);

  ASSERT_EQ(t.launches().size(), 3u);
  const LaunchRecord& r = t.launches()[0];
  EXPECT_EQ(t.kernel_name(r.name_id), "producer");
  EXPECT_EQ(r.stream, 0);
  EXPECT_EQ(r.blocks, 4);
  EXPECT_EQ(r.smem_bytes, 256u);
  EXPECT_DOUBLE_EQ(r.flops, 4e6);   // 4 blocks x 1e6
  EXPECT_DOUBLE_EQ(r.bytes, 1.6e6);
  EXPECT_EQ(t.scope_path(r.scope), "outer/produce");
  EXPECT_GT(r.sim_end, r.sim_start);
  EXPECT_GT(r.excl_seconds, 0.0);
  EXPECT_GE(r.wall_seconds, 0.0);
  EXPECT_GE(r.sim_start, r.host_issue);

  EXPECT_EQ(t.scope_path(t.launches()[1].scope), "outer/consume");
  EXPECT_EQ(t.scope_path(t.launches()[2].scope), "outer");
  EXPECT_EQ(t.launches()[1].stream, 1);
  EXPECT_EQ(t.max_stream_seen(), 1);

  // One per-stream sync + the final sync-all.
  ASSERT_EQ(t.syncs().size(), 2u);
  EXPECT_EQ(t.syncs()[0].stream, 0);
  EXPECT_EQ(t.syncs()[1].stream, -1);
  EXPECT_GE(t.syncs()[0].host_end, t.syncs()[0].host_begin);
  EXPECT_EQ(t.dropped_launches(), 0);
}

TEST(Tracer, CapDropsExcessLaunchesButNotTime) {
  Device dev(DeviceModel::test_tiny());
  Tracer t(/*reserve_launches=*/2, /*max_launches=*/3);
  dev.set_tracer(&t);
  for (int i = 0; i < 10; ++i)
    dev.launch(dev.stream(), {"capped", 1, 0},
               [](BlockCtx& c) { c.record(100, 0); });
  const double traced_time = dev.synchronize_all();
  dev.set_tracer(nullptr);
  EXPECT_EQ(t.launches().size(), 3u);
  EXPECT_EQ(t.dropped_launches(), 7);

  // The cap degrades the trace, never the simulation.
  Device ref(DeviceModel::test_tiny());
  for (int i = 0; i < 10; ++i)
    ref.launch(ref.stream(), {"capped", 1, 0},
               [](BlockCtx& c) { c.record(100, 0); });
  EXPECT_EQ(traced_time, ref.synchronize_all());
}

// ---------------------------------------------------------------------------
// The tracing-off invariant and profile() agreement
// ---------------------------------------------------------------------------

TEST(Tracer, TracingOnOffYieldsIdenticalSimulatedTimes) {
  Device plain(DeviceModel::test_tiny());
  const double t_plain = run_program(plain);

  Device traced(DeviceModel::test_tiny());
  Tracer t;
  traced.set_tracer(&t);
  const double t_traced = run_program(traced);
  traced.set_tracer(nullptr);

  EXPECT_EQ(t_plain, t_traced);  // bit-identical, not just close
  EXPECT_EQ(plain.host_time(), traced.host_time());
  EXPECT_EQ(plain.stream(0).completion_time(),
            traced.stream(0).completion_time());
  EXPECT_EQ(plain.stream(1).completion_time(),
            traced.stream(1).completion_time());
  ASSERT_EQ(plain.profile().size(), traced.profile().size());
  for (const auto& [name, st] : plain.profile()) {
    const KernelStats& o = traced.profile().at(name);
    EXPECT_EQ(st.sim_seconds, o.sim_seconds) << name;
    EXPECT_EQ(st.flops, o.flops) << name;
  }
}

TEST(Report, AggregateByKernelMatchesProfileExactly) {
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  run_program(dev);
  dev.set_tracer(nullptr);

  const auto agg = aggregate_by_kernel(t);
  ASSERT_EQ(agg.size(), dev.profile().size());
  for (const auto& [name, st] : dev.profile()) {
    ASSERT_EQ(agg.count(name), 1u) << name;
    const Agg& a = agg.at(name);
    EXPECT_EQ(a.launches, st.launches) << name;
    EXPECT_EQ(a.blocks, st.blocks) << name;
    EXPECT_EQ(a.flops, st.flops) << name;
    EXPECT_EQ(a.bytes, st.bytes) << name;
    EXPECT_EQ(a.excl_seconds, st.sim_seconds) << name;  // exact, by design
  }
}

TEST(Report, ProfileCountersMatchHandComputedWork) {
  // A known launch sequence with hand-computed flops/bytes, checked
  // through both the device profile and the trace aggregation.
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  for (int i = 0; i < 3; ++i)
    dev.launch(dev.stream(), {"hand", 4, 0}, [](BlockCtx& c) {
      c.record(1000, 300);
      c.record(500, 0);  // record() accumulates within a block
    });
  dev.synchronize_all();
  dev.set_tracer(nullptr);

  // 3 launches x 4 blocks x (1000 + 500) flops, x 300 bytes.
  const KernelStats& st = dev.profile().at("hand");
  EXPECT_EQ(st.launches, 3);
  EXPECT_EQ(st.blocks, 12);
  EXPECT_DOUBLE_EQ(st.flops, 18000.0);
  EXPECT_DOUBLE_EQ(st.bytes, 3600.0);
  EXPECT_DOUBLE_EQ(dev.total_flops(), 18000.0);
  // Copy: aggregate_by_kernel returns by value, a reference would dangle.
  const Agg a = aggregate_by_kernel(t).at("hand");
  EXPECT_DOUBLE_EQ(a.flops, 18000.0);
  EXPECT_DOUBLE_EQ(a.bytes, 3600.0);
}

TEST(Report, ExclSecondsInScopeCountsDescendantsOnce) {
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  run_program(dev);
  dev.set_tracer(nullptr);

  double total_excl = 0;
  for (const auto& r : t.launches()) total_excl += r.excl_seconds;
  // "outer" encloses all three launches; the leaves partition two of them.
  EXPECT_DOUBLE_EQ(excl_seconds_in_scope(t, "outer"), total_excl);
  const double produce = excl_seconds_in_scope(t, "produce");
  const double consume = excl_seconds_in_scope(t, "consume");
  EXPECT_GT(produce, 0.0);
  EXPECT_GT(consume, 0.0);
  EXPECT_LT(produce + consume, total_excl);
  EXPECT_EQ(excl_seconds_in_scope(t, "no_such_scope"), 0.0);
}

TEST(Report, AggregateKeysOnInnermostScope) {
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  run_program(dev);
  // One launch outside any scope lands under scope id -1.
  dev.launch(dev.stream(), {"unscoped", 1, 0},
             [](BlockCtx& c) { c.record(10, 0); });
  dev.synchronize_all();
  dev.set_tracer(nullptr);

  std::set<std::string> paths;
  bool saw_unscoped = false;
  for (const auto& [key, agg] : aggregate(t)) {
    EXPECT_GT(agg.launches, 0);
    if (key.first < 0) saw_unscoped = true;
    paths.insert(t.scope_path(key.first));
  }
  EXPECT_TRUE(saw_unscoped);
  EXPECT_TRUE(paths.count("outer/produce"));
  EXPECT_TRUE(paths.count("outer/consume"));
  EXPECT_TRUE(paths.count("outer"));
}

// ---------------------------------------------------------------------------
// Exporters: chrome trace + summary, validated by parsing them back
// ---------------------------------------------------------------------------

TEST(ChromeTrace, WritesValidEventStream) {
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  run_program(dev);
  dev.set_tracer(nullptr);

  const std::string path = tmp_path("chrome");
  write_chrome_trace(path, t, dev.model());
  const std::vector<ChromeEvent> events = read_chrome_trace(path);
  ASSERT_FALSE(events.empty());

  // B/E pairs must match like parentheses per (pid, tid), with
  // non-decreasing timestamps along every duration track.
  std::map<std::pair<int, int>, std::vector<std::string>> open;
  std::map<std::pair<int, int>, double> last_ts;
  std::set<int> kernel_tids;
  int scope_spans = 0;
  for (const ChromeEvent& e : events) {
    if (e.ph == "M") continue;
    const auto track = std::make_pair(e.pid, e.tid);
    ASSERT_GE(e.ts, 0.0) << e.name;
    if (e.ph == "B" || e.ph == "E") {
      if (last_ts.count(track)) {
        EXPECT_GE(e.ts, last_ts[track]) << "track (" << e.pid << "," << e.tid
                                        << ") went backwards at " << e.name;
      }
      last_ts[track] = e.ts;
    }
    if (e.ph == "B") {
      open[track].push_back(e.name);
    } else if (e.ph == "E") {
      ASSERT_FALSE(open[track].empty()) << "unmatched E for " << e.name;
      EXPECT_EQ(open[track].back(), e.name);
      open[track].pop_back();
    } else if (e.ph == "X") {
      EXPECT_EQ(e.pid, 2);  // scope spans live on the scopes pid
      EXPECT_GE(e.dur, 0.0);
      ++scope_spans;
    }
    if (e.pid == 1 && (e.ph == "B" || e.ph == "E")) kernel_tids.insert(e.tid);
  }
  for (const auto& [track, stack] : open)
    EXPECT_TRUE(stack.empty()) << "unclosed B on track (" << track.first
                               << "," << track.second << ")";
  // One device track per stream used by the program (streams 0 and 1).
  EXPECT_EQ(kernel_tids, (std::set<int>{0, 1}));
  // outer / produce / consume all produce spans.
  EXPECT_GE(scope_spans, 3);
  std::remove(path.c_str());
}

TEST(ChromeTrace, KernelEventsCarryScopePaths) {
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  run_program(dev);
  dev.set_tracer(nullptr);

  const std::string path = tmp_path("scopes");
  write_chrome_trace(path, t, dev.model());
  std::set<std::string> kernel_scopes;
  for (const ChromeEvent& e : read_chrome_trace(path))
    if (e.pid == 1 && e.ph == "B") kernel_scopes.insert(e.arg_scope);
  EXPECT_TRUE(kernel_scopes.count("outer/produce"));
  EXPECT_TRUE(kernel_scopes.count("outer/consume"));
  EXPECT_TRUE(kernel_scopes.count("outer"));
  std::remove(path.c_str());
}

TEST(ChromeTrace, ReaderRejectsNonTraceJson) {
  const std::string path = tmp_path("badtrace");
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"foo\": 1}", f);
  std::fclose(f);
  EXPECT_THROW(read_chrome_trace(path), Error);
  std::remove(path.c_str());
}

TEST(Summary, RoundTripsThroughReader) {
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  run_program(dev);
  dev.set_tracer(nullptr);

  const std::string path = tmp_path("summary");
  write_summary_json(path, t, dev.model());
  const std::vector<SummaryRow> rows = read_summary_json(path);
  ASSERT_FALSE(rows.empty());

  // The rows must reproduce the in-memory aggregation exactly.
  const auto agg = aggregate(t);
  ASSERT_EQ(rows.size(), agg.size());
  double rows_excl = 0, agg_excl = 0;
  long rows_launches = 0;
  for (const SummaryRow& r : rows) {
    EXPECT_FALSE(r.kernel.empty());
    rows_excl += r.excl_seconds;
    rows_launches += r.launches;
  }
  long agg_launches = 0;
  for (const auto& [key, a] : agg) {
    agg_excl += a.excl_seconds;
    agg_launches += a.launches;
  }
  EXPECT_EQ(rows_launches, agg_launches);
  EXPECT_NEAR(rows_excl, agg_excl, 1e-15 + 1e-12 * agg_excl);
  std::remove(path.c_str());
}

TEST(Summary, ReaderRejectsWrongSchema) {
  const std::string path = tmp_path("badschema");
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"schema\": \"something-else\", \"rows\": []}", f);
  std::fclose(f);
  EXPECT_THROW(read_summary_json(path), Error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Exporter edge cases: empty traces, capped traces, old schema versions
// ---------------------------------------------------------------------------

TEST(Exporters, EmptyTraceWritesParsableFiles) {
  // A device that never launched still produces well-formed artifacts:
  // the chrome trace parses (no events), the summary parses (no rows),
  // and the optional v3 objects are simply absent.
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  dev.set_tracer(nullptr);

  const std::string chrome = tmp_path("empty_chrome");
  const std::string summary = tmp_path("empty_summary");
  write_chrome_trace(chrome, t, dev.model());
  write_summary_json(summary, t, dev.model());

  EXPECT_NO_THROW(read_chrome_trace(chrome));
  EXPECT_TRUE(read_summary_json(summary).empty());
  EXPECT_FALSE(read_analysis_summary(summary).present);
  EXPECT_FALSE(read_histograms_summary(summary).present);
  std::remove(chrome.c_str());
  std::remove(summary.c_str());
}

TEST(Exporters, CappedTraceReportsInvalidAnalysisWithCaveat) {
  // Once the launch cap drops records the dependency DAG is incomplete;
  // the exported analysis must say so instead of publishing wrong
  // numbers.
  Device dev(DeviceModel::test_tiny());
  Tracer t(/*reserve_launches=*/2, /*max_launches=*/2);
  dev.set_tracer(&t);
  run_program(dev);
  dev.set_tracer(nullptr);
  ASSERT_GT(t.dropped_launches(), 0);

  const std::string path = tmp_path("capped_summary");
  write_summary_json(path, t, dev.model());
  const AnalysisSummary a = read_analysis_summary(path);
  ASSERT_TRUE(a.present);  // the object is written, flagged invalid
  EXPECT_FALSE(a.valid);
  EXPECT_NE(a.caveat.find("capped"), std::string::npos) << a.caveat;
  EXPECT_TRUE(a.kernels.empty());
  EXPECT_FALSE(a.streams.empty());  // utilization survives the cap
  std::remove(path.c_str());
}

TEST(Summary, ReaderAcceptsV1AndV2Files) {
  // Files written before the "memory" (v2) and "analysis"/"histograms"
  // (v3) objects existed must keep parsing, and the v3 object readers
  // must report absence rather than inventing data.
  const char* const docs[] = {
      "{\"schema\": \"irrlu-trace-summary-v1\", \"device\": \"old\",\n"
      " \"rows\": [{\"scope\": \"s\", \"kernel\": \"k\", \"launches\": 2,\n"
      "   \"blocks\": 8, \"flops\": 100.0, \"bytes\": 50.0,\n"
      "   \"sim_seconds\": 0.5, \"excl_seconds\": 0.25}]}",
      "{\"schema\": \"irrlu-trace-summary-v2\", \"device\": \"old\",\n"
      " \"memory\": {\"peak_bytes\": 0},\n"
      " \"rows\": [{\"scope\": \"s\", \"kernel\": \"k\", \"launches\": 2,\n"
      "   \"blocks\": 8, \"flops\": 100.0, \"bytes\": 50.0,\n"
      "   \"sim_seconds\": 0.5, \"excl_seconds\": 0.25}]}",
  };
  int version = 1;
  for (const char* doc : docs) {
    const std::string path =
        tmp_path("oldschema_v" + std::to_string(version++));
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(doc, f);
    std::fclose(f);

    const std::vector<SummaryRow> rows = read_summary_json(path);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].kernel, "k");
    EXPECT_EQ(rows[0].launches, 2);
    EXPECT_DOUBLE_EQ(rows[0].sim_seconds, 0.5);
    EXPECT_FALSE(read_analysis_summary(path).present);
    EXPECT_FALSE(read_histograms_summary(path).present);
    std::remove(path.c_str());
  }
}

TEST(Summary, V3RoundTripCarriesAnalysisAndHistograms) {
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  run_program(dev);
  t.observe("phase.demo_s", 0.5);
  dev.set_tracer(nullptr);

  const std::string path = tmp_path("v3_roundtrip");
  write_summary_json(path, t, dev.model());
  EXPECT_FALSE(read_summary_json(path).empty());
  const AnalysisSummary a = read_analysis_summary(path);
  ASSERT_TRUE(a.present);
  EXPECT_TRUE(a.valid);
  EXPECT_GT(a.makespan, 0.0);
  EXPECT_FALSE(a.streams.empty());
  const HistogramsSummary h = read_histograms_summary(path);
  ASSERT_TRUE(h.present);
  ASSERT_EQ(h.rows.size(), 1u);
  EXPECT_EQ(h.rows[0].name, "phase.demo_s");
  EXPECT_EQ(h.rows[0].count, 1);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// TraceSession wiring
// ---------------------------------------------------------------------------

TEST(TraceSession, DisabledWithoutPathOrEnv) {
  // The test runner does not set IRRLU_TRACE; an empty path must leave the
  // device untraced.
  ASSERT_EQ(std::getenv("IRRLU_TRACE"), nullptr)
      << "IRRLU_TRACE set in the test environment; unset it to run tests";
  Device dev(DeviceModel::test_tiny());
  TraceSession session(dev);
  EXPECT_FALSE(session.enabled());
  EXPECT_EQ(dev.tracer(), nullptr);
}

TEST(TraceSession, WritesBothFilesAndDetachesOnDestruction) {
  const std::string path = tmp_path("session");
  Device dev(DeviceModel::test_tiny());
  {
    TraceSession session(dev, path);
    ASSERT_TRUE(session.enabled());
    EXPECT_EQ(dev.tracer(), session.tracer());
    run_program(dev);
    EXPECT_EQ(session.summary_path(),
              path.substr(0, path.size() - 5) + ".summary.json");
  }
  EXPECT_EQ(dev.tracer(), nullptr);  // dtor detached
  EXPECT_FALSE(read_chrome_trace(path).empty());
  const std::string summary = path.substr(0, path.size() - 5) +
                              ".summary.json";
  EXPECT_FALSE(read_summary_json(summary).empty());
  std::remove(path.c_str());
  std::remove(summary.c_str());
}
