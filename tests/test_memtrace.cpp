// Tests for the memory-observability layer (DESIGN.md §9): tagged
// allocation tracking on the device, the Tracer's bounded allocation
// timeline with exact aggregate stats, the Chrome-trace counter tracks
// and summary-JSON "memory" object (with parse-back), the symbolic peak
// predictor against the measured factorization window, and the
// pure-bookkeeping invariant (tracking on/off yields bit-identical
// simulated results).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fem/mesh.hpp"
#include "fem/nedelec.hpp"
#include "gpusim/device.hpp"
#include "sparse/solver.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/memory.hpp"
#include "trace/report.hpp"
#include "trace/trace.hpp"

using namespace irrlu;
using namespace irrlu::gpusim;
using namespace irrlu::trace;

namespace {

std::string tmp_path(const std::string& stem) {
  return "memtrace_test_" + stem + "_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
         ".json";
}

/// The small Maxwell torus used by the predictor tests (a real assembly
/// tree with several levels and mixed front sizes).
fem::EdgeSystem small_maxwell() {
  const double omega = 16.0;
  const fem::HexMesh mesh = fem::HexMesh::torus(8, 4, 4);
  return fem::assemble_maxwell(mesh, omega,
                               fem::paper_maxwell_load(omega, omega / 1.05));
}

sparse::SolverOptions solver_opts(sparse::MemoryMode mode) {
  sparse::SolverOptions opts;
  opts.nd.leaf_size = 16;
  opts.factor.memory = mode;
  return opts;
}

const MemTagStats* stats_of(const Tracer& t, const std::string& tag) {
  const auto& names = t.mem_tags();
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == tag) return &t.mem_tag_stats()[i];
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Device-side recording: tags, stats, the bounded event log
// ---------------------------------------------------------------------------

TEST(MemTrace, ScopeDerivedTagsAndExactStats) {
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "phase");
    auto a = dev.alloc<double>(100);  // 800 B
    {
      IRRLU_TRACE_SCOPE(dev.tracer(), "inner");
      auto b = dev.alloc<char>(50);
      EXPECT_EQ(t.mem_current_bytes(), 850u);
    }  // b freed here, still attributed to "phase/inner"
    EXPECT_EQ(t.mem_current_bytes(), 800u);
  }
  dev.set_tracer(nullptr);

  const MemTagStats* phase = stats_of(t, "phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->allocs, 1);
  EXPECT_EQ(phase->frees, 1);
  EXPECT_EQ(phase->current_bytes, 0u);
  EXPECT_EQ(phase->peak_bytes, 800u);
  EXPECT_EQ(phase->lifetime_bytes, 800u);

  const MemTagStats* inner = stats_of(t, "phase/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->allocs, 1);
  EXPECT_EQ(inner->frees, 1);
  EXPECT_EQ(inner->peak_bytes, 50u);

  EXPECT_EQ(t.mem_peak_bytes(), 850u);
  EXPECT_EQ(t.mem_current_bytes(), 0u);
  ASSERT_EQ(t.mem_events().size(), 4u);  // 2 allocs + 2 frees
  EXPECT_FALSE(t.mem_events()[0].is_free);
  EXPECT_EQ(t.mem_events()[0].bytes, 800u);
  EXPECT_EQ(t.mem_events()[0].in_use_after, 800u);
  EXPECT_TRUE(t.mem_events()[3].is_free);
  EXPECT_EQ(t.mem_events()[3].in_use_after, 0u);
  EXPECT_EQ(t.dropped_mem_events(), 0);
}

TEST(MemTrace, SourceLocationFallbackTagOutsideScopes) {
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  auto buf = dev.alloc<int>(4);  // no active scope -> "file:line" tag
  dev.set_tracer(nullptr);

  ASSERT_EQ(t.mem_tags().size(), 1u);
  const std::string& tag = t.mem_tags()[0];
  EXPECT_EQ(tag.rfind("test_memtrace.cpp:", 0), 0u) << tag;
  EXPECT_EQ(t.mem_tag_name(-1), "(untracked)");
}

TEST(MemTrace, EventCapDropsEventsButStatsStayExact) {
  Device dev(DeviceModel::test_tiny());
  Tracer t(/*reserve_launches=*/16, /*max_launches=*/1 << 22,
           /*max_mem_events=*/4);
  dev.set_tracer(&t);
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "cap");
    std::vector<DeviceBuffer<char>> bufs;
    for (int i = 0; i < 10; ++i) bufs.push_back(dev.alloc<char>(100));
    EXPECT_EQ(t.mem_peak_bytes(), 1000u);
  }  // 10 frees, all past the cap
  dev.set_tracer(nullptr);

  EXPECT_EQ(t.mem_events().size(), 4u);
  EXPECT_EQ(t.dropped_mem_events(), 16);  // 20 events total, 4 recorded
  const MemTagStats* cap = stats_of(t, "cap");
  ASSERT_NE(cap, nullptr);
  EXPECT_EQ(cap->allocs, 10);  // aggregate stats ignore the cap
  EXPECT_EQ(cap->frees, 10);
  EXPECT_EQ(cap->current_bytes, 0u);
  EXPECT_EQ(cap->peak_bytes, 1000u);
  EXPECT_EQ(cap->lifetime_bytes, 1000u);
  EXPECT_EQ(t.mem_current_bytes(), 0u);
  EXPECT_EQ(t.mem_peak_bytes(), 1000u);
}

// ---------------------------------------------------------------------------
// Exporters: Chrome counter tracks + summary "memory" object round trip
// ---------------------------------------------------------------------------

TEST(MemTrace, ChromeTraceCarriesCounterTracks) {
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "phase");
    auto a = dev.alloc<double>(100);
    auto b = dev.alloc<char>(200);
  }
  dev.launch(dev.stream(), {"k", 1, 0},
             [](BlockCtx& c) { c.record(1e4, 0); });
  dev.synchronize_all();
  dev.set_tracer(nullptr);

  const std::string path = tmp_path("chrome");
  write_chrome_trace(path, t, dev.model());
  double max_total = 0;
  bool saw_tag_track = false;
  for (const ChromeEvent& e : read_chrome_trace(path)) {
    if (e.ph != "C") continue;
    if (e.cat == "utilization") {  // per-stream busy counters (pid 4)
      EXPECT_EQ(e.pid, 4);
      continue;
    }
    EXPECT_EQ(e.pid, 3);  // memory counters live on their own pid
    EXPECT_EQ(e.cat, "memory");
    if (e.name == "bytes_in_use") max_total = std::max(max_total, e.arg_bytes);
    if (e.name == "mem:phase") saw_tag_track = true;
  }
  EXPECT_EQ(max_total, static_cast<double>(t.mem_peak_bytes()));
  EXPECT_TRUE(saw_tag_track);
  std::remove(path.c_str());
}

TEST(MemTrace, SummaryMemoryObjectRoundTrips) {
  Device dev(DeviceModel::test_tiny());
  Tracer t;
  dev.set_tracer(&t);
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "alpha");
    auto a = dev.alloc<double>(64);
  }
  auto keep = dev.alloc<char>(33);  // still live at write time
  const std::string path = tmp_path("summary");
  write_summary_json(path, t, dev.model());

  const MemorySummary ref = memory_summary(t);
  const MemorySummary got = read_memory_summary(path);
  ASSERT_TRUE(got.present);
  EXPECT_EQ(got.peak_bytes, ref.peak_bytes);
  EXPECT_EQ(got.current_bytes, ref.current_bytes);
  EXPECT_EQ(got.current_bytes, 33u);
  EXPECT_EQ(got.events, ref.events);
  EXPECT_EQ(got.dropped_events, ref.dropped_events);
  ASSERT_EQ(got.tags.size(), ref.tags.size());
  for (std::size_t i = 0; i < ref.tags.size(); ++i) {
    EXPECT_EQ(got.tags[i].tag, ref.tags[i].tag);
    EXPECT_EQ(got.tags[i].allocs, ref.tags[i].allocs);
    EXPECT_EQ(got.tags[i].frees, ref.tags[i].frees);
    EXPECT_EQ(got.tags[i].current_bytes, ref.tags[i].current_bytes);
    EXPECT_EQ(got.tags[i].peak_bytes, ref.tags[i].peak_bytes);
    EXPECT_EQ(got.tags[i].lifetime_bytes, ref.tags[i].lifetime_bytes);
  }
  // The launch rows of the summary remain readable alongside.
  dev.set_tracer(nullptr);
  std::remove(path.c_str());
}

TEST(MemTrace, ReaderReportsAbsentMemoryObject) {
  const std::string path = tmp_path("v1file");
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"schema\": \"irrlu-trace-summary-v1\", \"rows\": []}", f);
  std::fclose(f);
  const MemorySummary s = read_memory_summary(path);
  EXPECT_FALSE(s.present);
  EXPECT_TRUE(s.tags.empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The pure-bookkeeping invariant on the full multifrontal pipeline
// ---------------------------------------------------------------------------

TEST(MemTrace, TrackingOnOffYieldsBitIdenticalFactorization) {
  const fem::EdgeSystem sys = small_maxwell();
  const std::vector<double> b(sys.b.begin(), sys.b.end());

  auto run = [&](bool traced, double* host_time, double* factor_seconds) {
    Device dev(DeviceModel::a100());
    Tracer t;
    if (traced) dev.set_tracer(&t);
    sparse::SparseDirectSolver solver(
        solver_opts(sparse::MemoryMode::kStackedLevels));
    solver.analyze(sys.a);
    solver.factor(dev);
    const std::vector<double> x = solver.solve(b);
    *host_time = dev.host_time();
    *factor_seconds = solver.numeric().factor_seconds();
    if (traced) {
      EXPECT_FALSE(t.mem_events().empty());
      dev.set_tracer(nullptr);
    }
    return x;
  };

  double host_plain = 0, factor_plain = 0, host_traced = 0, factor_traced = 0;
  const std::vector<double> x_plain = run(false, &host_plain, &factor_plain);
  const std::vector<double> x_traced = run(true, &host_traced, &factor_traced);

  EXPECT_EQ(host_plain, host_traced);      // bit-identical, not just close
  EXPECT_EQ(factor_plain, factor_traced);
  ASSERT_EQ(x_plain.size(), x_traced.size());
  for (std::size_t i = 0; i < x_plain.size(); ++i)
    ASSERT_EQ(x_plain[i], x_traced[i]) << "solution diverged at " << i;
}

TEST(MemTrace, MultifrontalAllocationsAreTagged) {
  const fem::EdgeSystem sys = small_maxwell();
  Device dev(DeviceModel::a100());
  Tracer t;
  dev.set_tracer(&t);
  sparse::SparseDirectSolver solver(
      solver_opts(sparse::MemoryMode::kAllUpfront));
  solver.analyze(sys.a);
  solver.factor(dev);
  dev.set_tracer(nullptr);

  const auto& tags = t.mem_tags();
  const auto has = [&](const std::string& needle, bool substring) {
    return std::any_of(tags.begin(), tags.end(), [&](const std::string& s) {
      return substring ? s.find(needle) != std::string::npos : s == needle;
    });
  };
  EXPECT_TRUE(has("factor/factor-store", false));
  EXPECT_TRUE(has("front-store", true));   // per-level working fronts
  EXPECT_TRUE(has("fronts<", true));       // front-size-class descriptors
  EXPECT_TRUE(has("factor/assembly", false));
  EXPECT_TRUE(has("factor/workspace", false));
  // Every allocation of the factorization is attributed (no fallback
  // site tags from the sparse layer).
  for (const std::string& tag : tags)
    EXPECT_EQ(tag.find(".cpp:"), std::string::npos) << tag;
  // The predicted/measured counters are exported for the summary.
  EXPECT_EQ(t.counters().count("memory.predicted_peak_bytes"), 1u);
  EXPECT_EQ(t.counters().count("memory.measured_peak_bytes"), 1u);
}

// ---------------------------------------------------------------------------
// Symbolic peak prediction vs the measured factorization window
// ---------------------------------------------------------------------------

TEST(MemTrace, PredictedPeakExactForAllUpfront) {
  const fem::EdgeSystem sys = small_maxwell();
  Device dev(DeviceModel::a100());
  sparse::SparseDirectSolver solver(
      solver_opts(sparse::MemoryMode::kAllUpfront));
  solver.analyze(sys.a);
  solver.factor(dev);
  const auto& rep = solver.numeric().report();
  EXPECT_EQ(rep.predicted_peak_bytes,
            solver.symbolic().predicted_peak_bytes(
                sparse::MemoryMode::kAllUpfront, {}));
  EXPECT_EQ(rep.predicted_peak_bytes, rep.measured_peak_bytes);  // exact
  EXPECT_GT(rep.measured_peak_bytes, 0u);
}

TEST(MemTrace, PredictedPeakWithin10PercentForStackedLevels) {
  const fem::EdgeSystem sys = small_maxwell();
  Device dev(DeviceModel::a100());
  sparse::SparseDirectSolver solver(
      solver_opts(sparse::MemoryMode::kStackedLevels));
  solver.analyze(sys.a);
  solver.factor(dev);
  const auto& rep = solver.numeric().report();
  ASSERT_GT(rep.measured_peak_bytes, 0u);
  const double ratio = static_cast<double>(rep.predicted_peak_bytes) /
                       static_cast<double>(rep.measured_peak_bytes);
  EXPECT_NEAR(ratio, 1.0, 0.10);
}

TEST(MemTrace, PredictedPeakExactUnderFp32Policies) {
  // FP32 front groups factor with 2 nb-column panels and rehearse their
  // U12 row swaps over the whole separator. The factorization's one
  // row-swap workspace is sized for both, and the predictor counts it:
  // no FP32 group draws an uncounted workspace from the device cache.
  const fem::EdgeSystem sys = small_maxwell();
  for (auto policy : {sparse::PrecisionPolicy::kF32,
                      sparse::PrecisionPolicy::kAdaptive})
    for (auto mode : {sparse::MemoryMode::kAllUpfront,
                      sparse::MemoryMode::kStackedLevels}) {
      SCOPED_TRACE(std::string(sparse::to_string(policy)) + " " +
                   sparse::to_string(mode));
      Device dev(DeviceModel::a100());
      sparse::SolverOptions opts = solver_opts(mode);
      opts.factor.precision = policy;
      sparse::SparseDirectSolver solver(opts);
      solver.analyze(sys.a);
      solver.factor(dev);
      const auto& rep = solver.numeric().report();
      ASSERT_GT(rep.fp32_fronts, 0);
      EXPECT_EQ(rep.predicted_peak_bytes, rep.measured_peak_bytes);
      EXPECT_EQ(dev.workspace_count(), 0u);
    }
}

TEST(MemTrace, PredictedLevelPeaksAreConsistent) {
  const fem::EdgeSystem sys = small_maxwell();
  sparse::SparseDirectSolver solver(
      solver_opts(sparse::MemoryMode::kAllUpfront));
  solver.analyze(sys.a);
  const auto& sym = solver.symbolic();

  for (auto mode : {sparse::MemoryMode::kAllUpfront,
                    sparse::MemoryMode::kStackedLevels}) {
    const auto levels = sym.predicted_level_peak_bytes(mode, {});
    ASSERT_EQ(levels.size(), sym.levels.size());
    EXPECT_EQ(*std::max_element(levels.begin(), levels.end()),
              sym.predicted_peak_bytes(mode, {}));
  }
  // The stacked window can never exceed the all-upfront footprint.
  const auto up = sym.predicted_level_peak_bytes(
      sparse::MemoryMode::kAllUpfront, {});
  const auto st = sym.predicted_level_peak_bytes(
      sparse::MemoryMode::kStackedLevels, {});
  for (std::size_t lvl = 0; lvl < up.size(); ++lvl)
    EXPECT_LE(st[lvl], up[lvl]) << "level " << lvl;
  EXPECT_LE(sym.predicted_peak_bytes(sparse::MemoryMode::kStackedLevels, {}),
            sym.predicted_peak_bytes(sparse::MemoryMode::kAllUpfront, {}));
}
