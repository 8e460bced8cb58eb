// Tracing & telemetry for the simulated device: a per-launch event
// recorder plus RAII scope annotations, feeding the Chrome-trace and
// aggregate-report exporters (see DESIGN.md, "Tracing and telemetry").
//
// Layering: this header is free of gpusim includes so the trace library
// sits *below* gpusim. Device holds a `trace::Tracer*` (forward-declared)
// and feeds it from end_launch/synchronize/raw_alloc/raw_free; a null
// pointer — the default — costs one branch per launch and records nothing.
//
// The tracer is pure bookkeeping: it never advances any simulated
// timeline, so tracing on/off yields bit-identical simulated times (this
// invariant is tested).
#pragma once

#include <cstddef>
#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/histogram.hpp"

namespace irrlu::trace {

/// One kernel launch, as recorded by Device::end_launch.
struct LaunchRecord {
  long seq = 0;       ///< global record order across all record kinds
  int name_id = -1;   ///< index into Tracer::kernel_names()
  int scope = -1;     ///< innermost scope at enqueue time, -1 = none
  int stream = 0;
  int blocks = 0;
  std::size_t smem_bytes = 0;
  double flops = 0;
  double bytes = 0;
  double sim_start = 0;     ///< simulated time the first block starts
  double sim_end = 0;       ///< simulated time the last block finishes
  double excl_seconds = 0;  ///< exclusive attribution, matches KernelStats
  double host_issue = 0;    ///< simulated host time the launch was issued
  double wall_seconds = 0;  ///< real host seconds executing the blocks
};

/// One host synchronization (synchronize / synchronize_all).
struct SyncRecord {
  long seq = 0;     ///< global record order across all record kinds
  int stream = -1;  ///< -1 = synchronize_all
  double host_begin = 0;
  double host_end = 0;
};

/// A node in the interned scope tree ("factor" / "level=3" / ...).
struct ScopeNode {
  std::string label;
  int parent = -1;
  int depth = 0;
  long entries = 0;         ///< times this scope was entered
  double wall_seconds = 0;  ///< real host seconds spent inside
};

/// One device allocation or free, as recorded by Device::raw_alloc /
/// raw_free while a tracer is attached.
struct MemEventRecord {
  long seq = 0;         ///< global record order across all record kinds
  bool is_free = false;
  int tag = -1;                 ///< index into Tracer::mem_tags(), -1 = none
  std::size_t bytes = 0;        ///< size of this allocation
  std::size_t in_use_after = 0; ///< device bytes_in_use after the event
  double sim_time = 0;          ///< simulated host time of the event
  double wall_seconds = 0;      ///< real host seconds since tracer creation
};

/// Per-tag aggregate allocation statistics. Unlike the bounded event log,
/// these stay exact even once events are dropped.
struct MemTagStats {
  long allocs = 0;
  long frees = 0;
  std::size_t current_bytes = 0;   ///< live bytes attributed to the tag
  std::size_t peak_bytes = 0;      ///< high-water of current_bytes
  std::size_t lifetime_bytes = 0;  ///< total bytes ever allocated
};

/// Collects launch/sync/scope records for one Device. Storage is
/// reserve-based with a hard cap: once `max_launches` records exist,
/// further launches are counted as dropped instead of recorded, so a
/// runaway run degrades the trace rather than memory.
class Tracer {
 public:
  explicit Tracer(std::size_t reserve_launches = std::size_t{1} << 14,
                  std::size_t max_launches = std::size_t{1} << 22,
                  std::size_t max_mem_events = std::size_t{1} << 20);

  // --- recording (called by Device and TraceScope) -----------------------
  int intern_kernel(const char* name);
  void on_launch(const LaunchRecord& r);
  void on_sync(int stream, double host_begin, double host_end);
  int push_scope(std::string_view label);
  void pop_scope(double wall_seconds);
  /// Named telemetry counters (e.g. numerical-robustness diagnostics fed
  /// by the multifrontal factorization). `add_counter` accumulates,
  /// `max_counter` keeps the running maximum — both create the counter on
  /// first use.
  void add_counter(std::string_view name, double value);
  void max_counter(std::string_view name, double value);
  /// Log-bucketed latency histograms (the metrics registry): `observe`
  /// records one sample under `name`, creating the histogram on first
  /// use; `histogram` hands out the named histogram for direct queries.
  /// Fed by the service layer (per-phase and per-tenant latency) and by
  /// anything else with a Tracer pointer; exported as the summary JSON
  /// "histograms" object (schema v3) and the text-report percentile
  /// table. Pure bookkeeping like every other tracer channel.
  void observe(std::string_view name, double value);
  Histogram& histogram(std::string_view name);
  /// Memory timeline (fed by Device::raw_alloc / raw_free). Tags are
  /// interned like kernel names; `on_alloc`/`on_free` stamp the real-time
  /// clock internally (relative to tracer creation) so the device never
  /// reads wall clocks for memory bookkeeping.
  int intern_mem_tag(std::string_view tag);
  void on_alloc(int tag, std::size_t bytes, double sim_time,
                std::size_t in_use_after);
  void on_free(int tag, std::size_t bytes, double sim_time,
               std::size_t in_use_after);

  // --- inspection --------------------------------------------------------
  int current_scope() const { return current_scope_; }
  const std::vector<LaunchRecord>& launches() const { return launches_; }
  const std::vector<SyncRecord>& syncs() const { return syncs_; }
  const std::vector<ScopeNode>& scopes() const { return scope_nodes_; }
  const std::vector<std::string>& kernel_names() const { return names_; }
  const std::string& kernel_name(int id) const {
    return names_[static_cast<std::size_t>(id)];
  }
  /// Full "a/b/c" path of a scope node (empty for id < 0).
  std::string scope_path(int id) const;
  long dropped_launches() const { return dropped_; }
  int max_stream_seen() const { return max_stream_; }
  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  const std::vector<MemEventRecord>& mem_events() const { return mem_events_; }
  const std::vector<std::string>& mem_tags() const { return mem_tag_names_; }
  /// Tag label for an event (the "(untracked)" bucket for tag < 0).
  std::string_view mem_tag_name(int tag) const {
    return tag < 0 ? std::string_view("(untracked)")
                   : std::string_view(
                         mem_tag_names_[static_cast<std::size_t>(tag)]);
  }
  /// Aggregate stats per tag, index-aligned with mem_tags().
  const std::vector<MemTagStats>& mem_tag_stats() const {
    return mem_tag_stats_;
  }
  long dropped_mem_events() const { return dropped_mem_; }
  /// Running maxima of bytes-in-use as seen by this tracer; exact even
  /// when the event log is saturated.
  std::size_t mem_peak_bytes() const { return mem_peak_bytes_; }
  std::size_t mem_current_bytes() const { return mem_current_bytes_; }

 private:
  std::vector<LaunchRecord> launches_;
  std::vector<SyncRecord> syncs_;
  std::size_t max_launches_;
  long next_seq_ = 0;  ///< stamped on every recorded record, all kinds
  long dropped_ = 0;
  int max_stream_ = 0;

  std::vector<std::string> names_;
  std::map<std::string, int> name_ids_;

  std::vector<ScopeNode> scope_nodes_;
  std::map<std::pair<int, std::string>, int> scope_ids_;  ///< (parent, label)
  std::vector<int> scope_stack_;
  int current_scope_ = -1;

  std::map<std::string, double> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;

  std::vector<MemEventRecord> mem_events_;
  std::size_t max_mem_events_;
  long dropped_mem_ = 0;
  std::vector<std::string> mem_tag_names_;
  std::map<std::string, int> mem_tag_ids_;
  std::vector<MemTagStats> mem_tag_stats_;
  std::size_t mem_peak_bytes_ = 0;
  std::size_t mem_current_bytes_ = 0;
  std::chrono::steady_clock::time_point mem_epoch_;

  void record_mem_event(bool is_free, int tag, std::size_t bytes,
                        double sim_time, std::size_t in_use_after);
};

/// RAII scope annotation. A null tracer makes every member a no-op, so
/// instrumented code paths cost one branch when tracing is off.
class TraceScope {
 public:
  TraceScope(Tracer* t, std::string_view label) : t_(t) {
    if (t_) {
      t_->push_scope(label);
      wall0_ = std::chrono::steady_clock::now();
    }
  }
  ~TraceScope() {
    if (t_)
      t_->pop_scope(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall0_)
                        .count());
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* t_;
  std::chrono::steady_clock::time_point wall0_;
};

#define IRRLU_TRACE_CONCAT_INNER(a, b) a##b
#define IRRLU_TRACE_CONCAT(a, b) IRRLU_TRACE_CONCAT_INNER(a, b)
/// Opens a scope for the rest of the enclosing block:
///   IRRLU_TRACE_SCOPE(dev.tracer(), "panel");
#define IRRLU_TRACE_SCOPE(tracer, label)                 \
  ::irrlu::trace::TraceScope IRRLU_TRACE_CONCAT(         \
      irrlu_trace_scope_, __LINE__)((tracer), (label))

}  // namespace irrlu::trace
