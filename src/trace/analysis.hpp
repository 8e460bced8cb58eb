// Trace analytics (DESIGN.md §13): post-processes the Tracer's recorded
// record stream — launches, host syncs, allocations, all stamped with one
// global sequence number — into
//   (a) a critical-path analysis over the launch/stream/sync dependency
//       DAG: the longest chain through the simulated timeline, with
//       per-kernel and per-scope contribution/slack rollups;
//   (b) per-stream utilization: busy fraction, idle-gap attribution
//       (what each gap was waiting on), and a log-bucketed gap histogram;
//   (c) what-if projections: the Amdahl-style speedup bound if a kernel
//       class or scope were k× faster, computed by replaying the DAG
//       with scaled durations.
//
// The replay reconstructs the Device's scheduling semantics from the
// records alone: host dispatch serialization (host_dispatch_overhead per
// launch, alloc_overhead per allocation, stream_sync_overhead per join)
// and per-stream in-order cursors. Occupancy delays — a launch starting
// after all its explicit constraints because SM slots were busy — are
// carried as measured per-launch constants, so scaling one kernel class
// never re-derives the slot schedule (documented approximation). A
// baseline replay must
// reproduce the recorded timeline *exactly* (bitwise) before any result
// is trusted: a trace with dropped records, a mid-trace reset_timeline(),
// or records from before the tracer attached fails the fidelity check
// and yields `valid == false` with a caveat instead of wrong numbers.
//
// The analysis runs when a trace is exported (the text report and the
// summary JSON, trace/report.hpp), over every record of the trace. Its
// cost grows with the trace, so nothing runs it per factorization.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/histogram.hpp"

namespace irrlu::gpusim {
struct DeviceModel;
}
namespace irrlu::json {
class Writer;
}

namespace irrlu::trace {

class Tracer;

/// What a critical-path node (or an idle gap) was waiting on.
enum class BindKind {
  kStart,      ///< nothing — bound by the start of the timeline
  kDispatch,   ///< the serialized host dispatch chain
  kStream,     ///< the previous launch on the same stream
  kSync,       ///< a host synchronize() joining a stream
  kOccupancy,  ///< SM slots busy with other work
};

/// One node of the critical path. `contribution` is telescoping: the
/// node's exit time minus its predecessor's anchor time, so the sum over
/// the path equals the makespan exactly. A launch reached through the
/// host dispatch chain contributes only its dispatch segment (run == 0):
/// the path runs through the host there, not the kernel's execution.
struct CritNode {
  std::size_t launch = 0;  ///< index into Tracer::launches()
  std::string kernel;
  std::string scope;          ///< innermost scope path, "" = none
  double start = 0, end = 0;  ///< the segment of this node on the path
  double run_seconds = 0;     ///< kernel execution inside the segment
  double stall_seconds = 0;   ///< contribution - run_seconds
  double occupancy_seconds = 0;  ///< part of the stall waiting on slots
  double contribution = 0;
  BindKind via = BindKind::kStart;  ///< what the stall was waiting on
};

/// Per-kernel (or per-scope) rollup over the critical path. `seconds`
/// sums the telescoping contributions, so the column total over all rows
/// equals the makespan; `slack_seconds` sums the durations of this
/// class's launches that are NOT on the path — execution fully
/// overlapped by the path, i.e. the time this class could slip without
/// (to first order) moving the makespan.
struct PathContribution {
  std::string name;
  long launches = 0;  ///< on-path launches of this class
  double seconds = 0;
  double run_seconds = 0;
  double stall_seconds = 0;
  double slack_seconds = 0;
};

/// One idle gap on a stream, attributed to what ended it.
struct StreamGap {
  double begin = 0, end = 0;
  BindKind via = BindKind::kStart;
  /// Scope of what ended the gap: the dispatching launch (kDispatch), else
  /// the next launch on the stream.
  std::string scope;
};

/// Per-stream busy/idle accounting over the common timeline span
/// [0, makespan]. busy + idle == span by construction (exactly).
struct StreamUtilization {
  int stream = 0;
  long launches = 0;
  double busy_seconds = 0;
  double idle_seconds = 0;
  double busy_fraction = 0;  ///< busy / span, 0 when the span is empty
  long gaps = 0;
  double largest_gap_seconds = 0;
  Histogram gap_hist;               ///< distribution of gap lengths
  std::vector<StreamGap> top_gaps;  ///< largest first, capped at 5
  /// Idle seconds attributed per scope (what the gaps waited on), sorted
  /// descending.
  std::vector<std::pair<std::string, double>> waits_on;
};

/// One what-if projection: the makespan if `target` were k× faster.
struct WhatIf {
  enum class Kind { kKernel, kScope };
  Kind kind = Kind::kKernel;
  std::string target;
  double speedup_k = 0;          ///< the hypothesis ("k× faster")
  double projected_seconds = 0;  ///< replayed makespan at k
  double speedup = 0;            ///< makespan / projected_seconds
  double bound = 0;  ///< Amdahl ceiling: speedup at k → ∞ (duration 0)
};

/// Full analysis result.
struct Analysis {
  bool valid = false;  ///< replay reproduced the recorded timeline
  std::string caveat;  ///< why not, when !valid (streams still filled)
  double makespan = 0;  ///< max sim_end over all launches
  /// Sum of path contributions; equals makespan exactly when valid.
  double critical_path_seconds = 0;
  std::vector<CritNode> path;              ///< earliest first
  std::vector<PathContribution> kernels;   ///< sorted by seconds, desc
  std::vector<PathContribution> scopes;    ///< sorted by seconds, desc
  std::vector<StreamUtilization> streams;  ///< by stream id
  std::vector<WhatIf> what_ifs;
};

/// k of the automatic what-if projections: each replays the trace with
/// one top contributor k times faster.
inline constexpr double kWhatIfSpeedup = 2.0;
/// How many top kernels/scopes get what-if projections (and how many rows
/// the text report prints).
inline constexpr int kTopContributors = 3;

/// False when IRRLU_TRACE_ANALYSIS=0: reports and summaries then skip the
/// analysis pass entirely (the "analysis" object is absent from the JSON).
bool analysis_enabled_from_env();

/// Runs the full analysis. Stream utilization is filled even when the
/// fidelity check fails; path/contributions/what-ifs require `valid`.
Analysis analyze_trace(const Tracer& tracer, const gpusim::DeviceModel& model);

/// Result of one DAG replay with scaled durations.
struct ReplayResult {
  bool ok = false;
  double makespan = 0;
  std::string caveat;
};

/// Replays the recorded dependency DAG with per-launch duration scale
/// factors (`scale[i]` multiplies launch i's duration; empty = all 1).
/// A scale of all ones reproduces the measured makespan bit-identically:
/// any launch whose inputs are unchanged reuses its recorded times
/// verbatim rather than recomputing them.
ReplayResult replay_scaled(const Tracer& tracer,
                           const gpusim::DeviceModel& model,
                           const std::vector<double>& scale = {});

/// Critical-path text report (appended to print_report when launches
/// were recorded).
void print_analysis_report(std::ostream& out, const Analysis& a);

/// Writes the "analysis" object value (the caller emits the key).
void write_analysis_json(json::Writer& w, const Analysis& a);

/// The summary JSON "analysis" object, as read back.
struct AnalysisSummary {
  bool present = false;  ///< whether the file carried the object
  bool valid = false;
  std::string caveat;
  double makespan = 0;
  double critical_path_seconds = 0;
  struct Contributor {
    std::string name;
    double seconds = 0;
  };
  std::vector<Contributor> kernels, scopes;
  struct StreamRow {
    int stream = 0;
    double busy_seconds = 0, idle_seconds = 0, busy_fraction = 0;
    long gaps = 0;
  };
  std::vector<StreamRow> streams;
  struct WhatIfRow {
    std::string kind, target;
    double speedup_k = 0, projected_seconds = 0, speedup = 0, bound = 0;
  };
  std::vector<WhatIfRow> what_ifs;
};

/// Reads the "analysis" object back from a summary JSON file; returns
/// `present == false` when the file has none (v1/v2 files).
AnalysisSummary read_analysis_summary(const std::string& summary_path);

/// Chrome-trace counter tracks (ph "C", pid 4): per-stream cumulative
/// busy fraction sampled at every launch end. Must be called inside the
/// traceEvents array.
void write_utilization_counter_events(json::Writer& w, const Tracer& tracer);

}  // namespace irrlu::trace
