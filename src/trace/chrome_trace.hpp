// chrome://tracing JSON export of a Tracer's records, plus a reader used
// by tests/tools to validate the emitted file.
//
// Layout (Trace Event Format, "JSON object" flavor):
//   pid 0 "host"    — one track: synchronize() intervals (B/E pairs).
//   pid 1 "device"  — one track per stream (tid = stream id): every kernel
//                     launch as a B/E pair in simulated time, with
//                     blocks/smem/flops/bytes and the scope path as args.
//   pid 2 "scopes"  — scope spans as complete ("X") events, tid = scope
//                     depth; the span is derived from the launches
//                     attributed to the scope and its descendants.
//   pid 3 "memory"  — counter ("C") tracks: total "bytes_in_use" plus one
//                     "mem:<tag>" track per allocation tag (see
//                     trace/memory.hpp), sampled at every alloc/free.
// Timestamps are simulated seconds scaled to microseconds.
#pragma once

#include <string>
#include <vector>

namespace irrlu::gpusim {
struct DeviceModel;
}

namespace irrlu::trace {

class Tracer;

void write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const gpusim::DeviceModel& model);

/// One event as read back from a Chrome-trace file (subset of fields).
struct ChromeEvent {
  std::string name;
  std::string ph;   ///< "B", "E", "X", "i", "M"
  std::string cat;
  double ts = 0;    ///< microseconds
  double dur = 0;   ///< microseconds ("X" only)
  int pid = 0;
  int tid = 0;
  std::string arg_scope;  ///< args.scope when present
  double arg_bytes = 0;   ///< args.bytes when present (memory counters)
};

/// Parses a Chrome-trace file written by write_chrome_trace (throws
/// irrlu::Error on malformed JSON or missing traceEvents).
std::vector<ChromeEvent> read_chrome_trace(const std::string& path);

}  // namespace irrlu::trace
