#include "trace/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/error.hpp"
#include "common/json.hpp"
#include "gpusim/device_model.hpp"
#include "trace/analysis.hpp"
#include "trace/memory.hpp"
#include "trace/trace.hpp"

namespace irrlu::trace {

namespace {

constexpr double kToMicros = 1e6;  // simulated seconds -> trace microseconds

void meta_name_event(json::Writer& w, const char* key, int pid, int tid,
                     const std::string& value, bool thread) {
  w.begin_object(/*compact=*/true);
  w.kv("name", key);
  w.kv("ph", "M");
  w.kv_int("pid", pid);
  if (thread) w.kv_int("tid", tid);
  w.key("args");
  w.begin_object(true);
  w.kv("name", value);
  w.end_object();
  w.end_object();
}

}  // namespace

void write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const gpusim::DeviceModel& model) {
  FILE* f = std::fopen(path.c_str(), "w");
  IRRLU_CHECK_MSG(f != nullptr, "trace: cannot open " << path);
  json::Writer w(f);

  w.begin_object();
  w.key("otherData");
  w.begin_object();
  w.kv("schema", "irrlu-chrome-trace-v1");
  w.kv("device", model.name);
  w.kv_int("launches", static_cast<long long>(tracer.launches().size()));
  w.kv_int("dropped_launches", tracer.dropped_launches());
  w.end_object();

  w.key("traceEvents");
  w.begin_array();

  // --- track metadata ----------------------------------------------------
  meta_name_event(w, "process_name", 0, 0, "host", false);
  meta_name_event(w, "process_name", 1, 0, "device (" + model.name + ")",
                  false);
  meta_name_event(w, "process_name", 2, 0, "scopes", false);
  if (!tracer.mem_events().empty())
    meta_name_event(w, "process_name", 3, 0, "memory", false);
  if (!tracer.launches().empty())
    meta_name_event(w, "process_name", 4, 0, "utilization", false);
  meta_name_event(w, "thread_name", 0, 0, "host timeline", true);
  for (int s = 0; s <= tracer.max_stream_seen(); ++s)
    meta_name_event(w, "thread_name", 1, s,
                    "stream " + std::to_string(s), true);

  // --- kernel launches: one B/E pair per launch on its stream track ------
  // Launches on one stream never overlap (the stream cursor is monotone),
  // so B/E pairs nest trivially per track.
  for (const LaunchRecord& r : tracer.launches()) {
    const std::string& name = tracer.kernel_name(r.name_id);
    w.begin_object(true);
    w.kv("name", name);
    w.kv("cat", "kernel");
    w.kv("ph", "B");
    w.kv("ts", r.sim_start * kToMicros, "%.6f");
    w.kv_int("pid", 1);
    w.kv_int("tid", r.stream);
    w.key("args");
    w.begin_object(true);
    w.kv("scope", tracer.scope_path(r.scope));
    w.kv_int("blocks", r.blocks);
    w.kv_int("smem_bytes", static_cast<long long>(r.smem_bytes));
    w.kv("flops", r.flops, "%.0f");
    w.kv("bytes", r.bytes, "%.0f");
    w.kv("excl_us", r.excl_seconds * kToMicros, "%.6f");
    w.kv("host_issue_us", r.host_issue * kToMicros, "%.6f");
    w.kv("wall_us", r.wall_seconds * kToMicros, "%.3f");
    w.end_object();
    w.end_object();

    w.begin_object(true);
    w.kv("name", name);
    w.kv("cat", "kernel");
    w.kv("ph", "E");
    w.kv("ts", r.sim_end * kToMicros, "%.6f");
    w.kv_int("pid", 1);
    w.kv_int("tid", r.stream);
    w.end_object();
  }

  // --- host synchronization intervals ------------------------------------
  for (const SyncRecord& s : tracer.syncs()) {
    const std::string name =
        s.stream < 0 ? "synchronize_all"
                     : "synchronize(stream " + std::to_string(s.stream) + ")";
    w.begin_object(true);
    w.kv("name", name);
    w.kv("cat", "sync");
    w.kv("ph", "B");
    w.kv("ts", s.host_begin * kToMicros, "%.6f");
    w.kv_int("pid", 0);
    w.kv_int("tid", 0);
    w.end_object();
    w.begin_object(true);
    w.kv("name", name);
    w.kv("cat", "sync");
    w.kv("ph", "E");
    w.kv("ts", s.host_end * kToMicros, "%.6f");
    w.kv_int("pid", 0);
    w.kv_int("tid", 0);
    w.end_object();
  }

  // --- scope spans, derived from attributed launches ----------------------
  const auto& nodes = tracer.scopes();
  std::vector<double> lo(nodes.size(), std::numeric_limits<double>::max());
  std::vector<double> hi(nodes.size(), -1);
  std::vector<long> nlaunch(nodes.size(), 0);
  std::vector<double> nflops(nodes.size(), 0), nbytes(nodes.size(), 0);
  for (const LaunchRecord& r : tracer.launches())
    for (int s = r.scope; s >= 0;
         s = nodes[static_cast<std::size_t>(s)].parent) {
      const auto i = static_cast<std::size_t>(s);
      lo[i] = std::min(lo[i], r.sim_start);
      hi[i] = std::max(hi[i], r.sim_end);
      ++nlaunch[i];
      nflops[i] += r.flops;
      nbytes[i] += r.bytes;
    }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nlaunch[i] == 0) continue;  // scope enqueued no device work
    w.begin_object(true);
    w.kv("name", nodes[i].label);
    w.kv("cat", "scope");
    w.kv("ph", "X");
    w.kv("ts", lo[i] * kToMicros, "%.6f");
    w.kv("dur", (hi[i] - lo[i]) * kToMicros, "%.6f");
    w.kv_int("pid", 2);
    w.kv_int("tid", nodes[i].depth);
    w.key("args");
    w.begin_object(true);
    w.kv("scope", tracer.scope_path(static_cast<int>(i)));
    w.kv_int("launches", nlaunch[i]);
    w.kv("flops", nflops[i], "%.0f");
    w.kv("bytes", nbytes[i], "%.0f");
    w.kv("wall_ms", nodes[i].wall_seconds * 1e3, "%.3f");
    w.end_object();
    w.end_object();
  }

  // --- memory counter tracks ----------------------------------------------
  write_memory_counter_events(w, tracer);

  // --- per-stream busy-fraction counter tracks ----------------------------
  write_utilization_counter_events(w, tracer);

  w.end_array();
  w.end_object();
  std::fprintf(f, "\n");
  std::fclose(f);
}

std::vector<ChromeEvent> read_chrome_trace(const std::string& path) {
  const json::Value doc = json::parse_file(path);
  const json::Value* events = doc.find("traceEvents");
  IRRLU_CHECK_MSG(events != nullptr && events->is_array(),
                  "trace: " << path << " has no traceEvents array");
  std::vector<ChromeEvent> out;
  out.reserve(events->items.size());
  for (const json::Value& e : events->items) {
    IRRLU_CHECK_MSG(e.is_object(), "trace: traceEvents entry is not object");
    ChromeEvent ev;
    ev.name = e.string_or("name", "");
    ev.ph = e.string_or("ph", "");
    ev.cat = e.string_or("cat", "");
    ev.ts = e.number_or("ts", 0);
    ev.dur = e.number_or("dur", 0);
    ev.pid = static_cast<int>(e.number_or("pid", 0));
    ev.tid = static_cast<int>(e.number_or("tid", 0));
    if (const json::Value* args = e.find("args")) {
      ev.arg_scope = args->string_or("scope", "");
      ev.arg_bytes = args->number_or("bytes", 0);
    }
    out.push_back(std::move(ev));
  }
  return out;
}

}  // namespace irrlu::trace
