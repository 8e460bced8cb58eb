#include "trace/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "gpusim/device_model.hpp"
#include "trace/analysis.hpp"
#include "trace/memory.hpp"
#include "trace/trace.hpp"

namespace irrlu::trace {

namespace {

void accumulate(Agg& a, const LaunchRecord& r) {
  ++a.launches;
  a.blocks += r.blocks;
  a.flops += r.flops;
  a.bytes += r.bytes;
  a.sim_seconds += r.sim_end - r.sim_start;
  a.excl_seconds += r.excl_seconds;
  a.wall_seconds += r.wall_seconds;
}

}  // namespace

std::map<std::pair<int, int>, Agg> aggregate(const Tracer& tracer) {
  std::map<std::pair<int, int>, Agg> out;
  for (const LaunchRecord& r : tracer.launches())
    accumulate(out[{r.scope, r.name_id}], r);
  return out;
}

std::map<std::string, Agg> aggregate_by_kernel(const Tracer& tracer) {
  std::map<std::string, Agg> out;
  for (const LaunchRecord& r : tracer.launches())
    accumulate(out[tracer.kernel_name(r.name_id)], r);
  return out;
}

double excl_seconds_in_scope(const Tracer& tracer, const std::string& label) {
  // Scope ids whose own label matches; a launch counts if any ancestor
  // matches.
  const auto& nodes = tracer.scopes();
  std::vector<char> matches(nodes.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    matches[i] = nodes[i].label == label;
  double total = 0;
  for (const LaunchRecord& r : tracer.launches())
    for (int s = r.scope; s >= 0;
         s = nodes[static_cast<std::size_t>(s)].parent)
      if (matches[static_cast<std::size_t>(s)]) {
        total += r.excl_seconds;
        break;
      }
  return total;
}

void print_report(std::ostream& out, const Tracer& tracer,
                  const gpusim::DeviceModel& model) {
  const double peak_flops = static_cast<double>(model.num_sms) *
                            model.peak_flops_per_sm *
                            model.compute_efficiency;
  const double peak_bw = model.mem_bandwidth;

  TextTable table({"scope", "kernel", "launches", "blocks", "sim ms",
                   "GF/s", "%peak", "GB/s", "%bw"});
  const auto agg = aggregate(tracer);
  for (const auto& [key, a] : agg) {
    const double t = a.sim_seconds;
    const double gfs = t > 0 ? a.flops / t / 1e9 : 0;
    const double gbs = t > 0 ? a.bytes / t / 1e9 : 0;
    table.add_row(tracer.scope_path(key.first), tracer.kernel_name(key.second),
                  a.launches, a.blocks, TextTable::fmt(t * 1e3, 3),
                  TextTable::fmt(gfs, 1),
                  TextTable::fmt(gfs * 1e9 / peak_flops * 100, 1),
                  TextTable::fmt(gbs, 1),
                  TextTable::fmt(gbs * 1e9 / peak_bw * 100, 1));
  }
  table.print(out);
  if (tracer.dropped_launches() > 0)
    out << "(" << tracer.dropped_launches()
        << " launches dropped at the trace cap)\n";
  // Named counters (factor.*, pool.*, memory.*) — the same object the
  // summary JSON's "counters" carries.
  if (!tracer.counters().empty()) {
    out << "\ncounters:\n";
    char buf[64];
    for (const auto& [name, value] : tracer.counters()) {
      std::snprintf(buf, sizeof buf, "%.12g", value);
      out << "  " << name << " = " << buf << "\n";
    }
  }
  if (!tracer.mem_events().empty() || !tracer.mem_tags().empty())
    print_memory_report(out, tracer);
  if (analysis_enabled_from_env() && !tracer.launches().empty())
    print_analysis_report(out, analyze_trace(tracer, model));
  if (!tracer.histograms().empty()) print_histogram_report(out, tracer);
}

void write_summary_json(const std::string& path, const Tracer& tracer,
                        const gpusim::DeviceModel& model) {
  FILE* f = std::fopen(path.c_str(), "w");
  IRRLU_CHECK_MSG(f != nullptr, "trace: cannot open " << path);
  const double peak_flops = static_cast<double>(model.num_sms) *
                            model.peak_flops_per_sm *
                            model.compute_efficiency;

  json::Writer w(f);
  w.begin_object();
  w.kv("schema", "irrlu-trace-summary-v3");
  w.kv("device", model.name);
  w.kv("peak_gflops", peak_flops / 1e9, "%.3f");
  w.kv("peak_gbs", model.mem_bandwidth / 1e9, "%.3f");
  w.kv_int("dropped_launches", tracer.dropped_launches());
  if (!tracer.counters().empty()) {
    w.key("counters");
    w.begin_object(/*compact=*/true);
    for (const auto& [name, value] : tracer.counters())
      w.kv(name.c_str(), value, "%.12g");
    w.end_object();
  }
  if (!tracer.mem_events().empty() || !tracer.mem_tags().empty()) {
    w.key("memory");
    write_memory_json(w, tracer);
  }
  if (analysis_enabled_from_env() && !tracer.launches().empty()) {
    w.key("analysis");
    write_analysis_json(w, analyze_trace(tracer, model));
  }
  if (!tracer.histograms().empty()) {
    w.key("histograms");
    write_histograms_json(w, tracer);
  }
  w.key("rows");
  w.begin_array();
  for (const auto& [key, a] : aggregate(tracer)) {
    const double t = a.sim_seconds;
    w.begin_object(/*compact=*/true);
    w.kv("scope", tracer.scope_path(key.first));
    w.kv("kernel", tracer.kernel_name(key.second));
    w.kv_int("launches", a.launches);
    w.kv_int("blocks", a.blocks);
    w.kv("flops", a.flops, "%.0f");
    w.kv("bytes", a.bytes, "%.0f");
    w.kv("sim_seconds", a.sim_seconds, "%.12e");
    w.kv("excl_seconds", a.excl_seconds, "%.12e");
    w.kv("wall_seconds", a.wall_seconds, "%.6e");
    w.kv("gflops", t > 0 ? a.flops / t / 1e9 : 0.0, "%.3f");
    w.kv("gbs", t > 0 ? a.bytes / t / 1e9 : 0.0, "%.3f");
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::fprintf(f, "\n");
  std::fclose(f);
}

std::vector<SummaryRow> read_summary_json(const std::string& path) {
  const json::Value doc = json::parse_file(path);
  const std::string schema = doc.string_or("schema", "");
  // v2 added the optional "memory" object, v3 the optional "analysis"
  // and "histograms" objects; the row layout is unchanged throughout, so
  // the reader accepts all three versions.
  IRRLU_CHECK_MSG(schema == "irrlu-trace-summary-v3" ||
                      schema == "irrlu-trace-summary-v2" ||
                      schema == "irrlu-trace-summary-v1",
                  "trace: " << path << " is not an irrlu-trace-summary-v1/v2/v3");
  const json::Value* rows = doc.find("rows");
  IRRLU_CHECK_MSG(rows != nullptr && rows->is_array(),
                  "trace: " << path << " has no rows array");
  std::vector<SummaryRow> out;
  out.reserve(rows->items.size());
  for (const json::Value& r : rows->items) {
    SummaryRow row;
    row.scope = r.string_or("scope", "");
    row.kernel = r.string_or("kernel", "");
    row.launches = static_cast<long>(r.number_or("launches", 0));
    row.blocks = static_cast<long>(r.number_or("blocks", 0));
    row.flops = r.number_or("flops", 0);
    row.bytes = r.number_or("bytes", 0);
    row.sim_seconds = r.number_or("sim_seconds", 0);
    row.excl_seconds = r.number_or("excl_seconds", 0);
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace irrlu::trace
