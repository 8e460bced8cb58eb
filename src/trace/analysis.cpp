#include "trace/analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <ostream>
#include <string_view>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "gpusim/device_model.hpp"
#include "trace/trace.hpp"

namespace irrlu::trace {

const char* to_string(BindKind k) {
  switch (k) {
    case BindKind::kStart: return "start";
    case BindKind::kDispatch: return "dispatch";
    case BindKind::kStream: return "stream";
    case BindKind::kSync: return "sync";
    case BindKind::kOccupancy: return "occupancy";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Record-stream merge: every Tracer record kind carries a global sequence
// number; the replay consumes them in that order.

enum class RecKind { kLaunch, kSync, kMem };

struct RecRef {
  long seq;
  RecKind kind;
  std::size_t index;
};

std::vector<RecRef> merged_records(const Tracer& t) {
  std::vector<RecRef> recs;
  recs.reserve(t.launches().size() + t.syncs().size() +
               t.mem_events().size());
  for (std::size_t i = 0; i < t.launches().size(); ++i)
    recs.push_back({t.launches()[i].seq, RecKind::kLaunch, i});
  for (std::size_t i = 0; i < t.syncs().size(); ++i)
    recs.push_back({t.syncs()[i].seq, RecKind::kSync, i});
  for (std::size_t i = 0; i < t.mem_events().size(); ++i)
    recs.push_back({t.mem_events()[i].seq, RecKind::kMem, i});
  std::sort(recs.begin(), recs.end(),
            [](const RecRef& a, const RecRef& b) { return a.seq < b.seq; });
  return recs;
}

// ---------------------------------------------------------------------------
// Baseline replay: rebuilds the Device's timelines from the records and
// captures, per launch, its binding constraint and both dependency-chain
// predecessors. The replay must reproduce every recorded time bitwise
// (the arithmetic is the same sequence of operations Device performed);
// any mismatch means the record stream is not the whole story.

struct LaunchMeta {
  double base_earliest = 0;  ///< max(dispatch_done + latency, stream cursor)
  double extra = 0;          ///< sim_start - base_earliest (occupancy delay)
  double cursor_before = 0;  ///< stream constraint value at launch
  double dispatch_done = 0;
  BindKind via = BindKind::kStart;  ///< what bound the start
  int spred = -1;                   ///< launch that set the stream cursor
  int hpred = -1;                   ///< previous host-chain launch
  double hanchor = 0;  ///< time hpred's influence entered the host line
  BindKind hvia = BindKind::kStart;  ///< kDispatch (launch) / kSync (join)
};

struct Baseline {
  bool ok = false;
  std::string caveat;
  std::vector<LaunchMeta> meta;  ///< aligned with Tracer::launches()
};

Baseline run_baseline(const Tracer& t, const gpusim::DeviceModel& m) {
  Baseline b;
  if (t.dropped_launches() > 0) {
    b.caveat = "trace capped: " + std::to_string(t.dropped_launches()) +
               " launches dropped, the dependency DAG is incomplete";
    return b;
  }
  if (t.dropped_mem_events() > 0) {
    b.caveat = "trace capped: " + std::to_string(t.dropped_mem_events()) +
               " allocation events dropped, host time cannot be replayed";
    return b;
  }
  b.meta.resize(t.launches().size());

  double host = 0;
  std::vector<double> cursor;
  std::vector<int> setter;
  const auto ensure = [&](int s) {
    if (static_cast<int>(cursor.size()) <= s) {
      cursor.resize(static_cast<std::size_t>(s) + 1, 0.0);
      setter.resize(static_cast<std::size_t>(s) + 1, -1);
    }
  };
  struct HostSetter {
    int launch = -1;
    double anchor = 0;
    BindKind via = BindKind::kStart;
  } hs;

  for (const RecRef& rr : merged_records(t)) {
    switch (rr.kind) {
      case RecKind::kMem: {
        const MemEventRecord& r = t.mem_events()[rr.index];
        if (r.is_free) break;  // frees cost no simulated host time
        host += m.alloc_overhead;
        if (host != r.sim_time) {
          b.caveat = "allocation record does not replay (timeline reset "
                     "mid-trace, or work predates the tracer)";
          return b;
        }
        break;
      }
      case RecKind::kSync: {
        const SyncRecord& r = t.syncs()[rr.index];
        if (host != r.host_begin) {
          b.caveat = "synchronization record does not replay";
          return b;
        }
        double joined = 0;
        int jsetter = -1;
        if (r.stream >= 0) {
          ensure(r.stream);
          joined = cursor[static_cast<std::size_t>(r.stream)];
          jsetter = setter[static_cast<std::size_t>(r.stream)];
        } else {
          for (std::size_t s = 0; s < cursor.size(); ++s)
            if (cursor[s] > joined) {
              joined = cursor[s];
              jsetter = setter[s];
            }
        }
        if (joined > host && jsetter >= 0)
          hs = {jsetter, joined, BindKind::kSync};
        host = std::max(host, joined) + m.stream_sync_overhead;
        if (host != r.host_end) {
          b.caveat = "synchronization record does not replay";
          return b;
        }
        break;
      }
      case RecKind::kLaunch: {
        const LaunchRecord& r = t.launches()[rr.index];
        ensure(r.stream);
        const auto s = static_cast<std::size_t>(r.stream);
        if (host != r.host_issue) {
          b.caveat = "launch record does not replay (timeline reset "
                     "mid-trace, or work predates the tracer)";
          return b;
        }
        const double dd = host + m.host_dispatch_overhead;
        host = dd;
        const double c_disp = dd + m.device_launch_latency;
        const double c_stream = cursor[s];
        LaunchMeta& mt = b.meta[rr.index];
        mt.dispatch_done = dd;
        mt.cursor_before = c_stream;
        mt.hpred = hs.launch;
        mt.hanchor = hs.anchor;
        mt.hvia = hs.via;
        mt.spred = setter[s];
        if (c_stream >= c_disp)
          mt.via = mt.spred < 0 ? BindKind::kStart : BindKind::kStream;
        else
          mt.via = BindKind::kDispatch;
        mt.base_earliest = std::max(c_disp, c_stream);
        mt.extra = r.sim_start - mt.base_earliest;
        if (mt.extra < 0) {
          b.caveat = "launch starts before its replayed constraints";
          return b;
        }
        cursor[s] = r.sim_end;
        setter[s] = static_cast<int>(rr.index);
        hs = {static_cast<int>(rr.index), dd, BindKind::kDispatch};
        break;
      }
    }
  }
  b.ok = true;
  return b;
}

// ---------------------------------------------------------------------------
// Scaled replay: same walk forward, but launch durations are multiplied
// by scale[i] and every derived time is recomputed. The one exception is
// exact reuse: a launch at scale 1 whose replayed earliest-start equals
// its baseline earliest-start takes its recorded times verbatim — by
// induction an all-ones replay reproduces the measured timeline
// bit-identically (the what-if(k=1) no-op guarantee). Occupancy delays
// are carried as the measured per-launch constants (`extra`): scaling a
// kernel class does not re-derive the SM slot schedule.

double run_scaled(const Tracer& t, const gpusim::DeviceModel& m,
                  const Baseline& b, const std::vector<double>& scale) {
  double host = 0;
  std::vector<double> cursor;
  const auto ensure = [&](int s) {
    if (static_cast<int>(cursor.size()) <= s)
      cursor.resize(static_cast<std::size_t>(s) + 1, 0.0);
  };
  double makespan = 0;

  for (const RecRef& rr : merged_records(t)) {
    switch (rr.kind) {
      case RecKind::kMem:
        if (!t.mem_events()[rr.index].is_free) host += m.alloc_overhead;
        break;
      case RecKind::kSync: {
        const SyncRecord& r = t.syncs()[rr.index];
        double joined = 0;
        if (r.stream >= 0) {
          ensure(r.stream);
          joined = cursor[static_cast<std::size_t>(r.stream)];
        } else {
          for (const double c : cursor) joined = std::max(joined, c);
        }
        host = std::max(host, joined) + m.stream_sync_overhead;
        break;
      }
      case RecKind::kLaunch: {
        const LaunchRecord& r = t.launches()[rr.index];
        ensure(r.stream);
        const auto s = static_cast<std::size_t>(r.stream);
        const LaunchMeta& mt = b.meta[rr.index];
        const double dd = host + m.host_dispatch_overhead;
        host = dd;
        const double earliest =
            std::max(dd + m.device_launch_latency, cursor[s]);
        const double k = scale.empty() ? 1.0 : scale[rr.index];
        double end;
        if (k == 1.0 && earliest == mt.base_earliest) {
          end = r.sim_end;  // exact reuse: inputs unchanged, output verbatim
        } else {
          const double start = earliest + mt.extra;
          end = start + (r.sim_end - r.sim_start) * k;
        }
        cursor[s] = end;
        makespan = std::max(makespan, end);
        break;
      }
    }
  }
  return makespan;
}

// ---------------------------------------------------------------------------
// Critical path: backward walk from the launch with the latest end,
// alternating between two modes. In "end mode" the node's kernel
// execution is on the path and its segment runs up to its sim_end; a
// node reached through the host dispatch chain is in "dispatch mode" —
// only its host dispatch segment is on the path (the kernel itself ran
// off-path), ending at its dispatch_done. Contributions telescope: each
// node contributes its exit time minus its predecessor's anchor time,
// so the sum over the path is exactly the makespan.

std::vector<CritNode> walk_path(const Tracer& t, const Baseline& b) {
  const auto& L = t.launches();
  if (L.empty()) return {};
  std::size_t tip = 0;
  for (std::size_t i = 1; i < L.size(); ++i)
    if (L[i].sim_end > L[tip].sim_end) tip = i;

  std::vector<CritNode> path;
  long node = static_cast<long>(tip);
  bool dmode = false;
  double T = L[tip].sim_end;
  while (node >= 0) {
    const auto ni = static_cast<std::size_t>(node);
    const LaunchRecord& r = L[ni];
    const LaunchMeta& mt = b.meta[ni];
    CritNode cn;
    cn.launch = ni;
    cn.kernel = t.kernel_name(r.name_id);
    cn.scope = t.scope_path(r.scope);

    long pred;
    double anchor;
    bool pred_dmode = false;
    if (dmode) {
      cn.via = BindKind::kDispatch;
      pred = mt.hpred;
      anchor = mt.hanchor;
      pred_dmode = mt.hvia == BindKind::kDispatch;
      cn.run_seconds = 0;
    } else {
      cn.via = mt.via;
      cn.run_seconds = r.sim_end - r.sim_start;
      cn.occupancy_seconds = mt.extra;
      switch (mt.via) {
        case BindKind::kStream:
          pred = mt.spred;
          anchor = mt.cursor_before;
          break;
        case BindKind::kDispatch:
          pred = mt.hpred;
          anchor = mt.hanchor;
          pred_dmode = mt.hvia == BindKind::kDispatch;
          break;
        default:
          pred = -1;
          anchor = 0;
          break;
      }
    }
    if (pred < 0) anchor = 0;  // chain bottoms out at the timeline start
    cn.start = anchor;
    cn.end = T;
    cn.contribution = T - anchor;
    cn.stall_seconds = cn.contribution - cn.run_seconds;
    path.push_back(std::move(cn));
    node = pred;
    dmode = pred_dmode;
    T = anchor;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void add_contribution(std::map<std::string, PathContribution>& rows,
                      const std::string& name, const CritNode& cn) {
  PathContribution& c = rows[name];
  c.name = name;
  ++c.launches;
  c.seconds += cn.contribution;
  c.run_seconds += cn.run_seconds;
  c.stall_seconds += cn.stall_seconds;
}

std::vector<PathContribution> sorted_rows(
    std::map<std::string, PathContribution>&& rows) {
  std::vector<PathContribution> out;
  out.reserve(rows.size());
  for (auto& [name, c] : rows) out.push_back(std::move(c));
  std::sort(out.begin(), out.end(),
            [](const PathContribution& a, const PathContribution& b) {
              if (a.seconds != b.seconds) return a.seconds > b.seconds;
              return a.name < b.name;
            });
  return out;
}

std::string scope_or_none(const std::string& path) {
  return path.empty() ? std::string("(none)") : path;
}

// Per-stream busy/idle over [0, makespan]. idle is computed as
// span - busy, so busy + idle equals the span exactly by construction;
// launches on one stream never overlap (the cursor is monotone), so
// busy <= span always holds.
void fill_streams(Analysis& a, const Tracer& t, const Baseline& b) {
  const auto& L = t.launches();
  if (L.empty()) return;
  const double span = a.makespan;
  const int nstreams = t.max_stream_seen() + 1;
  a.streams.assign(static_cast<std::size_t>(nstreams), {});
  std::vector<double> prev_end(static_cast<std::size_t>(nstreams), 0.0);
  std::vector<std::map<std::string, double>> waits(
      static_cast<std::size_t>(nstreams));
  std::vector<std::vector<StreamGap>> gaps(
      static_cast<std::size_t>(nstreams));

  const auto note_gap = [&](int stream, StreamGap g) {
    auto& u = a.streams[static_cast<std::size_t>(stream)];
    ++u.gaps;
    const double len = g.end - g.begin;
    u.largest_gap_seconds = std::max(u.largest_gap_seconds, len);
    u.gap_hist.observe(len);
    waits[static_cast<std::size_t>(stream)][g.scope] += len;
    gaps[static_cast<std::size_t>(stream)].push_back(std::move(g));
  };

  for (std::size_t i = 0; i < L.size(); ++i) {
    const LaunchRecord& r = L[i];
    const auto s = static_cast<std::size_t>(r.stream);
    StreamUtilization& u = a.streams[s];
    u.stream = r.stream;
    ++u.launches;
    u.busy_seconds += r.sim_end - r.sim_start;
    if (r.sim_start > prev_end[s]) {
      StreamGap g;
      g.begin = prev_end[s];
      g.end = r.sim_start;
      if (b.ok) {
        const LaunchMeta& mt = b.meta[i];
        // The tail [earliest, start) of a gap is occupancy; when the
        // explicit constraints were already met at the gap's start, the
        // whole gap is slot contention.
        g.via = mt.base_earliest <= g.begin ? BindKind::kOccupancy : mt.via;
        long blocker = static_cast<long>(i);
        if (mt.via == BindKind::kDispatch && mt.hpred >= 0)
          blocker = mt.hpred;
        g.scope = scope_or_none(
            t.scope_path(L[static_cast<std::size_t>(blocker)].scope));
      } else {
        g.via = BindKind::kStart;
        g.scope = scope_or_none(t.scope_path(r.scope));
      }
      note_gap(r.stream, std::move(g));
    }
    prev_end[s] = std::max(prev_end[s], r.sim_end);
  }

  for (int s = 0; s < nstreams; ++s) {
    StreamUtilization& u = a.streams[static_cast<std::size_t>(s)];
    u.stream = s;
    if (span > prev_end[static_cast<std::size_t>(s)]) {
      // Trailing idle: the stream drained before the device finished.
      StreamGap g;
      g.begin = prev_end[static_cast<std::size_t>(s)];
      g.end = span;
      g.via = BindKind::kStart;
      g.scope = "(drain)";
      note_gap(s, std::move(g));
    }
    u.idle_seconds = span - u.busy_seconds;
    u.busy_fraction = span > 0 ? u.busy_seconds / span : 0.0;
    auto& gs = gaps[static_cast<std::size_t>(s)];
    std::sort(gs.begin(), gs.end(), [](const StreamGap& x, const StreamGap& y) {
      return x.end - x.begin > y.end - y.begin;
    });
    if (gs.size() > 5) gs.resize(5);
    u.top_gaps = std::move(gs);
    u.waits_on.assign(waits[static_cast<std::size_t>(s)].begin(),
                      waits[static_cast<std::size_t>(s)].end());
    std::sort(u.waits_on.begin(), u.waits_on.end(),
              [](const auto& x, const auto& y) {
                if (x.second != y.second) return x.second > y.second;
                return x.first < y.first;
              });
  }
}

}  // namespace

AnalysisOptions analysis_options_from_env() {
  AnalysisOptions opts;
  if (const char* v = std::getenv("IRRLU_TRACE_ANALYSIS"))
    opts.enabled = std::string_view(v) != "0";
  if (const char* v = std::getenv("IRRLU_TRACE_WHATIF")) {
    opts.whatif_speedup = std::atof(v);
    if (opts.whatif_speedup <= 1.0) opts.what_ifs = false;
  }
  if (const char* v = std::getenv("IRRLU_TRACE_TOPK"))
    opts.top_k = std::max(1, std::atoi(v));
  return opts;
}

ReplayResult replay_scaled(const Tracer& tracer,
                           const gpusim::DeviceModel& model,
                           const std::vector<double>& scale) {
  ReplayResult out;
  IRRLU_CHECK_MSG(scale.empty() || scale.size() == tracer.launches().size(),
                  "replay_scaled: scale size " << scale.size() << " != "
                                               << tracer.launches().size()
                                               << " launches");
  const Baseline b = run_baseline(tracer, model);
  if (!b.ok) {
    out.caveat = b.caveat;
    return out;
  }
  out.ok = true;
  out.makespan = run_scaled(tracer, model, b, scale);
  return out;
}

Analysis analyze_trace(const Tracer& tracer, const gpusim::DeviceModel& model,
                       const AnalysisOptions& opts) {
  Analysis a;
  const auto& L = tracer.launches();
  for (const LaunchRecord& r : L) a.makespan = std::max(a.makespan, r.sim_end);

  const Baseline b = run_baseline(tracer, model);
  a.valid = b.ok && !L.empty();
  a.caveat = b.caveat;
  if (b.ok && L.empty()) a.caveat = "no launches recorded";
  fill_streams(a, tracer, b);
  if (!a.valid) return a;

  a.path = walk_path(tracer, b);
  std::map<std::string, PathContribution> kern, scop;
  std::vector<char> on_path(L.size(), 0);
  for (const CritNode& cn : a.path) {
    a.critical_path_seconds += cn.contribution;
    on_path[cn.launch] = 1;
    add_contribution(kern, cn.kernel, cn);
    add_contribution(scop, scope_or_none(cn.scope), cn);
  }
  // Slack: execution of a class that the path fully overlaps — how much
  // that class could slip without (to first order) moving the makespan.
  for (std::size_t i = 0; i < L.size(); ++i) {
    if (on_path[i]) continue;
    const double dur = L[i].sim_end - L[i].sim_start;
    auto& kc = kern[tracer.kernel_name(L[i].name_id)];
    if (kc.name.empty()) kc.name = tracer.kernel_name(L[i].name_id);
    kc.slack_seconds += dur;
    const std::string sp = scope_or_none(tracer.scope_path(L[i].scope));
    auto& sc = scop[sp];
    if (sc.name.empty()) sc.name = sp;
    sc.slack_seconds += dur;
  }
  a.kernels = sorted_rows(std::move(kern));
  a.scopes = sorted_rows(std::move(scop));

  if (!opts.what_ifs || opts.whatif_speedup <= 1.0) return a;
  std::vector<std::string> scope_paths;  // per scope id, cached
  scope_paths.reserve(tracer.scopes().size());
  for (std::size_t s = 0; s < tracer.scopes().size(); ++s)
    scope_paths.push_back(tracer.scope_path(static_cast<int>(s)));
  const auto project = [&](WhatIf::Kind kind, const std::string& target) {
    std::vector<double> scale(L.size(), 1.0);
    std::vector<double> zero(L.size(), 1.0);
    bool any = false;
    for (std::size_t i = 0; i < L.size(); ++i) {
      bool hit;
      if (kind == WhatIf::Kind::kKernel) {
        hit = tracer.kernel_name(L[i].name_id) == target;
      } else {
        static const std::string kNoScope;
        const std::string& sp =
            L[i].scope >= 0 ? scope_paths[static_cast<std::size_t>(L[i].scope)]
                            : kNoScope;
        hit = sp == target || (sp.size() > target.size() &&
                               sp.compare(0, target.size(), target) == 0 &&
                               sp[target.size()] == '/');
      }
      if (hit) {
        scale[i] = 1.0 / opts.whatif_speedup;
        zero[i] = 0.0;
        any = true;
      }
    }
    if (!any) return;
    WhatIf wi;
    wi.kind = kind;
    wi.target = target;
    wi.speedup_k = opts.whatif_speedup;
    wi.projected_seconds = run_scaled(tracer, model, b, scale);
    wi.speedup =
        wi.projected_seconds > 0 ? a.makespan / wi.projected_seconds : 0.0;
    const double inf = run_scaled(tracer, model, b, zero);
    wi.bound = inf > 0 ? a.makespan / inf : 0.0;
    a.what_ifs.push_back(std::move(wi));
  };
  int n = 0;
  for (const PathContribution& c : a.kernels) {
    if (n >= opts.top_k || c.seconds <= 0) break;
    project(WhatIf::Kind::kKernel, c.name);
    ++n;
  }
  n = 0;
  for (const PathContribution& c : a.scopes) {
    if (n >= opts.top_k || c.seconds <= 0) break;
    if (c.name == "(none)") continue;
    project(WhatIf::Kind::kScope, c.name);
    ++n;
  }
  return a;
}

// ---------------------------------------------------------------------------
// Exporters.

void print_analysis_report(std::ostream& out, const Analysis& a, int top_k) {
  out << "\ncritical path: "
      << TextTable::fmt(a.critical_path_seconds * 1e3, 3) << " ms over "
      << a.path.size() << " nodes (makespan "
      << TextTable::fmt(a.makespan * 1e3, 3) << " ms)\n";
  if (!a.valid) {
    out << "  (analysis degraded: " << a.caveat << ")\n";
  } else {
    const auto rows = [&](const char* what,
                          const std::vector<PathContribution>& cs) {
      TextTable table({what, "on-path ms", "run ms", "stall ms", "slack ms",
                       "launches"});
      int n = 0;
      for (const PathContribution& c : cs) {
        if (n++ >= top_k) break;
        table.add_row(c.name, TextTable::fmt(c.seconds * 1e3, 3),
                      TextTable::fmt(c.run_seconds * 1e3, 3),
                      TextTable::fmt(c.stall_seconds * 1e3, 3),
                      TextTable::fmt(c.slack_seconds * 1e3, 3), c.launches);
      }
      table.print(out);
    };
    rows("kernel", a.kernels);
    rows("scope", a.scopes);
  }
  if (!a.streams.empty()) {
    out << "stream utilization:\n";
    TextTable table({"stream", "busy ms", "idle ms", "busy %", "gaps",
                     "largest gap ms", "longest wait on"});
    for (const StreamUtilization& u : a.streams)
      table.add_row(u.stream, TextTable::fmt(u.busy_seconds * 1e3, 3),
                    TextTable::fmt(u.idle_seconds * 1e3, 3),
                    TextTable::fmt(u.busy_fraction * 100, 1), u.gaps,
                    TextTable::fmt(u.largest_gap_seconds * 1e3, 3),
                    u.waits_on.empty() ? std::string("-")
                                       : u.waits_on.front().first);
    table.print(out);
  }
  if (!a.what_ifs.empty()) {
    out << "what-if projections (DAG replay with scaled durations):\n";
    TextTable table(
        {"target", "kind", "k", "projected ms", "speedup", "bound"});
    for (const WhatIf& wi : a.what_ifs)
      table.add_row(wi.target,
                    wi.kind == WhatIf::Kind::kKernel ? "kernel" : "scope",
                    TextTable::fmt(wi.speedup_k, 1),
                    TextTable::fmt(wi.projected_seconds * 1e3, 3),
                    TextTable::fmt(wi.speedup, 3), TextTable::fmt(wi.bound, 3));
    table.print(out);
  }
}

void write_analysis_json(json::Writer& w, const Analysis& a) {
  w.begin_object();
  w.kv_bool("valid", a.valid);
  if (!a.caveat.empty()) w.kv("caveat", a.caveat);
  w.kv("makespan_s", a.makespan, "%.12e");
  w.kv("critical_path_s", a.critical_path_seconds, "%.12e");
  w.kv_int("path_nodes", static_cast<long long>(a.path.size()));
  const auto rows = [&](const char* key,
                        const std::vector<PathContribution>& cs) {
    w.key(key);
    w.begin_array();
    int n = 0;
    for (const PathContribution& c : cs) {
      if (n++ >= 10) break;
      w.begin_object(/*compact=*/true);
      w.kv("name", c.name);
      w.kv_int("launches", c.launches);
      w.kv("seconds", c.seconds, "%.12e");
      w.kv("run_s", c.run_seconds, "%.12e");
      w.kv("stall_s", c.stall_seconds, "%.12e");
      w.kv("slack_s", c.slack_seconds, "%.12e");
      w.end_object();
    }
    w.end_array();
  };
  rows("kernels", a.kernels);
  rows("scopes", a.scopes);
  w.key("streams");
  w.begin_array();
  for (const StreamUtilization& u : a.streams) {
    w.begin_object(/*compact=*/true);
    w.kv_int("stream", u.stream);
    w.kv_int("launches", u.launches);
    w.kv("busy_s", u.busy_seconds, "%.12e");
    w.kv("idle_s", u.idle_seconds, "%.12e");
    w.kv("busy_fraction", u.busy_fraction, "%.6f");
    w.kv_int("gaps", u.gaps);
    w.kv("largest_gap_s", u.largest_gap_seconds, "%.12e");
    w.key("waits_on");
    w.begin_array(/*compact=*/true);
    int n = 0;
    for (const auto& [scope, seconds] : u.waits_on) {
      if (n++ >= 3) break;
      w.begin_object(true);
      w.kv("scope", scope);
      w.kv("seconds", seconds, "%.6e");
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("what_if");
  w.begin_array();
  for (const WhatIf& wi : a.what_ifs) {
    w.begin_object(/*compact=*/true);
    w.kv("kind", wi.kind == WhatIf::Kind::kKernel ? "kernel" : "scope");
    w.kv("target", wi.target);
    w.kv("k", wi.speedup_k, "%.3f");
    w.kv("projected_s", wi.projected_seconds, "%.12e");
    w.kv("speedup", wi.speedup, "%.6f");
    w.kv("bound", wi.bound, "%.6f");
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

AnalysisSummary read_analysis_summary(const std::string& summary_path) {
  const json::Value doc = json::parse_file(summary_path);
  AnalysisSummary out;
  const json::Value* an = doc.find("analysis");
  if (an == nullptr) return out;  // v1/v2: absent
  IRRLU_CHECK_MSG(an->is_object(), "trace: " << summary_path
                                             << " \"analysis\" not an object");
  out.present = true;
  if (const json::Value* v = an->find("valid")) out.valid = v->as_bool();
  out.caveat = an->string_or("caveat", "");
  out.makespan = an->number_or("makespan_s", 0);
  out.critical_path_seconds = an->number_or("critical_path_s", 0);
  const auto contributors = [&](const char* key,
                                std::vector<AnalysisSummary::Contributor>& cs) {
    const json::Value* arr = an->find(key);
    if (arr == nullptr || !arr->is_array()) return;
    for (const json::Value& c : arr->items)
      cs.push_back({c.string_or("name", ""), c.number_or("seconds", 0)});
  };
  contributors("kernels", out.kernels);
  contributors("scopes", out.scopes);
  if (const json::Value* arr = an->find("streams");
      arr != nullptr && arr->is_array()) {
    for (const json::Value& s : arr->items) {
      AnalysisSummary::StreamRow row;
      row.stream = static_cast<int>(s.number_or("stream", 0));
      row.busy_seconds = s.number_or("busy_s", 0);
      row.idle_seconds = s.number_or("idle_s", 0);
      row.busy_fraction = s.number_or("busy_fraction", 0);
      row.gaps = static_cast<long>(s.number_or("gaps", 0));
      out.streams.push_back(row);
    }
  }
  if (const json::Value* arr = an->find("what_if");
      arr != nullptr && arr->is_array()) {
    for (const json::Value& wi : arr->items) {
      AnalysisSummary::WhatIfRow row;
      row.kind = wi.string_or("kind", "");
      row.target = wi.string_or("target", "");
      row.speedup_k = wi.number_or("k", 0);
      row.projected_seconds = wi.number_or("projected_s", 0);
      row.speedup = wi.number_or("speedup", 0);
      row.bound = wi.number_or("bound", 0);
      out.what_ifs.push_back(std::move(row));
    }
  }
  return out;
}

void write_utilization_counter_events(json::Writer& w, const Tracer& tracer) {
  // Cumulative busy fraction per stream, sampled at every launch end —
  // a falling curve on a stream flags growing idle time as the run
  // progresses, right next to the kernel spans that caused it.
  if (tracer.launches().empty()) return;
  std::vector<double> busy(
      static_cast<std::size_t>(tracer.max_stream_seen()) + 1, 0.0);
  for (const LaunchRecord& r : tracer.launches()) {
    const auto s = static_cast<std::size_t>(r.stream);
    busy[s] += r.sim_end - r.sim_start;
    if (r.sim_end <= 0) continue;
    w.begin_object(/*compact=*/true);
    w.kv("name", "busy%:stream " + std::to_string(r.stream));
    w.kv("cat", "utilization");
    w.kv("ph", "C");
    w.kv("ts", r.sim_end * 1e6, "%.6f");
    w.kv_int("pid", 4);
    w.kv_int("tid", 0);
    w.key("args");
    w.begin_object(true);
    w.kv("percent", 100.0 * busy[s] / r.sim_end, "%.3f");
    w.end_object();
    w.end_object();
  }
}

}  // namespace irrlu::trace
