#include "trace/trace.hpp"

#include <algorithm>

namespace irrlu::trace {

Tracer::Tracer(std::size_t reserve_launches, std::size_t max_launches,
               std::size_t max_mem_events)
    : max_launches_(max_launches),
      max_mem_events_(max_mem_events),
      mem_epoch_(std::chrono::steady_clock::now()) {
  launches_.reserve(std::min(reserve_launches, max_launches));
}

int Tracer::intern_kernel(const char* name) {
  const auto [it, inserted] =
      name_ids_.try_emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(it->first);
  return it->second;
}

void Tracer::on_launch(const LaunchRecord& r) {
  max_stream_ = std::max(max_stream_, r.stream);
  if (launches_.size() >= max_launches_) {
    ++dropped_;
    return;
  }
  launches_.push_back(r);
  launches_.back().seq = next_seq_++;
}

void Tracer::on_sync(int stream, double host_begin, double host_end) {
  syncs_.push_back({next_seq_++, stream, host_begin, host_end});
}

int Tracer::push_scope(std::string_view label) {
  const int parent = current_scope_;
  auto key = std::make_pair(parent, std::string(label));
  const auto it = scope_ids_.find(key);
  int id;
  if (it == scope_ids_.end()) {
    id = static_cast<int>(scope_nodes_.size());
    ScopeNode node;
    node.label = key.second;
    node.parent = parent;
    node.depth =
        parent < 0 ? 0
                   : scope_nodes_[static_cast<std::size_t>(parent)].depth + 1;
    scope_nodes_.push_back(std::move(node));
    scope_ids_.emplace(std::move(key), id);
  } else {
    id = it->second;
  }
  ++scope_nodes_[static_cast<std::size_t>(id)].entries;
  scope_stack_.push_back(id);
  current_scope_ = id;
  return id;
}

void Tracer::pop_scope(double wall_seconds) {
  if (scope_stack_.empty()) return;  // tolerate unbalanced pops
  scope_nodes_[static_cast<std::size_t>(scope_stack_.back())].wall_seconds +=
      wall_seconds;
  scope_stack_.pop_back();
  current_scope_ = scope_stack_.empty() ? -1 : scope_stack_.back();
}

void Tracer::add_counter(std::string_view name, double value) {
  counters_[std::string(name)] += value;
}

void Tracer::max_counter(std::string_view name, double value) {
  auto [it, inserted] = counters_.try_emplace(std::string(name), value);
  if (!inserted) it->second = std::max(it->second, value);
}

void Tracer::observe(std::string_view name, double value) {
  histogram(name).observe(value);
}

Histogram& Tracer::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram{}).first->second;
}

int Tracer::intern_mem_tag(std::string_view tag) {
  const auto it = mem_tag_ids_.find(std::string(tag));
  if (it != mem_tag_ids_.end()) return it->second;
  const int id = static_cast<int>(mem_tag_names_.size());
  mem_tag_names_.emplace_back(tag);
  mem_tag_stats_.emplace_back();
  mem_tag_ids_.emplace(mem_tag_names_.back(), id);
  return id;
}

void Tracer::record_mem_event(bool is_free, int tag, std::size_t bytes,
                              double sim_time, std::size_t in_use_after) {
  // Aggregate stats stay exact past the event cap.
  mem_current_bytes_ = in_use_after;
  mem_peak_bytes_ = std::max(mem_peak_bytes_, in_use_after);
  if (tag >= 0) {
    MemTagStats& st = mem_tag_stats_[static_cast<std::size_t>(tag)];
    if (is_free) {
      ++st.frees;
      st.current_bytes -= std::min(st.current_bytes, bytes);
    } else {
      ++st.allocs;
      st.current_bytes += bytes;
      st.lifetime_bytes += bytes;
      st.peak_bytes = std::max(st.peak_bytes, st.current_bytes);
    }
  }
  if (mem_events_.size() >= max_mem_events_) {
    ++dropped_mem_;
    return;
  }
  MemEventRecord r;
  r.seq = next_seq_++;
  r.is_free = is_free;
  r.tag = tag;
  r.bytes = bytes;
  r.in_use_after = in_use_after;
  r.sim_time = sim_time;
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - mem_epoch_)
                       .count();
  mem_events_.push_back(r);
}

void Tracer::on_alloc(int tag, std::size_t bytes, double sim_time,
                      std::size_t in_use_after) {
  record_mem_event(false, tag, bytes, sim_time, in_use_after);
}

void Tracer::on_free(int tag, std::size_t bytes, double sim_time,
                     std::size_t in_use_after) {
  record_mem_event(true, tag, bytes, sim_time, in_use_after);
}

std::string Tracer::scope_path(int id) const {
  if (id < 0) return {};
  std::vector<const std::string*> parts;
  for (int s = id; s >= 0;
       s = scope_nodes_[static_cast<std::size_t>(s)].parent)
    parts.push_back(&scope_nodes_[static_cast<std::size_t>(s)].label);
  std::string path;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!path.empty()) path += '/';
    path += **it;
  }
  return path;
}

}  // namespace irrlu::trace
