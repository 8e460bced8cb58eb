#include "gpusim/device.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>

#include "trace/trace.hpp"

namespace irrlu::gpusim {

Device::Device(DeviceModel model, bool memory_pool)
    : model_(std::move(model)), host_threads_(default_host_threads()) {
  IRRLU_CHECK(model_.num_sms >= 1);
  IRRLU_CHECK(model_.max_blocks_per_sm >= 1);
  slot_free_.assign(
      static_cast<std::size_t>(model_.num_sms) * model_.max_blocks_per_sm,
      0.0);
  streams_.emplace_back(new Stream(0));
  if (memory_pool) pool_ = std::make_unique<MemPool>();
}

Device::~Device() {
  // Cached workspaces are device-owned, not leaks: return them (through
  // raw_free, so the accounting and any attached tracer see the frees)
  // before the leak check below. Pooled free-list blocks are released by
  // the MemPool member's destructor and never count as in-use.
  release_workspaces();
#ifndef NDEBUG
  // Leak report: DeviceBuffers outliving their Device are a
  // destruction-order bug (their release() would touch a dead Device).
  // live_allocs_ carries tags only while a tracer was attached, so the
  // per-entry listing may be a subset of the leaked total.
  if (bytes_in_use_ != 0) {
    std::fprintf(stderr,
                 "irrlu: device destroyed with %zu B still allocated "
                 "(%zu tagged allocation(s) known):\n",
                 bytes_in_use_, live_allocs_.size());
    for (const auto& [p, info] : live_allocs_) {
      const auto& [tag, bytes] = info;
      const std::string name =
          tracer_ != nullptr ? std::string(tracer_->mem_tag_name(tag))
                             : std::string("tag#") + std::to_string(tag);
      std::fprintf(stderr, "irrlu:   %zu B  %s\n", bytes, name.c_str());
    }
  }
#endif
}

Stream& Device::stream(int i) {
  IRRLU_CHECK(i >= 0);
  while (static_cast<int>(streams_.size()) <= i)
    streams_.emplace_back(new Stream(static_cast<int>(streams_.size())));
  return *streams_[static_cast<std::size_t>(i)];
}

void Device::begin_launch([[maybe_unused]] const LaunchConfig& cfg) {
#ifndef NDEBUG
  // Two launch sites sharing one kernel name fold their profile() and
  // trace statistics together — usually a naming bug. Warn once per name.
  const auto site = std::make_pair(std::string(cfg.where.file_name()),
                                   static_cast<unsigned>(cfg.where.line()));
  const auto [it, inserted] = launch_sites_.try_emplace(cfg.name, site);
  if (!inserted && it->second.second != 0 && it->second != site) {
    std::fprintf(stderr,
                 "irrlu: kernel name '%s' launched from %s:%u and %s:%u; "
                 "their stats fold together — give each kernel a unique "
                 "name\n",
                 cfg.name, it->second.first.c_str(), it->second.second,
                 site.first.c_str(), site.second);
    it->second.second = 0;  // already reported
  }
#endif
  launch_flops_ = 0;
  launch_bytes_ = 0;
  launch_wall_seconds_ = 0;
  block_costs_.assign(static_cast<std::size_t>(cfg.blocks), {0.0, 0.0});
}

namespace {

/// Per-thread shared-memory arena: every thread executing blocks owns one,
/// grown to the largest per-block declaration it has served.
char* smem_arena(std::size_t bytes) {
  thread_local std::vector<char> arena(alignof(std::max_align_t));
  if (arena.size() < bytes) arena.resize(bytes);
  return arena.data();
}

using Clock = std::chrono::steady_clock;

}  // namespace

void Device::run_blocks(const LaunchConfig& cfg, bool parallel, BlockFn run) {
  const int n = cfg.blocks;
  // Tasks are the chains of the grid (single blocks when none are given);
  // a task runs its blocks in index order.
  const std::span<const int> chains = cfg.chains;
  const int tasks = chains.empty() ? n : static_cast<int>(chains.size());
  IRRLU_CHECK_MSG(chains.empty() || (chains.front() == 0 &&
                                     std::is_sorted(chains.begin(),
                                                    chains.end()) &&
                                     chains.back() < std::max(n, 1)),
                  "kernel '" << cfg.name << "': chains must ascend from 0 "
                             << "within the grid");
  const auto task_begin = [&](int t) {
    return chains.empty() ? t : chains[static_cast<std::size_t>(t)];
  };
  // Host wall time of the kernel bodies is a trace-only observable; the
  // clock reads are skipped entirely when no tracer is attached.
  const Clock::time_point wall0 =
      tracer_ != nullptr ? Clock::now() : Clock::time_point{};

  // The lowest-indexed throwing block wins. Blocks past a failed one are
  // skipped, as in a serial run; blocks before it still run, so the error
  // rethrown below is the one a serial run raises.
  std::atomic<int> first_failed{n};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto run_task = [&](int t) {
    const int end = t + 1 < tasks ? task_begin(t + 1) : n;
    for (int b = task_begin(t); b < end; ++b) {
      if (b > first_failed.load(std::memory_order_relaxed)) return;
      try {
        run(b, smem_arena(cfg.smem_bytes));
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (b < first_failed.load(std::memory_order_relaxed)) {
          first_failed.store(b, std::memory_order_relaxed);
          error = std::current_exception();
        }
        return;
      }
    }
  };

  if (parallel && host_threads_ > 1 && tasks > 1) {
    ++pooled_launch_count_;
    HostPool::shared().run(tasks, host_threads_ - 1,
                           FunctionRef<void(int)>(run_task));
  } else {
    for (int t = 0; t < tasks && !error; ++t) run_task(t);
  }

  const int folded = first_failed.load();
  for (int i = 0; i < folded; ++i) {
    const auto [flops, bytes] = block_costs_[static_cast<std::size_t>(i)];
    total_flops_ += flops;
    total_bytes_ += bytes;
    launch_flops_ += flops;
    launch_bytes_ += bytes;
  }
  if (error) std::rethrow_exception(error);
  if (tracer_ != nullptr)
    launch_wall_seconds_ =
        std::chrono::duration<double>(Clock::now() - wall0).count();
}

void Device::end_launch(Stream& s, const LaunchConfig& cfg) {
  // Host dispatch is serialized on a single host timeline: each launch call
  // costs host_dispatch_overhead before the host can issue the next one.
  const double host_before = host_time_;
  const double dispatch_done = host_time_ + model_.host_dispatch_overhead;
  host_time_ = dispatch_done;

  // The kernel may not start before the stream's previous work completes
  // nor before the device has received the launch.
  const double earliest =
      std::max(dispatch_done + model_.device_launch_latency, s.cursor_);

  // Occupancy: restrict scheduling to the slots allowed by shared-memory use.
  const int bps = model_.blocks_per_sm(cfg.smem_bytes);
  const std::size_t nslots =
      static_cast<std::size_t>(model_.num_sms) * static_cast<std::size_t>(bps);

  const double stream_prev = s.cursor_;
  double end = earliest;  // empty grids still occupy the launch latency
  double first_start = earliest;  // simulated start of the first block
  if (!block_costs_.empty()) {
    // Bandwidth is shared among the blocks of a wave: as many blocks as
    // the grid provides, up to the occupancy-limited slot count.
    const double bw = model_.bandwidth_share(static_cast<int>(
        std::min(nslots, block_costs_.size())));
    // List-schedule blocks (in issue order) onto the earliest-free slot.
    //
    // The schedule pops the heap once per block, and every re-pushed slot
    // carries a `done` time at least as late as the value it replaced, so
    // with b blocks only the b lexicographically smallest (free, idx)
    // slots can ever surface: at any of the first b pops, at least one of
    // those b is still enqueued and undercuts every other candidate.
    // Seeding the heap with just that subset (one bounded-max-heap pass
    // over the prefix) is therefore schedule-identical to heaping all
    // num_sms * bps slots — which dominated the host cost of every launch
    // with a small grid, exactly the leaf-batch regime the interleaved
    // path cares about.
    using Slot = std::pair<double, std::size_t>;  // (free time, slot index)
    const std::size_t cand = std::min(nslots, slot_free_.size());
    const std::size_t take = std::min(block_costs_.size(), cand);
    std::vector<Slot>& heap = slot_scratch_;
    heap.clear();
    // Prefill with the prefix, then scan the rest through a value-only
    // threshold filter: a block of slots none of which undercuts the
    // current heap maximum cannot contribute, and the filter reduces over
    // plain doubles so it vectorizes. Ties at the threshold fall through
    // to the exact (free, idx) comparison below.
    std::size_t i = 0;
    for (; i < take; ++i) {
      heap.emplace_back(slot_free_[i], i);
      std::push_heap(heap.begin(), heap.end());  // max-heap of the kept
    }
    constexpr std::size_t kChunk = 8;
    for (; take > 0 && i + kChunk <= cand; i += kChunk) {
      const double thr = heap.front().first;
      double mn = slot_free_[i];
      for (std::size_t u = 1; u < kChunk; ++u)
        mn = std::min(mn, slot_free_[i + u]);
      if (mn > thr) continue;
      for (std::size_t u = 0; u < kChunk; ++u) {
        const Slot sl{slot_free_[i + u], i + u};
        if (sl < heap.front()) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = sl;
          std::push_heap(heap.begin(), heap.end());
        }
      }
    }
    for (; i < cand; ++i) {
      const Slot sl{slot_free_[i], i};
      if (sl < heap.front()) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = sl;
        std::push_heap(heap.begin(), heap.end());
      }
    }
    const auto min_cmp = std::greater<Slot>{};
    std::make_heap(heap.begin(), heap.end(), min_cmp);
    bool first = true;
    for (const auto& [flops, bytes] : block_costs_) {
      std::pop_heap(heap.begin(), heap.end(), min_cmp);
      const auto [free_at, idx] = heap.back();
      heap.pop_back();
      const double start = std::max(free_at, earliest);
      // The heap pops slots in order of free time, so the first block has
      // the globally earliest start of the launch.
      if (first) {
        first_start = start;
        first = false;
      }
      const double done = start + model_.block_start_overhead +
                          model_.block_seconds(flops, bytes, bw);
      slot_free_[idx] = done;
      if (done > end) end = done;
      heap.emplace_back(done, idx);
      std::push_heap(heap.begin(), heap.end(), min_cmp);
    }
  }
  s.cursor_ = end;

  ++launch_count_;
  auto& ks = profile_[cfg.name];
  ++ks.launches;
  ks.blocks += static_cast<long>(block_costs_.size());
  ks.flops += launch_flops_;
  ks.bytes += launch_bytes_;
  // Exclusive attribution: only the interval this launch extends its
  // stream's timeline by (plus its dispatch cost). Summing over kernels of
  // a single-stream schedule reproduces the stream's total busy time.
  const double excl = (end - std::max(stream_prev, dispatch_done)) +
                      model_.host_dispatch_overhead;
  ks.sim_seconds += excl;

  if (tracer_ != nullptr) {
    trace::LaunchRecord r;
    r.name_id = tracer_->intern_kernel(cfg.name);
    r.scope = tracer_->current_scope();
    r.stream = s.id_;
    r.blocks = static_cast<int>(block_costs_.size());
    r.smem_bytes = cfg.smem_bytes;
    r.flops = launch_flops_;
    r.bytes = launch_bytes_;
    r.sim_start = first_start;
    r.sim_end = end;
    r.excl_seconds = excl;
    // The pre-dispatch host time, captured directly: reconstructing it as
    // dispatch_done - overhead is not bitwise faithful in floating point,
    // and the trace analyzer's replay fidelity check compares exactly.
    r.host_issue = host_before;
    r.wall_seconds = launch_wall_seconds_;
    tracer_->on_launch(r);
  }
}

void Device::synchronize(Stream& s) {
  ++sync_count_;
  const double before = host_time_;
  host_time_ = std::max(host_time_, s.cursor_) + model_.stream_sync_overhead;
  sync_wait_seconds_ += host_time_ - before;
  if (tracer_ != nullptr) tracer_->on_sync(s.id_, before, host_time_);
}

double Device::synchronize_all() {
  ++sync_count_;
  const double before = host_time_;
  double t = host_time_;
  for (auto& s : streams_) t = std::max(t, s->cursor_);
  host_time_ = t + model_.stream_sync_overhead;
  sync_wait_seconds_ += host_time_ - before;
  if (tracer_ != nullptr) tracer_->on_sync(-1, before, host_time_);
  return host_time_;
}

void Device::reset_timeline() {
  host_time_ = 0;
  std::fill(slot_free_.begin(), slot_free_.end(), 0.0);
  for (auto& s : streams_) s->cursor_ = 0;
  launch_count_ = 0;
  pooled_launch_count_ = 0;
  sync_count_ = 0;
  sync_wait_seconds_ = 0;
  total_flops_ = 0;
  total_bytes_ = 0;
  profile_.clear();
}

void* Device::raw_alloc(std::size_t bytes, const std::source_location& where) {
  // bytes > 0: alloc() filters empty requests.
  void* p;
  bool pool_hit = false;
  if (pool_ != nullptr) {
    p = pool_->acquire(bytes, &pool_hit);
    if (!pool_hit) ++host_alloc_count_;
  } else {
    p = std::malloc(bytes);
    IRRLU_CHECK_MSG(p != nullptr,
                    "device allocation of " << bytes << " B failed");
    ++host_alloc_count_;
  }
#ifndef NDEBUG
  // Deterministic poison: a kernel reading device memory before writing it
  // would otherwise see zero pages on a fresh mmap but stale data on a
  // pool hit — an on/off byte-identity bug that only reproduces sometimes.
  // Poisoning both paths makes such a read fail loudly in every build.
  std::memset(p, 0xAB, bytes);
#endif
  ++alloc_count_;
  bytes_in_use_ += bytes;  // requested bytes; pool slack is not charged
  peak_bytes_ = std::max(peak_bytes_, bytes_in_use_);
  window_peak_ = std::max(window_peak_, bytes_in_use_);
  // Device allocation is a synchronizing host-side operation (the
  // cudaMalloc cost the paper's workspace discussions revolve around).
  // Pool hits charge it too: the pool is a host-side optimization and
  // must not perturb the simulated timeline (see mem_pool.hpp).
  host_time_ += model_.alloc_overhead;
  if (tracer_ != nullptr) {
    note_alloc(p, bytes, where);
    if (pool_ != nullptr) {
      tracer_->add_counter(pool_hit ? "pool.hits" : "pool.misses", 1.0);
      if (pool_hit)
        tracer_->add_counter("pool.bytes_served",
                             static_cast<double>(bytes));
    }
  }
  return p;
}

void Device::raw_free(void* p, std::size_t bytes) {
  IRRLU_DEBUG_ASSERT(bytes_in_use_ >= bytes);
  bytes_in_use_ -= bytes;
  // Bookkeeping first: a freed pointer value must not be used, not even
  // as a map key.
  if (tracer_ != nullptr) {
    note_free(p, bytes);
  } else if (!live_allocs_.empty()) {
    live_allocs_.erase(p);  // stale entry from a detached tracer
  }
  if (pool_ != nullptr)
    pool_->release(p, bytes);
  else
    std::free(p);
}

void* Device::workspace_bytes(std::string_view key, std::size_t bytes,
                              const std::source_location& where) {
  auto it = workspaces_.find(key);
  if (it == workspaces_.end())
    it = workspaces_.emplace(std::string(key), Workspace{}).first;
  Workspace& w = it->second;
  if (w.bytes < bytes) {
    if (w.p != nullptr) raw_free(w.p, w.bytes);
    // Geometric growth: a size-oscillating call sequence settles after
    // one round instead of reallocating forever.
    const std::size_t grown = std::max(bytes, 2 * w.bytes);
    w.p = raw_alloc(grown, where);
    w.bytes = grown;
  }
  return w.p;
}

void Device::release_workspaces() {
  for (auto& [key, w] : workspaces_)
    if (w.p != nullptr) raw_free(w.p, w.bytes);
  workspaces_.clear();
}

namespace {
/// Fallback allocation tag when no trace scope is open: "file.cpp:123".
std::string site_tag(const std::source_location& where) {
  std::string file = where.file_name();
  const std::size_t slash = file.find_last_of("/\\");
  if (slash != std::string::npos) file.erase(0, slash + 1);
  return file + ':' + std::to_string(where.line());
}
}  // namespace

void Device::note_alloc(void* p, std::size_t bytes,
                        const std::source_location& where) {
  const int scope = tracer_->current_scope();
  const int tag = tracer_->intern_mem_tag(
      scope >= 0 ? tracer_->scope_path(scope) : site_tag(where));
  live_allocs_.emplace(p, std::make_pair(tag, bytes));
  tracer_->on_alloc(tag, bytes, host_time_, bytes_in_use_);
}

void Device::note_free(const void* p, std::size_t bytes) {
  int tag = -1;
  const auto it = live_allocs_.find(p);
  if (it != live_allocs_.end()) {
    tag = it->second.first;
    live_allocs_.erase(it);
  }
  tracer_->on_free(tag, bytes, host_time_, bytes_in_use_);
}

}  // namespace irrlu::gpusim
