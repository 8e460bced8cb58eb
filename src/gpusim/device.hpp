// The simulated device runtime: streams, kernel launches over grids of
// thread blocks, per-block shared-memory arenas with hardware capacity
// limits, a device-memory arena with peak tracking, and a simulated-time
// scheduler.
//
// Kernels are written exactly as GPU kernels are structured: a grid of
// independent blocks; each block stages data through shared memory and
// records the work it performed (flops + bytes of global-memory traffic).
// The numerics execute for real on the host, so every kernel is testable
// bit-for-bit; the recorded work drives the DeviceModel's timing.
//
// Scheduling semantics (mirroring CUDA/HIP):
//  - launches within one stream execute in order;
//  - launches in different streams may overlap on the device, but every
//    launch pays a host-side dispatch cost on a single host timeline
//    (one CPU thread performs all launches, as in the paper's baseline);
//  - blocks of a kernel are list-scheduled onto SM slots; the number of
//    co-resident blocks per SM is limited by shared-memory use;
//  - synchronize() joins a stream's timeline back into the host timeline.
//
// Host execution of the blocks is separate from that schedule: a launch
// declared `independent` runs its blocks on host worker threads
// (host_threads()), every other launch runs them one at a time in index
// order. Either way the per-block costs are folded in index order, so the
// simulated timeline never depends on how the host executed the blocks.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <queue>
#include <source_location>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "gpusim/device_model.hpp"
#include "gpusim/host_pool.hpp"
#include "gpusim/mem_pool.hpp"

namespace irrlu::trace {
class Tracer;
}

namespace irrlu::gpusim {

class Device;

/// Per-block execution context handed to kernel bodies.
class BlockCtx {
 public:
  /// Linear block index within the launch grid.
  int block() const { return block_; }

  /// Allocates `count` elements of shared memory; contents are
  /// uninitialized, lifetime ends with the block. Throws if the kernel's
  /// declared shared-memory budget is exceeded (the simulated analogue of a
  /// launch failure).
  template <typename T>
  T* smem_alloc(std::size_t count) {
    constexpr std::size_t align = alignof(std::max_align_t);
    std::size_t offset = (smem_used_ + align - 1) / align * align;
    std::size_t bytes = count * sizeof(T);
    IRRLU_CHECK_MSG(offset + bytes <= smem_capacity_,
                    "shared memory overflow: kernel declared "
                        << smem_capacity_ << " B, block needs >= "
                        << offset + bytes << " B");
    smem_used_ = offset + bytes;
    return reinterpret_cast<T*>(smem_base_ + offset);
  }

  /// Records work performed by this block: floating-point operations and
  /// global-memory traffic in bytes. May be called multiple times.
  void record(double flops, double bytes) {
    flops_ += flops;
    bytes_ += bytes;
  }

  std::size_t smem_capacity() const { return smem_capacity_; }

 private:
  friend class Device;
  int block_ = 0;
  char* smem_base_ = nullptr;
  std::size_t smem_capacity_ = 0;
  std::size_t smem_used_ = 0;
  double flops_ = 0;
  double bytes_ = 0;
};

/// An in-order execution queue on the device (CUDA stream analogue).
class Stream {
 public:
  /// Simulated time at which all work enqueued so far completes.
  double completion_time() const { return cursor_; }

  /// Stream index within its Device (0 is the default stream). Stable for
  /// the device's lifetime; usable as a per-stream workspace-cache key.
  int id() const { return id_; }

 private:
  friend class Device;
  explicit Stream(int id) : id_(id) {}
  int id_;
  double cursor_ = 0.0;
};

/// Value of LaunchConfig::independent, for readable braced initializers:
/// `{"irr_gemm", grid, smem, gpusim::kIndependentBlocks}`.
inline constexpr bool kIndependentBlocks = true;

/// Launch configuration for one kernel.
struct LaunchConfig {
  const char* name;            ///< kernel name, for profiling
  int blocks = 1;              ///< grid size (linearized)
  std::size_t smem_bytes = 0;  ///< declared shared memory per block
  /// Host-execution contract of the blocks; the cost model never reads
  /// it. false: blocks may communicate through memory (say, several
  /// blocks accumulate into one location), so they run one at a time in
  /// index order. true: no block writes memory that another block of the
  /// same launch reads or writes, so the blocks may run concurrently on
  /// host worker threads with bitwise the same results.
  bool independent = false;
  /// Optional refinement of `independent`: the grid split into chains of
  /// consecutive blocks, given by each chain's first block (ascending,
  /// starting at 0). Blocks of one chain run in index order on one thread
  /// — so blocks that accumulate into the same locations keep the serial
  /// summation order — and only whole chains run concurrently. Empty:
  /// every block is its own chain.
  std::span<const int> chains = {};
  /// Call site of the aggregate initialization (C++20 evaluates the
  /// default member initializer at the braced-init site); used by the
  /// debug-mode duplicate-kernel-name audit.
  std::source_location where = std::source_location::current();
};

/// Aggregated per-kernel-name statistics over the device's lifetime.
struct KernelStats {
  long launches = 0;
  long blocks = 0;
  double flops = 0;
  double bytes = 0;
  double sim_seconds = 0;  ///< sum over launches of (end - start)
};

/// RAII device memory. The backing store is host memory; the arena tracks
/// current and peak usage so the multifrontal code can budget subtrees.
template <typename T>
class DeviceBuffer;

class Device {
 public:
  /// `memory_pool` selects the host-side allocation strategy for the
  /// device's whole lifetime (it cannot be toggled later: a block freed
  /// into the pool must be reclaimed by the pool). Pooled or not, the
  /// simulated cost and the memory accounting of every allocation are
  /// identical — the pool only removes host malloc/free churn.
  explicit Device(DeviceModel model, bool memory_pool = true);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceModel& model() const { return model_; }

  /// Returns stream `i`, creating streams [0..i] on first use.
  Stream& stream(int i = 0);
  int num_streams() const { return static_cast<int>(streams_.size()); }

  /// Launches a kernel: executes `body(BlockCtx&)` for every block in the
  /// grid (real computation on the host; concurrently on host worker
  /// threads when `cfg.independent` and the body is const-callable) and
  /// advances the simulated timeline per the DeviceModel.
  template <typename Body>
  void launch(Stream& s, const LaunchConfig& cfg, Body&& body) {
    IRRLU_CHECK_MSG(cfg.blocks >= 0, "negative grid size");
    IRRLU_CHECK_MSG(cfg.smem_bytes <= model_.shared_mem_per_block,
                    "kernel '" << cfg.name << "' declares " << cfg.smem_bytes
                               << " B shared memory; device limit is "
                               << model_.shared_mem_per_block << " B");
    begin_launch(cfg);
    auto run_block = [&](int b, char* smem) {
      BlockCtx ctx;
      ctx.block_ = b;
      ctx.smem_base_ = smem;
      ctx.smem_capacity_ = cfg.smem_bytes;
      body(ctx);
      block_costs_[static_cast<std::size_t>(b)] = {ctx.flops_, ctx.bytes_};
    };
    // A mutable body (non-const call operator) may keep state across
    // blocks, so it never runs concurrently.
    constexpr bool kConstBody =
        std::is_invocable_v<const std::remove_reference_t<Body>&, BlockCtx&>;
    run_blocks(cfg, cfg.independent && kConstBody, BlockFn(run_block));
    end_launch(s, cfg);
  }

  /// Host threads that execute the blocks of an independent launch (the
  /// calling thread included); 1 runs every block on the calling thread.
  /// Defaults to default_host_threads(). Affects host wall time only:
  /// results, simulated time and every counter are the same for any value.
  int host_threads() const { return host_threads_; }
  void set_host_threads(int n) {
    IRRLU_CHECK_MSG(n >= 1, "host_threads must be >= 1, got " << n);
    host_threads_ = n;
  }
  /// Launches that handed blocks to the host pool since the last
  /// reset_timeline() (a host-side observable, like the wall clock).
  long pooled_launch_count() const { return pooled_launch_count_; }

  /// Host blocks until stream `s` completes; advances host time.
  void synchronize(Stream& s);
  /// Host blocks until the whole device is idle. Returns the simulated time.
  double synchronize_all();

  /// Current simulated host time (seconds since reset).
  double host_time() const { return host_time_; }
  /// Resets all timelines and profiling (memory contents are untouched).
  void reset_timeline();

  long launch_count() const { return launch_count_; }
  long sync_count() const { return sync_count_; }
  /// Total simulated host seconds spent inside synchronize() calls.
  double sync_wait_seconds() const { return sync_wait_seconds_; }
  double total_flops() const { return total_flops_; }
  double total_bytes() const { return total_bytes_; }

  const std::map<std::string, KernelStats>& profile() const {
    return profile_;
  }

  /// Attaches (or detaches, with nullptr) a per-launch trace recorder.
  /// The tracer is pure bookkeeping: simulated timelines are identical
  /// with and without one attached. Switching tracers drops the live
  /// allocation→tag map (tags belong to the old tracer; freeing those
  /// buffers under the new one records an untracked free).
  void set_tracer(trace::Tracer* t) {
    if (t != tracer_) live_allocs_.clear();
    tracer_ = t;
  }
  trace::Tracer* tracer() const { return tracer_; }

  /// Allocates device memory (tracked; freed via DeviceBuffer RAII).
  /// `count == 0` is well-defined: it returns an empty buffer without
  /// touching the arena (no raw allocation, no simulated alloc overhead).
  /// With a tracer attached the allocation is tagged by the innermost
  /// trace scope, falling back to the call site.
  template <typename T>
  DeviceBuffer<T> alloc(std::size_t count,
                        std::source_location where =
                            std::source_location::current());

  std::size_t bytes_in_use() const { return bytes_in_use_; }
  std::size_t peak_bytes() const { return peak_bytes_; }

  /// Windowed high-water mark: `reset_peak_window()` rebases the window to
  /// the current usage; `window_peak_bytes()` reports the maximum
  /// bytes-in-use observed since. Unlike peak_bytes(), unaffected by
  /// earlier phases of the device's lifetime.
  void reset_peak_window() { window_peak_ = bytes_in_use_; }
  std::size_t window_peak_bytes() const { return window_peak_; }

  // --- slab pool (DESIGN.md §10) ---------------------------------------

  bool pool_enabled() const { return pool_ != nullptr; }
  /// Pool effectiveness counters; all-zero when the pool is disabled.
  const MemPool::Stats& pool_stats() const {
    static const MemPool::Stats kNone{};
    return pool_ != nullptr ? pool_->stats() : kNone;
  }
  /// Returns every cached (free-listed) block to the system. Live
  /// allocations are unaffected. No-op when the pool is disabled.
  void pool_trim() {
    if (pool_ != nullptr) pool_->trim();
  }

  /// Device allocation events over the lifetime (pool hits included);
  /// alloc<T>(0) no-ops are not counted.
  long alloc_count() const { return alloc_count_; }
  /// Host malloc calls actually performed (= alloc_count() with the pool
  /// off, the pool's miss count with it on) — the churn the pool removes.
  long host_alloc_count() const { return host_alloc_count_; }

  // --- reusable workspace cache ----------------------------------------

  /// Returns a scratch buffer of at least `count` elements, cached under
  /// `key` for the device's lifetime (grown geometrically when a larger
  /// request arrives, so repeated same-shape kernel calls stop allocating
  /// at all). Unlike alloc(), a cache hit performs no simulated work: the
  /// first (or growing) request pays the normal alloc_overhead, later
  /// requests are free on both the host and the simulated timeline.
  /// Contents are unspecified on every call. The caller owns consistency
  /// of the key (include the stream id for per-stream scratch); the
  /// buffer is valid until release_workspaces() or device destruction.
  template <typename T>
  T* workspace(std::string_view key, std::size_t count,
               std::source_location where = std::source_location::current()) {
    IRRLU_CHECK_MSG(count <= SIZE_MAX / sizeof(T),
                    "workspace of " << count << " x " << sizeof(T)
                                    << " B overflows size_t");
    return static_cast<T*>(workspace_bytes(key, count * sizeof(T), where));
  }
  /// Frees every cached workspace (normally done by the destructor).
  /// Callers must not hold workspace pointers across this.
  void release_workspaces();
  std::size_t workspace_count() const { return workspaces_.size(); }

 private:
  template <typename T>
  friend class DeviceBuffer;

  /// launch()'s per-block runner `(block, shared-memory arena)`.
  using BlockFn = FunctionRef<void(int, char*)>;

  void begin_launch(const LaunchConfig& cfg);
  /// Runs every block of the grid — serially in index order, or on the
  /// host pool when `parallel` — then folds the recorded costs into the
  /// launch and lifetime totals in index order. If blocks throw, rethrows
  /// the lowest-indexed block's exception after folding only the blocks
  /// before it (exactly what a serial run leaves behind).
  void run_blocks(const LaunchConfig& cfg, bool parallel, BlockFn run);
  void end_launch(Stream& s, const LaunchConfig& cfg);

  void* raw_alloc(std::size_t bytes, const std::source_location& where);
  void raw_free(void* p, std::size_t bytes);
  void* workspace_bytes(std::string_view key, std::size_t bytes,
                        const std::source_location& where);
  // Takes void* (not const void*): GCC 12's -Wmaybe-uninitialized treats a
  // const pointer parameter as a read of the pointed-to storage and misfires
  // on a fresh malloc result. Only the pointer value is used (as a map key).
  void note_alloc(void* p, std::size_t bytes,
                  const std::source_location& where);
  void note_free(const void* p, std::size_t bytes);

  DeviceModel model_;
  std::vector<std::unique_ptr<Stream>> streams_;
  int host_threads_ = 1;

  // --- simulated timelines ---
  double host_time_ = 0.0;
  std::vector<double> slot_free_;  ///< num_sms * max_blocks_per_sm SM slots
  /// Reused scheduling heap (end_launch); holds at most grid-size slots.
  std::vector<std::pair<double, std::size_t>> slot_scratch_;
  std::vector<std::pair<double, double>> block_costs_;  ///< (flops, bytes)
  double launch_flops_ = 0, launch_bytes_ = 0;

  // --- host execution and tracing (never feed back into the timelines) ---
  long pooled_launch_count_ = 0;
  trace::Tracer* tracer_ = nullptr;
  double launch_wall_seconds_ = 0;
  /// First launch site seen per kernel name, for the debug-mode
  /// duplicate-name audit (folded stats are usually a naming bug).
  std::map<std::string, std::pair<std::string, unsigned>> launch_sites_;

  // --- accounting ---
  long launch_count_ = 0;
  long sync_count_ = 0;
  double sync_wait_seconds_ = 0;
  double total_flops_ = 0, total_bytes_ = 0;
  std::map<std::string, KernelStats> profile_;

  std::size_t bytes_in_use_ = 0;
  std::size_t peak_bytes_ = 0;
  std::size_t window_peak_ = 0;
  long alloc_count_ = 0;
  long host_alloc_count_ = 0;
  /// Live allocations → (mem tag id, bytes), maintained only while a
  /// tracer is attached; also backs the debug-mode leak report.
  std::map<const void*, std::pair<int, std::size_t>> live_allocs_;

  /// Size-class slab pool behind raw_alloc/raw_free; null when disabled
  /// at construction. Declared after live_allocs_ so the destructor body
  /// (which releases cached workspaces through raw_free) still sees it.
  std::unique_ptr<MemPool> pool_;

  struct Workspace {
    void* p = nullptr;
    std::size_t bytes = 0;
  };
  /// Named reusable scratch buffers (workspace<T>), raw_alloc'd and held
  /// until release_workspaces()/destruction.
  std::map<std::string, Workspace, std::less<>> workspaces_;
};

template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  ~DeviceBuffer() { release(); }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&& o) noexcept { *this = std::move(o); }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release();
      dev_ = o.dev_;
      data_ = o.data_;
      count_ = o.count_;
      o.dev_ = nullptr;
      o.data_ = nullptr;
      o.count_ = 0;
    }
    return *this;
  }

  T* data() const { return data_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  T& operator[](std::size_t i) const {
    IRRLU_DEBUG_ASSERT(i < count_);
    return data_[i];
  }

  void release() {
    if (dev_ && data_) {
      dev_->raw_free(data_, count_ * sizeof(T));
      data_ = nullptr;
      count_ = 0;
      dev_ = nullptr;
    }
  }

 private:
  friend class Device;
  DeviceBuffer(Device* dev, T* data, std::size_t count)
      : dev_(dev), data_(data), count_(count) {}

  Device* dev_ = nullptr;
  T* data_ = nullptr;
  std::size_t count_ = 0;
};

template <typename T>
DeviceBuffer<T> Device::alloc(std::size_t count, std::source_location where) {
  if (count == 0) return DeviceBuffer<T>();
  IRRLU_CHECK_MSG(count <= SIZE_MAX / sizeof(T),
                  "device allocation of " << count << " x " << sizeof(T)
                                          << " B overflows size_t");
  T* p = static_cast<T*>(raw_alloc(count * sizeof(T), where));
  return DeviceBuffer<T>(this, p, count);
}

}  // namespace irrlu::gpusim
