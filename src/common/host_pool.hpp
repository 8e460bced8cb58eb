// Host worker threads shared by the library (DESIGN.md §15). Two clients:
// the simulated device runs the blocks of an independent-block launch
// (LaunchConfig::independent) on them, and nested dissection bisects the
// sibling subgraphs of one dissection level on them. Only host wall time
// changes — a launch folds its blocks' costs in index order after the
// join, and each subgraph's ordering depends on that subgraph alone — so
// every result is bit-identical to a one-thread run.
//
// Scheduling: the task range is split into one contiguous part per
// participant; each claims tasks from the front of its own part and, when
// that runs dry, steals the back half of the largest remaining part. A
// heavy cluster of blocks (the big fronts of an irregular batch) is thus
// split among all threads, while cheap blocks cost one uncontended
// compare-and-swap each. Idle workers block in std::atomic::wait (a brief
// spin, then a futex), so a solver busy in serial host code — MC64, the
// symbolic analysis — leaves the other cores alone.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace irrlu {

/// Non-owning, non-allocating reference to a callable (the referenced
/// object must outlive every call).
template <typename Sig>
class FunctionRef;

template <typename R, typename... A>
class FunctionRef<R(A...)> {
 public:
  template <typename F>
  explicit FunctionRef(F& f)
      : obj_(&f), call_([](void* o, A... a) -> R {
          return (*static_cast<F*>(o))(std::forward<A>(a)...);
        }) {}
  R operator()(A... a) const { return call_(obj_, std::forward<A>(a)...); }

 private:
  void* obj_;
  R (*call_)(void*, A...);
};

/// Process-wide pool of host worker threads, started lazily.
class HostPool {
 public:
  static HostPool& shared();

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;
  ~HostPool();

  /// Runs `task(i)` exactly once for every i in [0, n) — on the calling
  /// thread plus up to `helpers` worker threads — and returns once all
  /// have finished. Tasks run in no particular order. If tasks throw, the
  /// others still run and the first exception caught is rethrown here.
  /// Everything runs on the calling thread when helpers < 1, n < 2, the
  /// call comes from a task of a pooled run() (on its caller or on a
  /// worker), or another thread is inside run() already — so nested or
  /// concurrent use degrades to serial execution instead of deadlocking.
  void run(int n, int helpers, FunctionRef<void(int)> task);

 private:
  HostPool() = default;

  struct alignas(64) Part {
    std::atomic<std::uint64_t> range{0};  ///< (begin << 32) | end
  };
  struct Job {
    FunctionRef<void(int)> task;
    int parts;
    Part* part;
    std::mutex error_mutex;
    std::exception_ptr error;  ///< first exception a task threw
  };

  static void run_one(Job& job, int i);
  static void drain(Job& job, int slot);
  void worker_main(int slot, std::uint32_t seen);
  void ensure_workers(int count);

  std::mutex busy_;  ///< held by the one thread inside run()
  std::unique_ptr<Part[]> parts_;
  int parts_capacity_ = 0;

  // Cross-thread handshake (see run() / worker_main()).
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<Job*> job_{nullptr};
  std::atomic<int> active_{0};
  std::atomic<bool> stop_{false};

  std::vector<std::thread> threads_;  ///< after everything they use
};

/// Default host-thread count of a new Device and of nested dissection: the
/// IRRLU_HOST_THREADS environment variable when set to a positive integer
/// (at most 256), else the machine's hardware concurrency capped at 8.
int default_host_threads();

}  // namespace irrlu
