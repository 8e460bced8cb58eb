#include "common/host_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <mutex>

namespace irrlu {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

constexpr std::uint64_t pack(std::uint32_t begin, std::uint32_t end) {
  return (static_cast<std::uint64_t>(begin) << 32) | end;
}
constexpr std::uint32_t begin_of(std::uint64_t r) {
  return static_cast<std::uint32_t>(r >> 32);
}
constexpr std::uint32_t end_of(std::uint64_t r) {
  return static_cast<std::uint32_t>(r);
}

constexpr long kMaxHostThreads = 256;  ///< cap on IRRLU_HOST_THREADS

/// True while this thread runs a pooled job's tasks — as the caller of
/// run() or as a worker draining it. A task's nested run() then executes
/// inline: on the caller, busy_.try_lock() would re-lock a mutex this
/// thread already owns, which is undefined behaviour.
thread_local bool t_in_run = false;

struct InRunScope {
  InRunScope() { t_in_run = true; }
  ~InRunScope() { t_in_run = false; }
  InRunScope(const InRunScope&) = delete;
  InRunScope& operator=(const InRunScope&) = delete;
};

}  // namespace

HostPool& HostPool::shared() {
  static HostPool pool;
  return pool;
}

HostPool::~HostPool() {
  stop_.store(true);
  epoch_.fetch_add(1);
  epoch_.notify_all();
  for (auto& t : threads_) t.join();
}

void HostPool::ensure_workers(int count) {
  while (static_cast<int>(threads_.size()) < count) {
    const int slot = static_cast<int>(threads_.size()) + 1;  // 0 = caller
    threads_.emplace_back(&HostPool::worker_main, this, slot,
                          epoch_.load());
  }
}

void HostPool::run_one(Job& job, int i) {
  try {
    job.task(i);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(job.error_mutex);
    if (!job.error) job.error = std::current_exception();
  }
}

void HostPool::drain(Job& job, int slot) {
  std::atomic<std::uint64_t>& own = job.part[slot].range;
  for (;;) {
    // Claim from the front of the own part.
    std::uint64_t r = own.load(std::memory_order_relaxed);
    while (begin_of(r) < end_of(r)) {
      if (own.compare_exchange_weak(r, pack(begin_of(r) + 1, end_of(r)),
                                    std::memory_order_relaxed)) {
        run_one(job, static_cast<int>(begin_of(r)));
        r = own.load(std::memory_order_relaxed);
      }
    }
    // Steal the back half of the largest remaining part (all of it when a
    // single task is left). Only the own part ever grows, and only here,
    // while it is empty — so a thief never races its owner on a refill.
    int victim = -1;
    std::uint64_t vr = 0;
    std::uint32_t best = 0;
    for (int p = 0; p < job.parts; ++p) {
      const std::uint64_t x = job.part[p].range.load(std::memory_order_relaxed);
      if (begin_of(x) < end_of(x) && end_of(x) - begin_of(x) > best) {
        best = end_of(x) - begin_of(x);
        victim = p;
        vr = x;
      }
    }
    if (victim < 0) return;
    const std::uint32_t mid = begin_of(vr) + (end_of(vr) - begin_of(vr)) / 2;
    if (job.part[victim].range.compare_exchange_strong(
            vr, pack(begin_of(vr), mid), std::memory_order_relaxed))
      own.store(pack(mid, end_of(vr)), std::memory_order_relaxed);
  }
}

void HostPool::worker_main(int slot, std::uint32_t seen) {
  for (;;) {
    epoch_.wait(seen, std::memory_order_acquire);
    seen = epoch_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    // Attach before reading the job: run() clears job_ and then waits for
    // active_ to drain, so a job read after the increment stays alive until
    // the matching decrement (seq_cst on both sides of the handshake).
    active_.fetch_add(1);
    Job* job = job_.load();
    if (job != nullptr && slot < job->parts) {
      const InRunScope in_run;
      drain(*job, slot);
    }
    active_.fetch_sub(1, std::memory_order_release);
  }
}

void HostPool::run(int n, int helpers, FunctionRef<void(int)> task) {
  if (n <= 0) return;
  helpers = std::min(helpers, n - 1);
  std::unique_lock<std::mutex> busy(busy_, std::defer_lock);
  const bool pooled = helpers >= 1 && !t_in_run && busy.try_lock();
  const int parts = pooled ? helpers + 1 : 1;
  Job job{task, parts, nullptr, {}, {}};
  if (!pooled) {
    for (int i = 0; i < n; ++i) run_one(job, i);
    if (job.error) std::rethrow_exception(job.error);
    return;
  }
  ensure_workers(helpers);
  if (parts_capacity_ < parts) {
    parts_ = std::make_unique<Part[]>(static_cast<std::size_t>(parts));
    parts_capacity_ = parts;
  }
  for (int p = 0; p < parts; ++p) {
    const auto b = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(n) * p / parts);
    const auto e = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(n) * (p + 1) / parts);
    parts_[static_cast<std::size_t>(p)].range.store(
        pack(b, e), std::memory_order_relaxed);
  }
  job.part = parts_.get();
  const InRunScope in_run;
  job_.store(&job);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  drain(job, 0);
  job_.store(nullptr);
  for (int i = 0; active_.load() != 0; ++i) {
    if (i < 4096)
      cpu_relax();
    else
      std::this_thread::yield();
  }
  if (job.error) std::rethrow_exception(job.error);
}

int default_host_threads() {
  if (const char* env = std::getenv("IRRLU_HOST_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1)
      return static_cast<int>(std::min(v, kMaxHostThreads));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 8u));
}

}  // namespace irrlu
