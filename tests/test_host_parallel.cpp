// Host-parallel block execution (DESIGN.md §15): the worker pool's
// exactly-once contract, the launch contract of independent blocks (costs
// folded in index order, the serial run's exception, mutable bodies kept
// serial), and bitwise identity of every simulated number and every
// result between one and several host threads — kernels, the multifrontal
// factorization under each precision and routing option (with fronts
// split into concurrent column panels), the device solves, and the
// service.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/host_pool.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "irrblas/irr_kernels.hpp"
#include "irrblas/vbatch.hpp"
#include "service/solver_service.hpp"
#include "sparse/csr.hpp"
#include "sparse/multifrontal.hpp"
#include "sparse/solver.hpp"
#include "sparse/symbolic.hpp"
#include "trace/trace.hpp"
#include "helpers.hpp"

using namespace irrlu;
using gpusim::BlockCtx;
using gpusim::Device;
using gpusim::DeviceModel;
using gpusim::kIndependentBlocks;
using test::ScopedHostThreads;

namespace {

constexpr int kThreads = 4;

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Everything a run leaves on the simulated device that must not depend
/// on the host thread count.
struct DeviceTrace {
  double host_time = 0, flops = 0, bytes = 0;
  long launches = 0, syncs = 0;
  std::vector<std::tuple<std::string, long, long, double, double, double>>
      kernels;

  explicit DeviceTrace(const Device& dev)
      : host_time(dev.host_time()),
        flops(dev.total_flops()),
        bytes(dev.total_bytes()),
        launches(dev.launch_count()),
        syncs(dev.sync_count()) {
    for (const auto& [name, k] : dev.profile())
      kernels.emplace_back(name, k.launches, k.blocks, k.flops, k.bytes,
                           k.sim_seconds);
  }
  bool operator==(const DeviceTrace&) const = default;
};

/// Runs `fn(dev)` on a fresh `model` device with 1 and with kThreads host
/// threads; checks that the device traces agree and that the second run
/// really used the host pool, and returns both results.
template <typename Fn>
auto run_both(Fn fn, const DeviceModel& model = DeviceModel::a100()) {
  auto one = [&](int threads) {
    const ScopedHostThreads scope(threads);
    Device dev(model);
    auto result = fn(dev);
    EXPECT_EQ(dev.pooled_launch_count() > 0, threads > 1);
    return std::make_pair(std::move(result), DeviceTrace(dev));
  };
  auto serial = one(1);
  auto parallel = one(kThreads);
  EXPECT_EQ(serial.second, parallel.second);
  return std::make_pair(std::move(serial.first), std::move(parallel.first));
}

/// Busy host work of roughly `us` microseconds: long enough blocks that
/// the pool workers join in before the calling thread drains the grid.
void spin_us(double us) {
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::duration<double, std::micro>(us);
  while (std::chrono::steady_clock::now() < end) {
  }
}

std::vector<double> rhs(int n, unsigned seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

}  // namespace

// ---------------------------------------------------------------------------
// HostPool
// ---------------------------------------------------------------------------

TEST(HostPool, RunsEveryTaskExactlyOnce) {
  for (int n : {0, 1, 2, 3, 7, 64, 1000, 4097}) {
    for (int helpers : {0, 1, 3, 6}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      auto task = [&](int i) { hits[static_cast<std::size_t>(i)]++; };
      HostPool::shared().run(n, helpers, FunctionRef<void(int)>(task));
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "n=" << n << " helpers=" << helpers << " task " << i;
    }
  }
}

TEST(HostPool, RunsEveryTaskAndRethrowsAFailure) {
  for (int helpers : {0, kThreads - 1}) {
    std::vector<std::atomic<int>> hits(100);
    auto task = [&](int i) {
      hits[static_cast<std::size_t>(i)]++;
      if (i == 37) throw std::runtime_error("task 37");
    };
    EXPECT_THROW(
        HostPool::shared().run(100, helpers, FunctionRef<void(int)>(task)),
        std::runtime_error);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(HostPool, SplitsWorkAcrossThreads) {
  // Tasks long enough that the workers wake up and steal: more than one
  // thread must take part.
  std::mutex m;
  std::vector<std::thread::id> ids;
  auto task = [&](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::lock_guard<std::mutex> lock(m);
    ids.push_back(std::this_thread::get_id());
  };
  HostPool::shared().run(32, kThreads - 1, FunctionRef<void(int)>(task));
  ASSERT_EQ(ids.size(), 32u);
  std::sort(ids.begin(), ids.end());
  EXPECT_GT(std::unique(ids.begin(), ids.end()) - ids.begin(), 1);
}

TEST(HostPool, ConcurrentCallersBothComplete) {
  // A second caller while the pool is busy runs its tasks inline.
  std::atomic<long> sum{0};
  auto work = [&] {
    for (int rep = 0; rep < 50; ++rep) {
      auto task = [&](int i) { sum += i; };
      HostPool::shared().run(100, kThreads - 1, FunctionRef<void(int)>(task));
    }
  };
  std::thread t(work);
  work();
  t.join();
  EXPECT_EQ(sum.load(), 2L * 50 * (99 * 100 / 2));
}

TEST(HostPool, NestedRunsFromTasksRunInline) {
  // A task that calls run() again — on the caller's thread, which holds
  // the pool, or on a worker — runs the inner tasks inline, each exactly
  // once; nesting one level deeper changes nothing.
  constexpr int kOuter = 24, kInner = 40, kInnermost = 3;
  std::vector<std::atomic<int>> hits(
      static_cast<std::size_t>(kOuter * kInner * kInnermost));
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0}, on_workers{0};
  auto outer = [&](int i) {
    auto inner = [&](int j) {
      auto innermost = [&](int k) {
        hits[static_cast<std::size_t>((i * kInner + j) * kInnermost + k)]++;
      };
      HostPool::shared().run(kInnermost, kThreads - 1,
                             FunctionRef<void(int)>(innermost));
    };
    HostPool::shared().run(kInner, kThreads - 1, FunctionRef<void(int)>(inner));
    (std::this_thread::get_id() == caller ? on_caller : on_workers)++;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  HostPool::shared().run(kOuter, kThreads - 1, FunctionRef<void(int)>(outer));
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "inner task " << i;
  EXPECT_GT(on_caller.load(), 0);
  EXPECT_GT(on_workers.load(), 0);

  // The caller left run(): its next top-level call is pooled again.
  std::mutex m;
  std::vector<std::thread::id> ids;
  auto task = [&](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::lock_guard<std::mutex> lock(m);
    ids.push_back(std::this_thread::get_id());
  };
  HostPool::shared().run(32, kThreads - 1, FunctionRef<void(int)>(task));
  std::sort(ids.begin(), ids.end());
  EXPECT_GT(std::unique(ids.begin(), ids.end()) - ids.begin(), 1);
}

TEST(HostPool, DefaultThreadsHonorsEnvironment) {
  const char* old = std::getenv("IRRLU_HOST_THREADS");
  const std::string saved = old != nullptr ? old : "";
  setenv("IRRLU_HOST_THREADS", "3", 1);
  EXPECT_EQ(default_host_threads(), 3);
  EXPECT_EQ(Device(DeviceModel::test_tiny()).host_threads(), 3);
  setenv("IRRLU_HOST_THREADS", "99999999999", 1);  // capped
  EXPECT_EQ(default_host_threads(), 256);
  setenv("IRRLU_HOST_THREADS", "zero", 1);  // ignored: hardware default
  EXPECT_GE(default_host_threads(), 1);
  if (old != nullptr)
    setenv("IRRLU_HOST_THREADS", saved.c_str(), 1);
  else
    unsetenv("IRRLU_HOST_THREADS");
}

// ---------------------------------------------------------------------------
// Launch contract
// ---------------------------------------------------------------------------

TEST(ParallelLaunch, IndependentBlocksRunOnceAndFoldCostsInOrder) {
  // Costs chosen so that floating-point summation order matters: the
  // folded totals must be bitwise the serial ones.
  auto run = [](int threads) {
    const ScopedHostThreads scope(threads);
    Device dev(DeviceModel::a100());
    std::vector<int> hits(997, 0);
    for (int rep = 0; rep < 20; ++rep)
      dev.launch(dev.stream(), {"k", 997, 256, kIndependentBlocks},
                 [&](BlockCtx& c) {
                   hits[static_cast<std::size_t>(c.block())]++;
                   if (c.block() % 50 == 0) spin_us(5);
                   c.record(1e5 / (1 + c.block()) + 0.1 * rep,
                            3e3 * c.block() + 1.0 / 3);
                 });
    for (int h : hits) EXPECT_EQ(h, 20);
    EXPECT_EQ(dev.pooled_launch_count() > 0, threads > 1);
    dev.synchronize_all();
    return DeviceTrace(dev);
  };
  EXPECT_EQ(run(1), run(kThreads));
}

TEST(ParallelLaunch, SharedMemoryIsPrivatePerBlock) {
  const ScopedHostThreads scope(kThreads);
  Device dev(DeviceModel::a100());
  std::atomic<int> bad{0};
  dev.launch(dev.stream(), {"smem", 256, 4096, kIndependentBlocks},
             [&](BlockCtx& c) {
               int* s = c.smem_alloc<int>(1024);
               for (int i = 0; i < 1024; ++i) s[i] = c.block() * 7 + i;
               long acc = 0;
               for (int rep = 0; rep < 50; ++rep)
                 for (int i = 0; i < 1024; ++i) acc += s[i];
               if (acc != 50L * (1024L * c.block() * 7 + 1023L * 1024 / 2))
                 bad++;
             });
  EXPECT_EQ(bad.load(), 0);
}

TEST(ParallelLaunch, ThrowsTheLowestFailingBlockAndFoldsOnlyBlocksBefore) {
  auto run = [](int threads) {
    const ScopedHostThreads scope(threads);
    Device dev(DeviceModel::a100());
    std::string what;
    try {
      dev.launch(dev.stream(), {"fail", 500, 0, kIndependentBlocks},
                 [](BlockCtx& c) {
                   spin_us(2);
                   c.record(1.0 + c.block(), 2.0);
                   if (c.block() == 123 || c.block() == 321 ||
                       c.block() == 499)
                     throw std::runtime_error("block " +
                                              std::to_string(c.block()));
                 });
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(dev.pooled_launch_count() > 0, threads > 1);
    return std::make_tuple(what, dev.total_flops(), dev.total_bytes(),
                           dev.launch_count());
  };
  const auto serial = run(1);
  EXPECT_EQ(std::get<0>(serial), "block 123");
  EXPECT_EQ(std::get<1>(serial), 123.0 * 124 / 2);  // blocks 0..122
  EXPECT_EQ(std::get<3>(serial), 0);                // launch never ended
  EXPECT_EQ(run(kThreads), serial);
}

TEST(ParallelLaunch, MutableAndSerialBodiesStayOnTheCallingThread) {
  const ScopedHostThreads scope(kThreads);
  Device dev(DeviceModel::a100());
  const auto caller = std::this_thread::get_id();
  int off_thread = 0;
  // A mutable body may carry state across blocks: never concurrent.
  dev.launch(dev.stream(), {"mutable", 64, 0, kIndependentBlocks},
             [&, calls = 0](BlockCtx&) mutable {
               ++calls;
               std::this_thread::sleep_for(std::chrono::microseconds(50));
               if (std::this_thread::get_id() != caller) ++off_thread;
             });
  // A launch not declared independent: never concurrent.
  dev.launch(dev.stream(), {"serial", 64, 0}, [&](BlockCtx&) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    if (std::this_thread::get_id() != caller) ++off_thread;
  });
  EXPECT_EQ(off_thread, 0);
}

// ---------------------------------------------------------------------------
// Bitwise identity of the library between 1 and kThreads host threads
// ---------------------------------------------------------------------------

TEST(HostThreadsIdentity, IrrGetrfBatch) {
  // The fig10 workload in miniature: every matrix and pivot bit and the
  // whole simulated timeline are thread-count independent.
  const auto both = run_both([](Device& dev) {
    Rng rng(7);
    const auto m = rng.uniform_sizes(120, 1, 160);
    const auto n = rng.uniform_sizes(120, 1, 160);
    batch::VBatch<double> a(dev, m, n);
    a.fill_uniform(rng);
    batch::PivotBatch piv(dev, m, n);
    batch::irr_getrf<double>(dev, dev.stream(), a.max_m(), a.max_n(),
                             a.ptrs(), a.lda(), 0, 0, a.m_vec(), a.n_vec(),
                             piv.ptrs(), piv.info(), a.batch_size());
    dev.synchronize_all();
    std::vector<double> lu;
    std::vector<int> pivots;
    for (int i = 0; i < a.batch_size(); ++i) {
      const auto v = a.view(i);
      for (int c = 0; c < v.cols(); ++c)
        for (int r = 0; r < v.rows(); ++r) lu.push_back(v(r, c));
      const int k = std::min(a.m_of(i), a.n_of(i));
      pivots.insert(pivots.end(), piv.ipiv_of(i), piv.ipiv_of(i) + k);
      pivots.push_back(piv.info()[i]);
    }
    return std::make_pair(lu, pivots);
  });
  EXPECT_TRUE(same_bits(both.first.first, both.second.first));
  EXPECT_TRUE(same_bits(both.first.second, both.second.second));
}

namespace {

struct FactorRun {
  std::vector<double> factor;
  std::vector<float> factor_f32;
  std::vector<int> pivots;
  double growth = 0;
  std::vector<double> x, x_device, x_many;
  double factor_seconds = 0;
  long launches = 0;
  bool operator==(const FactorRun& o) const {
    return same_bits(factor, o.factor) && same_bits(factor_f32, o.factor_f32) &&
           pivots == o.pivots &&
           std::memcmp(&growth, &o.growth, sizeof growth) == 0 &&
           same_bits(x, o.x) && same_bits(x_device, o.x_device) &&
           same_bits(x_many, o.x_many) && factor_seconds == o.factor_seconds &&
           launches == o.launches;
  }
};

/// The factor's numbers and schedule (the solve fields stay empty).
FactorRun factor_run(const sparse::MultifrontalFactor& f) {
  FactorRun r;
  r.factor.assign(f.factor_data(), f.factor_data() + f.factor_elems());
  r.factor_f32.assign(f.factor_data_f32(),
                      f.factor_data_f32() + f.factor_elems_f32());
  r.pivots.assign(f.pivot_data(), f.pivot_data() + f.pivot_count());
  r.growth = f.report().pivot_growth;
  r.factor_seconds = f.factor_seconds();
  r.launches = f.launch_count();
  return r;
}

FactorRun factor_and_solve(Device& dev, const sparse::CsrMatrix& a,
                           const sparse::SolverOptions& opts) {
  sparse::SparseDirectSolver solver(opts);
  solver.analyze(a);
  solver.factor(dev);
  const auto& f = solver.numeric();
  FactorRun r = factor_run(f);
  const auto b = rhs(a.rows(), 11);
  r.x = solver.solve_report(b).x;
  std::vector<double> xd = b;
  f.solve_many(xd, 1);
  r.x_device = xd;
  for (const auto& rep : solver.solve_report_many({b, rhs(a.rows(), 12),
                                                   rhs(a.rows(), 13)}))
    r.x_many.insert(r.x_many.end(), rep.x.begin(), rep.x.end());
  return r;
}

}  // namespace

class FactorIdentity : public ::testing::TestWithParam<int> {};

TEST_P(FactorIdentity, FactorSolveAndTimelineMatchOneThread) {
  const sparse::CsrMatrix a = sparse::laplacian3d(12, 11, 10, -2.17);
  sparse::SolverOptions opts;
  DeviceModel model = DeviceModel::a100();
  switch (GetParam()) {
    case 0:  // defaults (FP64, strided)
      break;
    case 1:
      opts.factor.precision = sparse::PrecisionPolicy::kF32;
      break;
    case 2:
      opts.factor.precision = sparse::PrecisionPolicy::kAdaptive;
      break;
    case 3:  // 512 B of shared memory fits no panel: column-wise panels
      opts.factor.memory = sparse::MemoryMode::kStackedLevels;
      model.shared_mem_per_block = 512;
      break;
  }
  const auto both = run_both(
      [&](Device& dev) {
        FactorRun r = factor_and_solve(dev, a, opts);
        EXPECT_EQ(dev.profile().count("irr_scal"), GetParam() == 3 ? 1u : 0u);
        return r;
      },
      model);
  EXPECT_TRUE(both.first == both.second);
}

INSTANTIATE_TEST_SUITE_P(Options, FactorIdentity,
                         ::testing::Values(0, 1, 2, 3));

namespace {

/// A matrix and separator tree whose fronts have orders 31, 32, 33, 40,
/// 64, 65 and 310: below, at and above one 32-column panel, two panels
/// either side of 64, and a ten-panel root. Each node couples densely
/// within its separator and to `u` variables spread over its parent's
/// separator, so a front's update set is exactly those; values are
/// random, so the factorization pivots.
struct PanelTree {
  sparse::CsrMatrix a;
  ordering::Ordering ord;
};

PanelTree panel_tree() {
  struct Node {
    int s, u, parent, stride;
  };
  // Postorder: leaves L1, L2 under A; L3, L4 under B; A and B under R.
  const std::vector<Node> nodes = {{11, 20, 2, 1}, {12, 20, 2, 1},
                                   {24, 40, 6, 7}, {13, 20, 5, 1},
                                   {20, 20, 5, 1}, {20, 45, 6, 6},
                                   {310, 0, -1, 0}};
  PanelTree t;
  std::vector<int> begin;
  int n = 0;
  for (const Node& nd : nodes) {
    begin.push_back(n);
    n += nd.s;
  }
  Rng rng(23);
  std::vector<std::tuple<int, int, double>> trip;
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const Node& nd = nodes[k];
    for (int i = begin[k]; i < begin[k] + nd.s; ++i) {
      for (int j = begin[k]; j < begin[k] + nd.s; ++j)
        trip.emplace_back(i, j, rng.uniform(-1, 1));
      for (int c = 0; c < nd.u; ++c) {
        const int j =
            begin[static_cast<std::size_t>(nd.parent)] + c * nd.stride;
        trip.emplace_back(i, j, rng.uniform(-1, 1));
        trip.emplace_back(j, i, rng.uniform(-1, 1));
      }
    }
  }
  t.a = sparse::CsrMatrix::from_triplets(n, trip);
  for (int i = 0; i < n; ++i) {
    t.ord.perm.push_back(i);
    t.ord.iperm.push_back(i);
  }
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    ordering::SepTreeNode sn;
    sn.begin = begin[k];
    sn.end = begin[k] + nodes[k].s;
    sn.parent = nodes[k].parent;
    t.ord.tree.push_back(sn);
  }
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const int p = nodes[k].parent;
    if (p < 0) continue;
    auto& pn = t.ord.tree[static_cast<std::size_t>(p)];
    (pn.left < 0 ? pn.left : pn.right) = static_cast<int>(k);
  }
  t.ord.root = static_cast<int>(nodes.size()) - 1;
  return t;
}

}  // namespace

class PanelledFrontIdentity
    : public ::testing::TestWithParam<sparse::PrecisionPolicy> {};

TEST_P(PanelledFrontIdentity, FactorAndSolveMatchOneThread) {
  // Every panelled stage splits the larger fronts into concurrent blocks,
  // and the norm and growth panels of one front combine by atomic max.
  const PanelTree t = panel_tree();
  const sparse::SymbolicAnalysis sym =
      sparse::SymbolicAnalysis::build(t.a, t.ord);
  std::vector<int> dims;
  for (const auto& f : sym.fronts) dims.push_back(f.dim());
  std::sort(dims.begin(), dims.end());
  ASSERT_EQ(dims, (std::vector<int>{31, 32, 33, 40, 64, 65, 310}));
  sparse::FactorOptions opts;
  opts.precision = GetParam();
  const auto both = run_both([&](Device& dev) {
    sparse::MultifrontalFactor f(dev, t.a, sym, opts);
    EXPECT_TRUE(f.numerically_ok());
    FactorRun r = factor_run(f);
    r.x_device = rhs(t.a.rows(), 5);
    f.solve_many(r.x_device, 1);
    return r;
  });
  EXPECT_TRUE(both.first == both.second);
  // Partial pivoting moved rows.
  int swaps = 0;
  const int* piv = both.first.pivots.data();
  for (const auto& fr : sym.fronts)
    for (int r = 0; r < fr.s(); ++r) swaps += *piv++ != r;
  EXPECT_GT(swaps, 0);
}

INSTANTIATE_TEST_SUITE_P(Precisions, PanelledFrontIdentity,
                         ::testing::Values(sparse::PrecisionPolicy::kF64,
                                           sparse::PrecisionPolicy::kF32,
                                           sparse::PrecisionPolicy::kAdaptive));

TEST(HostThreadsIdentity, TraceRowsMatchOneThread) {
  // The tracer sees the same launches, scopes and simulated intervals;
  // only the host wall column may differ.
  const sparse::CsrMatrix a = sparse::laplacian3d(7, 7, 7, -1.3);
  auto rows = [&](int threads) {
    trace::Tracer tracer;
    const ScopedHostThreads scope(threads);
    Device dev(DeviceModel::a100());
    dev.set_tracer(&tracer);
    sparse::SparseDirectSolver solver;
    solver.analyze(a);
    solver.factor(dev);
    solver.solve_report_many({rhs(a.rows(), 3), rhs(a.rows(), 4)});
    std::vector<std::tuple<int, int, int, int, double, double, double, double,
                           double, double>>
        out;
    for (const auto& r : tracer.launches())
      out.emplace_back(r.name_id, r.scope, r.stream, r.blocks, r.flops,
                       r.bytes, r.sim_start, r.sim_end, r.excl_seconds,
                       r.host_issue);
    dev.set_tracer(nullptr);
    return out;
  };
  const auto serial = rows(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, rows(kThreads));
}

TEST(HostThreadsIdentity, ServiceResponsesMatchOneThread) {
  auto run = [](int threads) {
    const ScopedHostThreads scope(threads);
    Device dev(DeviceModel::a100());
    service::ServiceOptions so;
    so.max_cached_patterns = 2;
    service::SolverService svc(dev, so);
    std::vector<double> bits;
    for (int round = 0; round < 3; ++round) {
      for (int t = 0; t < 4; ++t) {
        service::SolveRequest req;
        req.tenant = "t" + std::to_string(t);
        req.a = sparse::laplacian2d(8 + 2 * ((round + t) % 3), 9, -0.5 * t);
        req.b = rhs(req.a.rows(), static_cast<unsigned>(10 * round + t));
        if (t >= 2) req.precision = sparse::PrecisionPolicy::kF32;
        svc.submit(std::move(req));
      }
      for (const auto& resp : svc.flush())
        bits.insert(bits.end(), resp.report.x.begin(), resp.report.x.end());
    }
    return std::make_pair(bits, DeviceTrace(dev));
  };
  const auto serial = run(1);
  const auto parallel = run(kThreads);
  EXPECT_TRUE(same_bits(serial.first, parallel.first));
  EXPECT_EQ(serial.second, parallel.second);
}
