// Unit tests for the simulated device runtime: launch semantics, shared
// memory limits, stream timelines, the block scheduler against a
// brute-force reference, memory accounting, and the cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "trace/trace.hpp"

using irrlu::Error;
using namespace irrlu::gpusim;

TEST(DeviceModel, PresetsAreSane) {
  for (const auto& m : {DeviceModel::a100(), DeviceModel::mi100(),
                        DeviceModel::xeon6140x2(), DeviceModel::test_tiny()}) {
    EXPECT_GE(m.num_sms, 1) << m.name;
    EXPECT_GT(m.peak_flops_per_sm, 0) << m.name;
    EXPECT_GT(m.mem_bandwidth, 0) << m.name;
    EXPECT_LE(m.shared_mem_per_block, m.shared_mem_per_sm) << m.name;
  }
  // The paper's occupancy argument: MI100's 64 KB LDS is far smaller than
  // A100's 192 KB shared memory.
  EXPECT_LT(DeviceModel::mi100().shared_mem_per_block,
            DeviceModel::a100().shared_mem_per_block);
}

TEST(DeviceModel, BlockSecondsMonotone) {
  const auto m = DeviceModel::a100();
  EXPECT_LT(m.block_seconds(1e3, 1e3), m.block_seconds(1e6, 1e3));
  EXPECT_LT(m.block_seconds(1e3, 1e3), m.block_seconds(1e3, 1e6));
  EXPECT_EQ(m.block_seconds(0, 0), 0.0);
}

TEST(DeviceModel, OccupancyLimitedBySharedMemory) {
  const auto m = DeviceModel::a100();
  EXPECT_EQ(m.blocks_per_sm(0), m.max_blocks_per_sm);
  EXPECT_EQ(m.blocks_per_sm(m.shared_mem_per_sm), 1);
  EXPECT_EQ(m.blocks_per_sm(m.shared_mem_per_sm / 4), 4);
}

TEST(Device, LaunchExecutesAllBlocks) {
  Device dev(DeviceModel::test_tiny());
  std::vector<int> hits(10, 0);
  dev.launch(dev.stream(), {"mark", 10, 0},
             [&](BlockCtx& ctx) { hits[ctx.block()]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(dev.launch_count(), 1);
}

TEST(Device, EmptyGridAdvancesTime) {
  Device dev(DeviceModel::test_tiny());
  dev.launch(dev.stream(), {"empty", 0, 0}, [](BlockCtx&) { FAIL(); });
  EXPECT_GT(dev.synchronize_all(), 0.0);
}

TEST(Device, SharedMemoryWithinBudget) {
  Device dev(DeviceModel::test_tiny());
  dev.launch(dev.stream(), {"smem", 1, 1024}, [&](BlockCtx& ctx) {
    double* w = ctx.smem_alloc<double>(128);  // exactly 1024 bytes
    w[0] = 1.0;
    w[127] = 2.0;
    EXPECT_EQ(w[0] + w[127], 3.0);
  });
}

TEST(Device, SharedMemoryOverflowThrows) {
  Device dev(DeviceModel::test_tiny());
  EXPECT_THROW(dev.launch(dev.stream(), {"smem_over", 1, 64},
                          [&](BlockCtx& ctx) {
                            ctx.smem_alloc<double>(9);  // 72 > 64 bytes
                          }),
               Error);
}

TEST(Device, DeclaringMoreThanHardwareThrows) {
  Device dev(DeviceModel::test_tiny());
  const auto limit = dev.model().shared_mem_per_block;
  EXPECT_THROW(
      dev.launch(dev.stream(), {"too_big", 1, limit + 1}, [](BlockCtx&) {}),
      Error);
}

TEST(Device, StreamOrderingAccumulatesTime) {
  Device dev(DeviceModel::test_tiny());
  auto& s = dev.stream();
  dev.launch(s, {"k1", 1, 0}, [](BlockCtx& c) { c.record(1e6, 0); });
  const double t1 = s.completion_time();
  dev.launch(s, {"k2", 1, 0}, [](BlockCtx& c) { c.record(1e6, 0); });
  const double t2 = s.completion_time();
  EXPECT_GT(t1, 0.0);
  EXPECT_GT(t2, t1 + 0.9e-3);  // 1e6 flops at 1 GF/s ~ 1 ms
}

TEST(Device, IndependentStreamsOverlap) {
  // Two 1-block kernels in different streams should overlap on a 2-SM
  // device: makespan well below 2x the serial time.
  auto run = [](int nstreams) {
    Device dev(DeviceModel::test_tiny());
    for (int i = 0; i < 2; ++i)
      dev.launch(dev.stream(nstreams == 1 ? 0 : i), {"k", 1, 0},
                 [](BlockCtx& c) { c.record(1e7, 0); });
    return dev.synchronize_all();
  };
  const double serial = run(1);
  const double parallel = run(2);
  EXPECT_LT(parallel, 0.6 * serial);
}

TEST(Device, MoreBlocksThanSlotsSerializes) {
  // test_tiny has 2 SMs x 4 slots = 8 slots; 32 equal blocks need 4 waves.
  Device dev(DeviceModel::test_tiny());
  dev.launch(dev.stream(), {"w", 8, 0},
             [](BlockCtx& c) { c.record(1e7, 0); });
  const double one_wave = dev.synchronize_all();
  dev.reset_timeline();
  dev.launch(dev.stream(), {"w", 32, 0},
             [](BlockCtx& c) { c.record(1e7, 0); });
  const double four_waves = dev.synchronize_all();
  EXPECT_GT(four_waves, 3.0 * one_wave);
  EXPECT_LT(four_waves, 5.0 * one_wave);
}

TEST(Device, OccupancyReducedBySharedMemory) {
  // With smem = shared_mem_per_sm, only 1 block fits per SM: 8 blocks on
  // 2 SMs take ~4 rounds instead of 1.
  Device dev(DeviceModel::test_tiny());
  const auto smem = dev.model().shared_mem_per_block;  // 4 KB = full SM/2
  dev.launch(dev.stream(), {"occ", 8, 0},
             [](BlockCtx& c) { c.record(1e7, 0); });
  const double full_occ = dev.synchronize_all();
  dev.reset_timeline();
  dev.launch(dev.stream(), {"occ_smem", 8, smem},
             [](BlockCtx& c) { c.record(1e7, 0); });
  const double low_occ = dev.synchronize_all();
  EXPECT_GT(low_occ, 1.5 * full_occ);
}

TEST(Device, HostDispatchSerializesManySmallLaunches) {
  // The Fig-10 phenomenon in miniature: 100 tiny kernels across 16 streams
  // cannot run faster than 100 dispatch overheads.
  Device dev(DeviceModel::test_tiny());
  for (int i = 0; i < 100; ++i)
    dev.launch(dev.stream(i % 16), {"tiny", 1, 0},
               [](BlockCtx& c) { c.record(10, 10); });
  const double t = dev.synchronize_all();
  EXPECT_GE(t, 100 * dev.model().host_dispatch_overhead);
}

TEST(Device, ProfileAggregatesPerKernel) {
  Device dev(DeviceModel::test_tiny());
  for (int i = 0; i < 3; ++i)
    dev.launch(dev.stream(), {"a", 2, 0},
               [](BlockCtx& c) { c.record(100, 200); });
  dev.launch(dev.stream(), {"b", 1, 0}, [](BlockCtx& c) { c.record(5, 5); });
  const auto& prof = dev.profile();
  ASSERT_EQ(prof.count("a"), 1u);
  EXPECT_EQ(prof.at("a").launches, 3);
  EXPECT_EQ(prof.at("a").blocks, 6);
  EXPECT_DOUBLE_EQ(prof.at("a").flops, 600.0);
  EXPECT_DOUBLE_EQ(prof.at("b").bytes, 5.0);
}

TEST(Device, SyncAccounting) {
  Device dev(DeviceModel::test_tiny());
  dev.launch(dev.stream(), {"k", 1, 0}, [](BlockCtx& c) { c.record(1e6, 0); });
  dev.synchronize(dev.stream());
  EXPECT_EQ(dev.sync_count(), 1);
  EXPECT_GT(dev.sync_wait_seconds(), 0.0);
}

TEST(Device, ResetTimelineClearsClockButNotMemory) {
  Device dev(DeviceModel::test_tiny());
  auto buf = dev.alloc<double>(16);
  buf[0] = 42.0;
  dev.launch(dev.stream(), {"k", 1, 0}, [](BlockCtx& c) { c.record(1e6, 0); });
  dev.synchronize_all();
  dev.reset_timeline();
  EXPECT_EQ(dev.host_time(), 0.0);
  EXPECT_EQ(dev.launch_count(), 0);
  EXPECT_EQ(buf[0], 42.0);
}

TEST(Device, MemoryAccounting) {
  Device dev(DeviceModel::test_tiny());
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  {
    auto a = dev.alloc<double>(100);
    EXPECT_EQ(dev.bytes_in_use(), 800u);
    {
      auto b = dev.alloc<int>(25);
      EXPECT_EQ(dev.bytes_in_use(), 900u);
    }
    EXPECT_EQ(dev.bytes_in_use(), 800u);
  }
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  EXPECT_EQ(dev.peak_bytes(), 900u);
}

TEST(DeviceBuffer, MoveTransfersOwnership) {
  Device dev(DeviceModel::test_tiny());
  auto a = dev.alloc<int>(4);
  a[0] = 7;
  auto b = std::move(a);
  EXPECT_EQ(b[0], 7);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(dev.bytes_in_use(), 16u);
}

TEST(Device, LoadImbalanceDominatesMakespan) {
  // One huge block among many tiny ones pins the kernel end time — the
  // irregular-batch load-balance effect central to the paper.
  Device dev(DeviceModel::test_tiny());
  dev.launch(dev.stream(), {"imb", 64, 0}, [](BlockCtx& c) {
    c.record(c.block() == 0 ? 1e9 : 1e3, 0);
  });
  const double t = dev.synchronize_all();
  EXPECT_GT(t, 1.0);  // dominated by the 1e9-flop block at 1 GF/s
  EXPECT_LT(t, 1.5);
}

TEST(DeviceModel, IntelPresetSane) {
  const auto m = DeviceModel::max1550();
  EXPECT_GT(m.peak_flops_per_sm * m.num_sms, 9.7e12);  // above the A100
  EXPECT_GT(m.mem_bandwidth, DeviceModel::a100().mem_bandwidth);
  EXPECT_LE(m.shared_mem_per_block, m.shared_mem_per_sm);
}

TEST(Device, TimelineIsDeterministic) {
  // Replaying the same launch program yields bit-identical simulated time
  // (prerequisite for comparing simulated timings across runs).
  auto run = [] {
    Device dev(DeviceModel::a100());
    for (int i = 0; i < 20; ++i)
      dev.launch(dev.stream(i % 3), {"k", 5 + i, 1024},
                 [&](BlockCtx& c) { c.record(1e5 * (1 + c.block()), 3e4); });
    return dev.synchronize_all();
  };
  EXPECT_EQ(run(), run());
}

TEST(BlockCtx, SharedMemoryAllocationsAreAligned) {
  Device dev(DeviceModel::test_tiny());
  dev.launch(dev.stream(), {"align", 1, 256}, [](BlockCtx& ctx) {
    char* a = ctx.smem_alloc<char>(3);
    double* b = ctx.smem_alloc<double>(4);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(double), 0u);
    a[0] = 1;
    b[0] = 2.0;
    EXPECT_GT(reinterpret_cast<char*>(b), a);
  });
}

TEST(Device, BandwidthShareCappedPerBlock) {
  const auto m = DeviceModel::a100();
  EXPECT_DOUBLE_EQ(m.bandwidth_share(1), m.max_sm_bandwidth);
  EXPECT_LT(m.bandwidth_share(2000), m.max_sm_bandwidth);
  EXPECT_NEAR(m.bandwidth_share(2000) * 2000, m.mem_bandwidth, 1.0);
}

TEST(Device, AllocationCostsSimulatedTime) {
  Device dev(DeviceModel::a100());
  const double t0 = dev.host_time();
  auto buf = dev.alloc<double>(1000);
  EXPECT_GE(dev.host_time() - t0, dev.model().alloc_overhead * 0.99);
}

TEST(Device, AllocZeroElementsIsEmptyNoop) {
  // A zero-count alloc yields a valid empty buffer without touching the
  // arena or the simulated clock (no cudaMalloc analogue is issued).
  Device dev(DeviceModel::a100());
  const double t0 = dev.host_time();
  auto buf = dev.alloc<double>(0);
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  EXPECT_EQ(dev.peak_bytes(), 0u);
  EXPECT_EQ(dev.host_time(), t0);
  buf.release();  // releasing an empty buffer is a no-op too
  EXPECT_EQ(dev.bytes_in_use(), 0u);
}

TEST(DeviceBuffer, MoveAssignReleasesOldExactlyOnce) {
  Device dev(DeviceModel::test_tiny());
  auto a = dev.alloc<double>(100);  // 800 B
  auto b = dev.alloc<double>(50);   // 400 B
  a[0] = 3.5;
  EXPECT_EQ(dev.bytes_in_use(), 1200u);
  b = std::move(a);  // must free b's old 400 B exactly once
  EXPECT_EQ(dev.bytes_in_use(), 800u);
  EXPECT_EQ(b[0], 3.5);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
  b.release();
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  b.release();  // double release is a no-op, not a double free
  EXPECT_EQ(dev.bytes_in_use(), 0u);
}

TEST(DeviceBuffer, SelfMoveAssignIsNoop) {
  Device dev(DeviceModel::test_tiny());
  auto a = dev.alloc<int>(8);
  a[0] = 11;
  auto& alias = a;  // via an alias so -Wself-move stays quiet
  a = std::move(alias);
  EXPECT_EQ(a[0], 11);
  EXPECT_EQ(dev.bytes_in_use(), 32u);
}

TEST(Device, PeakTracksInterleavedAllocFree) {
  // peak_bytes is the lifetime high-water mark; window_peak_bytes rebases
  // at reset_peak_window() so a later phase can be measured in isolation.
  Device dev(DeviceModel::test_tiny());
  auto a = dev.alloc<char>(1000);
  {
    auto b = dev.alloc<char>(500);
    EXPECT_EQ(dev.peak_bytes(), 1500u);
  }
  {
    auto c = dev.alloc<char>(200);  // 1200 live: below the 1500 peak
    EXPECT_EQ(dev.peak_bytes(), 1500u);
    EXPECT_EQ(dev.bytes_in_use(), 1200u);
  }
  dev.reset_peak_window();  // window starts at the current 1000 B
  EXPECT_EQ(dev.window_peak_bytes(), 1000u);
  {
    auto d = dev.alloc<char>(300);
    EXPECT_EQ(dev.window_peak_bytes(), 1300u);
  }
  auto e = dev.alloc<char>(100);  // 1100 live: window peak stays 1300
  EXPECT_EQ(dev.window_peak_bytes(), 1300u);
  EXPECT_EQ(dev.peak_bytes(), 1500u);  // lifetime peak unaffected
}

TEST(Device, SharedMemoryOverflowMessageIsActionable) {
  Device dev(DeviceModel::test_tiny());
  try {
    dev.launch(dev.stream(), {"smem_msg", 1, 64}, [&](BlockCtx& ctx) {
      ctx.smem_alloc<double>(9);  // needs 72 B against a 64 B budget
    });
    FAIL() << "expected shared-memory overflow";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("shared memory overflow"), std::string::npos) << msg;
    EXPECT_NE(msg.find("64"), std::string::npos) << msg;  // declared budget
    EXPECT_NE(msg.find("72"), std::string::npos) << msg;  // required bytes
  }
}

TEST(BlockCtx, SmemAlignmentPaddingCountsTowardCapacity) {
  // Each smem_alloc rounds its offset up to alignof(std::max_align_t);
  // the padding is real capacity. A 1-byte allocation followed by an
  // 8-byte one needs align + 8 bytes, not 9.
  Device dev(DeviceModel::test_tiny());
  constexpr std::size_t align = alignof(std::max_align_t);
  dev.launch(dev.stream(), {"smem_pad_ok", 1, align + 8}, [](BlockCtx& ctx) {
    ctx.smem_alloc<char>(1);
    double* d = ctx.smem_alloc<double>(1);  // offset rounds up to `align`
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  });
  EXPECT_THROW(
      dev.launch(dev.stream(), {"smem_pad_over", 1, align + 7},
                 [](BlockCtx& ctx) {
                   ctx.smem_alloc<char>(1);
                   ctx.smem_alloc<double>(1);  // align + 8 > align + 7
                 }),
      Error);
}

// ------------------------------------------------------------ scheduler
//
// end_launch list-schedules every block onto the slot with the least
// (free time, index) among the occupancy-limited prefix of SM slots,
// through a tournament tree. The reference replays the same timing model
// with a full argmin scan over the eligible slots; each launch's first
// block start and end must agree bit for bit.

namespace {

/// Brute-force replay of a Device's launch timeline (host dispatch, two
/// stream cursors, SM slots) for programs of launches and resets only.
class ReferenceTimeline {
 public:
  explicit ReferenceTimeline(const DeviceModel& m) : m_(m) { reset(); }

  void reset() {
    host_ = 0;
    slot_free_.assign(static_cast<std::size_t>(m_.num_sms) *
                          static_cast<std::size_t>(m_.max_blocks_per_sm),
                      0.0);
    cursor_.assign(2, 0.0);
  }

  /// Returns (first block's start, end) of one launch.
  std::pair<double, double> launch(
      int stream, std::size_t smem,
      const std::vector<std::pair<double, double>>& costs) {
    host_ += m_.host_dispatch_overhead;
    double& cursor = cursor_[static_cast<std::size_t>(stream)];
    const double earliest = std::max(host_ + m_.device_launch_latency, cursor);
    const std::size_t eligible = static_cast<std::size_t>(m_.num_sms) *
                                 static_cast<std::size_t>(m_.blocks_per_sm(smem));
    double first = earliest, end = earliest;
    if (!costs.empty()) {
      const double bw = m_.bandwidth_share(
          static_cast<int>(std::min(eligible, costs.size())));
      for (std::size_t b = 0; b < costs.size(); ++b) {
        std::size_t best = 0;  // strict < keeps the lowest index on ties
        for (std::size_t i = 1; i < eligible; ++i)
          if (slot_free_[i] < slot_free_[best]) best = i;
        const double start = std::max(slot_free_[best], earliest);
        if (b == 0) first = start;
        const double done =
            start + m_.block_start_overhead +
            m_.block_seconds(costs[b].first, costs[b].second, bw);
        slot_free_[best] = done;
        end = std::max(end, done);
      }
    }
    cursor = end;
    return {first, end};
  }

 private:
  DeviceModel m_;
  double host_ = 0;
  std::vector<double> slot_free_, cursor_;
};

/// Launches one grid per entry of `grids` on a Device and on the
/// reference, on a random one of two streams, with a random shared-memory
/// declaration from `smems` and random block costs (every third launch
/// gives all blocks one cost, so free times tie), resetting both
/// timelines before about one launch in eight.
void expect_schedule_matches_reference(const DeviceModel& m,
                                       const std::vector<int>& grids,
                                       const std::vector<std::size_t>& smems,
                                       std::uint64_t seed) {
  irrlu::Rng rng(seed);
  Device dev(m);
  irrlu::trace::Tracer tracer;
  dev.set_tracer(&tracer);
  ReferenceTimeline ref(m);
  std::vector<std::pair<double, double>> costs;
  for (std::size_t k = 0; k < grids.size(); ++k) {
    SCOPED_TRACE("launch " + std::to_string(k) + " of " +
                 std::to_string(grids[k]) + " blocks");
    if (rng.uniform_int(0, 7) == 0) {
      dev.reset_timeline();
      ref.reset();
    }
    const int stream = rng.uniform_int(0, 1);
    const std::size_t smem =
        smems[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(smems.size()) - 1))];
    const bool uniform = k % 3 == 0;
    const std::pair<double, double> one{1e5 * rng.uniform_int(1, 4), 2e4};
    costs.clear();
    for (int b = 0; b < grids[k]; ++b)
      costs.push_back(uniform ? one
                              : std::make_pair(1e5 * rng.uniform_int(1, 40),
                                               rng.uniform(0.0, 5e4)));
    dev.launch(dev.stream(stream), {"sched", grids[k], smem},
               [&](BlockCtx& c) {
                 const auto& [flops, bytes] =
                     costs[static_cast<std::size_t>(c.block())];
                 c.record(flops, bytes);
               });
    const auto [first, end] = ref.launch(stream, smem, costs);
    ASSERT_EQ(tracer.launches().size(), k + 1);
    const irrlu::trace::LaunchRecord& r = tracer.launches().back();
    ASSERT_EQ(r.sim_start, first);
    ASSERT_EQ(r.sim_end, end);
    ASSERT_EQ(dev.stream(stream).completion_time(), end);
  }
  dev.set_tracer(nullptr);
}

}  // namespace

TEST(Scheduler, MatchesBruteForceOnA100) {
  // 108 SMs x 32 = 3,456 slots, padded to 4,096 leaves; grids past the
  // slot count, and declarations that cut occupancy to 7, 3 and 1 per SM.
  const DeviceModel m = DeviceModel::a100();
  const std::size_t sm = m.shared_mem_per_sm;
  expect_schedule_matches_reference(
      m, {0, 1, 2, 31, 3455, 3456, 3457, 5000, 0, 700, 4999, 1, 64, 2500},
      {0, sm / 64, sm / 7, sm / 3, m.shared_mem_per_block}, 1);
}

TEST(Scheduler, MatchesBruteForceOnSmallDevices) {
  irrlu::Rng rng(5);
  std::vector<int> grids;
  for (int k = 0; k < 300; ++k)
    grids.push_back(k % 25 == 0 ? 0 : rng.uniform_int(1, 120));
  // 7 SMs x 5 = 35 slots (29 padding leaves); 8 KB fits 1 block per SM,
  // 6 KB 2, 4 KB 3, 3 KB 4, 2 KB and none all 5.
  DeviceModel m = DeviceModel::test_tiny();
  m.num_sms = 7;
  m.max_blocks_per_sm = 5;
  m.shared_mem_per_block = 8 << 10;
  m.shared_mem_per_sm = 12 << 10;
  expect_schedule_matches_reference(
      m, grids, {0, 2 << 10, 3 << 10, 4 << 10, 6 << 10, 8 << 10}, 2);
  // One slot: the tree is a single leaf.
  m.num_sms = 1;
  m.max_blocks_per_sm = 1;
  expect_schedule_matches_reference(m, grids, {0, 8 << 10}, 3);
  // A power-of-two slot count: no padding.
  m.num_sms = 4;
  m.max_blocks_per_sm = 4;
  expect_schedule_matches_reference(m, grids, {0, 3 << 10, 6 << 10}, 4);
}
