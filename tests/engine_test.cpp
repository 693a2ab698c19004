// Unit tests for the sharded parallel engine (sim/engine.h): window
// mechanics, deterministic cross-shard merging, driver-strand barriers, and
// the observability counters printed by `semperos_sim --stats`.
#include <gtest/gtest.h>

#include <string>

#include "system/experiment.h"
#include "system/platform.h"

namespace semperos {
namespace {

PlatformConfig SmallConfig(uint32_t threads) {
  PlatformConfig pc;
  pc.kernels = 4;
  pc.users = 8;
  pc.threads = threads;
  return pc;
}

TEST(EngineTest, SerialPlatformHasNoEngine) {
  Platform platform(SmallConfig(kForceSerialThreads));
  EXPECT_FALSE(platform.parallel());
}

TEST(EngineTest, ParallelPlatformBootsAndRuns) {
  Platform platform(SmallConfig(2));
  ASSERT_TRUE(platform.parallel());
  platform.Boot();
  platform.RunToCompletion();
  EXPECT_EQ(platform.TotalDrops(), 0u);
}

TEST(EngineTest, ObservabilityCountersAdvance) {
  // A booted multi-kernel platform exchanges HELLOs and service
  // announcements across groups, so windows, barriers and cross-shard
  // handoffs must all be non-zero, and every event lands on some shard.
  Platform platform(SmallConfig(4));
  ASSERT_TRUE(platform.parallel());
  platform.Boot();
  platform.RunToCompletion();

  const EngineStats& stats = platform.engine_stats();
  EXPECT_GT(stats.windows, 0u);
  EXPECT_GT(stats.handoffs, 0u);
  EXPECT_GT(stats.handoff_sends, 0u);
  EXPECT_EQ(stats.handoffs, stats.handoff_sends + stats.handoff_schedules);
  uint64_t shard_total = 0;
  for (uint64_t events : stats.shard_events) {
    shard_total += events;
  }
  EXPECT_GT(shard_total, 0u);
  // Shard events plus driver events account for every event the facade saw.
  EXPECT_EQ(shard_total + stats.driver_events, platform.sim().EventsRun());
  EXPECT_GE(stats.ImbalanceRatio(), 1.0);
}

TEST(EngineTest, DriverEventsCountArmedOrchestration) {
  // KillKernelAt schedules onto the driver strand; the kill must execute
  // as a driver event at an exact-time barrier.
  PlatformConfig pc = SmallConfig(2);
  Platform platform(pc);
  ASSERT_TRUE(platform.parallel());
  platform.Boot();
  platform.KillKernelAt(1, platform.sim().Now() + 50'000);
  platform.RunToCompletion();
  EXPECT_GE(platform.engine_stats().driver_events, 1u);
  EXPECT_TRUE(platform.kernel(1)->dead());
}

TEST(EngineTest, ThreadCountDoesNotChangeShardPartition) {
  // The shard partition (and therefore the modeled results) depends only on
  // the platform shape: events and makespan at 2 and 8 threads must match
  // exactly even though the worker pool differs.
  AppRunConfig config;
  config.app = "find";
  config.kernels = 4;
  config.services = 4;
  config.instances = 8;
  config.setup.threads = 2;
  AppRunResult two = RunApp(config);
  config.setup.threads = 8;
  AppRunResult eight = RunApp(config);
  EXPECT_EQ(two.events, eight.events);
  EXPECT_EQ(two.makespan, eight.makespan);
  EXPECT_EQ(two.total_cap_ops, eight.total_cap_ops);
}

TEST(EngineTest, SingleRowMeshFallsBackToSerial) {
  // A mesh with one row cannot be row-banded into >= 2 shards; the platform
  // must quietly keep the legacy engine rather than degenerate. Two nodes
  // (one kernel + one memory tile) lay out as a 2x1 mesh: height == 1.
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 0;
  pc.mem_tiles = 1;
  pc.threads = 4;
  Platform platform(pc);
  EXPECT_FALSE(platform.parallel()) << "height-1 mesh must stay on the serial engine";
  platform.Boot();
  platform.RunToCompletion();
  EXPECT_EQ(platform.TotalDrops(), 0u);
}

}  // namespace
}  // namespace semperos
