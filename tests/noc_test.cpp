#include <gtest/gtest.h>

#include <vector>

#include "noc/noc.h"
#include "sim/simulation.h"

namespace semperos {
namespace {

NocConfig SmallMesh() {
  NocConfig config;
  config.width = 4;
  config.height = 4;
  return config;
}

TEST(Noc, HopCountsAreManhattan) {
  Simulation sim;
  Noc noc(&sim, SmallMesh());
  EXPECT_EQ(noc.Hops(0, 0), 0u);
  EXPECT_EQ(noc.Hops(0, 3), 3u);    // same row
  EXPECT_EQ(noc.Hops(0, 12), 3u);   // same column
  EXPECT_EQ(noc.Hops(0, 15), 6u);   // opposite corner
  EXPECT_EQ(noc.Hops(5, 10), 2u);
  EXPECT_EQ(noc.Hops(10, 5), 2u);   // symmetric
}

TEST(Noc, UnloadedLatencyGrowsWithDistance) {
  Simulation sim;
  Noc noc(&sim, SmallMesh());
  Cycles near = noc.UnloadedLatency(0, 1, 64);
  Cycles far = noc.UnloadedLatency(0, 15, 64);
  EXPECT_LT(near, far);
}

TEST(Noc, UnloadedLatencyGrowsWithSize) {
  Simulation sim;
  Noc noc(&sim, SmallMesh());
  EXPECT_LT(noc.UnloadedLatency(0, 5, 64), noc.UnloadedLatency(0, 5, 4096));
}

TEST(Noc, DeliversAtPredictedTime) {
  Simulation sim;
  Noc noc(&sim, SmallMesh());
  Cycles delivered = 0;
  Cycles predicted = noc.Send(0, 15, 64, [&] { delivered = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(delivered, predicted);
  EXPECT_EQ(delivered, noc.UnloadedLatency(0, 15, 64));
}

TEST(Noc, LoopbackUsesLocalRouterOnly) {
  Simulation sim;
  Noc noc(&sim, SmallMesh());
  Cycles delivered = 0;
  noc.Send(3, 3, 64, [&] { delivered = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(delivered, Noc::kRouterLatency);
}

// The protocol precondition of paper §4.3.1: messages between a pair of
// nodes must arrive in send order.
TEST(Noc, PairwiseFifoOrder) {
  Simulation sim;
  Noc noc(&sim, SmallMesh());
  std::vector<int> arrivals;
  // Large first message, small second: with per-link FIFO the small one
  // must still arrive second.
  noc.Send(0, 15, 4096, [&] { arrivals.push_back(1); });
  noc.Send(0, 15, 16, [&] { arrivals.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(arrivals, (std::vector<int>{1, 2}));
}

TEST(Noc, PairwiseFifoOrderUnderCrossTraffic) {
  Simulation sim;
  Noc noc(&sim, SmallMesh());
  std::vector<int> arrivals;
  // Cross traffic shares links with the 0->15 route.
  for (int i = 0; i < 8; ++i) {
    noc.Send(1, 14, 1024, [] {});
  }
  noc.Send(0, 15, 2048, [&] { arrivals.push_back(1); });
  noc.Send(0, 15, 16, [&] { arrivals.push_back(2); });
  noc.Send(0, 15, 512, [&] { arrivals.push_back(3); });
  sim.RunUntilIdle();
  EXPECT_EQ(arrivals, (std::vector<int>{1, 2, 3}));
}

TEST(Noc, ContentionDelaysPackets) {
  Simulation sim;
  Noc noc(&sim, SmallMesh());
  Cycles lone = noc.UnloadedLatency(0, 3, 4096);
  // Saturate the shared row links first.
  for (int i = 0; i < 16; ++i) {
    noc.Send(0, 3, 4096, [] {});
  }
  Cycles delivered = 0;
  noc.Send(0, 3, 4096, [&] { delivered = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_GT(delivered, lone);
  EXPECT_GT(noc.stats().total_queueing, 0u);
}

TEST(Noc, ContentionCanBeDisabled) {
  Simulation sim;
  NocConfig config = SmallMesh();
  config.model_contention = false;
  Noc noc(&sim, config);
  for (int i = 0; i < 16; ++i) {
    noc.Send(0, 3, 4096, [] {});
  }
  Cycles delivered = 0;
  noc.Send(0, 3, 4096, [&] { delivered = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(delivered, noc.UnloadedLatency(0, 3, 4096));
  EXPECT_EQ(noc.stats().total_queueing, 0u);
}

TEST(Noc, StatsAccumulate) {
  Simulation sim;
  Noc noc(&sim, SmallMesh());
  noc.Send(0, 1, 100, [] {});
  noc.Send(1, 2, 200, [] {});
  sim.RunUntilIdle();
  EXPECT_EQ(noc.stats().packets, 2u);
  EXPECT_EQ(noc.stats().total_bytes, 300u);
  EXPECT_EQ(noc.stats().total_hops, 2u);
}

TEST(Noc, SerializationFloor) {
  Simulation sim;
  Noc noc(&sim, SmallMesh());
  // Tiny packets still pay the header-flit floor.
  Cycles lat_small = noc.UnloadedLatency(0, 1, 1);
  Cycles lat_floor =
      noc.UnloadedLatency(0, 1, Noc::kMinPacketCycles * Noc::kLinkBytesPerCycle);
  EXPECT_EQ(lat_small, lat_floor);
}

}  // namespace
}  // namespace semperos
