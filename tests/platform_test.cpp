// Platform layout and mesh-shape edge cases.
#include <gtest/gtest.h>

#include "noc/noc.h"
#include "system/client.h"
#include "system/platform.h"

namespace semperos {
namespace {

TEST(Layout, PaperScaleConfiguration) {
  // The headline configuration: 512 apps + 32 kernels + 32 services = 576
  // cores, "11% of the system's cores for OS services".
  PlatformConfig pc;
  pc.kernels = 32;
  pc.services = 32;
  pc.users = 512;
  Platform platform(pc);
  EXPECT_EQ(platform.user_nodes().size(), 512u);
  EXPECT_EQ(platform.service_nodes().size(), 32u);
  double os_share = 64.0 / 576.0;
  EXPECT_NEAR(os_share, 0.111, 0.001);
  // Every group has exactly one service and sixteen users.
  for (KernelId k = 0; k < 32; ++k) {
    uint32_t users = 0;
    uint32_t services = 0;
    for (NodeId node : platform.user_nodes()) {
      users += platform.membership().KernelOf(node) == k;
    }
    for (NodeId node : platform.service_nodes()) {
      services += platform.membership().KernelOf(node) == k;
    }
    EXPECT_EQ(users, 16u);
    EXPECT_EQ(services, 1u);
  }
}

TEST(Layout, GroupsAreContiguousInMeshOrder) {
  PlatformConfig pc;
  pc.kernels = 4;
  pc.services = 4;
  pc.users = 16;
  Platform platform(pc);
  // Walking node ids, the kernel assignment changes at most `kernels` times
  // (plus the trailing memory-tile region owned by kernel 0).
  KernelId last = platform.membership().KernelOf(0);
  uint32_t changes = 0;
  for (NodeId node = 1; node < platform.pe_count(); ++node) {
    KernelId k = platform.membership().KernelOf(node);
    if (k != last) {
      changes++;
      last = k;
    }
  }
  EXPECT_LE(changes, 4u);
}

TEST(Layout, KernelsNearTheirGroups) {
  PlatformConfig pc;
  pc.kernels = 4;
  pc.users = 32;
  Platform platform(pc);
  // Every user's NoC distance to its own kernel is below the mesh diameter.
  uint32_t diameter = platform.noc().config().width + platform.noc().config().height - 2;
  for (NodeId node : platform.user_nodes()) {
    KernelId k = platform.membership().KernelOf(node);
    uint32_t hops = platform.noc().Hops(node, platform.kernel_node(k));
    EXPECT_LT(hops, diameter);
  }
}

TEST(Layout, LoadgensJoinGroupsLikeUsers) {
  PlatformConfig pc;
  pc.kernels = 2;
  pc.users = 4;
  pc.loadgens = 4;
  Platform platform(pc);
  EXPECT_EQ(platform.loadgen_nodes().size(), 4u);
  for (NodeId node : platform.loadgen_nodes()) {
    EXPECT_NE(platform.membership().KernelOf(node), kInvalidKernel);
    EXPECT_EQ(platform.pe(node)->type(), PeType::kLoadGen);
  }
}

TEST(Layout, RectangularMeshWhenNotSquare) {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 4;  // 1 + 4 + 1 mem = 6 -> 3x2 mesh
  Platform platform(pc);
  const NocConfig& noc = platform.noc().config();
  EXPECT_EQ(noc.width * noc.height, platform.pe_count());
  EXPECT_GE(noc.width * noc.height, 6u);
}

TEST(Layout, MaximumScalePlatformBoots) {
  // 640 cores — the full gem5 system of §5.1.
  PlatformConfig pc;
  pc.kernels = 64;
  pc.services = 64;
  pc.users = 512;
  Platform platform(pc);
  platform.Boot();
  for (KernelId k = 0; k < 64; ++k) {
    EXPECT_TRUE(platform.kernel(k)->booted());
  }
  EXPECT_EQ(platform.TotalDrops(), 0u);
}

TEST(Layout, VpeLimitPerKernelEnforced) {
  // 6 syscall EPs x 32 slots = 192 VPEs per kernel; one more dies.
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 193;
  EXPECT_DEATH(Platform platform(pc), "192 VPEs");
}

TEST(Layout, M3ModeRequiresOneKernel) {
  EXPECT_DEATH(MakeDriverRig(2, 2, KernelMode::kM3SingleKernel), "one kernel");
}

TEST(Layout, KernelCapArchitectural) {
  PlatformConfig pc;
  pc.kernels = 65;  // > 8 EPs x 32 slots / 4 in-flight
  EXPECT_DEATH(Platform platform(pc), "");
}

// PlatformConfig::threads, Platform::parallel() and engine_stats() are
// inert names that a benchmark driver still compiles against: a multi-row
// platform built with threads = 4 runs a spanning revocation tree to the
// same events, final clock and NoC totals as one built with threads = 1.
TEST(Layout, ThreadsFieldChangesNothing) {
  struct Run {
    uint64_t events;
    Cycles end;
    NocStats noc;
  };
  auto run = [](uint32_t threads) {
    PlatformConfig pc;
    pc.kernels = 4;
    pc.users = 8;
    pc.threads = threads;
    DriverRig rig = MakeDriverRig(pc);
    Platform& p = rig.p();
    EXPECT_GE(p.noc().config().height, 2u);
    EXPECT_FALSE(p.parallel());
    EXPECT_EQ(p.engine_stats().windows, 0u);
    rig.TimedRevoke(0, rig.BuildTree(7));
    return Run{p.sim().EventsRun(), p.sim().Now(), p.noc().stats()};
  };
  Run one = run(1);
  Run four = run(4);
  EXPECT_GT(one.noc.packets, 0u);
  EXPECT_EQ(four.events, one.events);
  EXPECT_EQ(four.end, one.end);
  EXPECT_EQ(four.noc.packets, one.noc.packets);
  EXPECT_EQ(four.noc.total_bytes, one.noc.total_bytes);
  EXPECT_EQ(four.noc.total_hops, one.noc.total_hops);
  EXPECT_EQ(four.noc.total_latency, one.noc.total_latency);
  EXPECT_EQ(four.noc.total_queueing, one.noc.total_queueing);
}

}  // namespace
}  // namespace semperos
