// Boot, membership, and basic platform wiring.
#include <gtest/gtest.h>

#include "system/platform.h"

namespace semperos {
namespace {

TEST(Boot, SingleKernelBoots) {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 2;
  Platform platform(pc);
  platform.Boot();
  EXPECT_TRUE(platform.kernel(0)->booted());
}

TEST(Boot, ManyKernelsHandshake) {
  PlatformConfig pc;
  pc.kernels = 8;
  pc.users = 16;
  Platform platform(pc);
  platform.Boot();
  for (KernelId k = 0; k < 8; ++k) {
    EXPECT_TRUE(platform.kernel(k)->booted());
  }
  // 8 kernels exchange hellos pairwise: 8*7 messages (plus replies).
  KernelStats stats = platform.TotalKernelStats();
  EXPECT_EQ(stats.ikc_sent, 8u * 7u);
  EXPECT_EQ(stats.ikc_received, 8u * 7u);
}

TEST(Boot, MaxKernelCountBoots) {
  PlatformConfig pc;
  pc.kernels = 64;  // the architectural maximum (paper §5.1)
  Platform platform(pc);
  platform.Boot();
  for (KernelId k = 0; k < 64; ++k) {
    EXPECT_TRUE(platform.kernel(k)->booted());
  }
  EXPECT_EQ(platform.TotalDrops(), 0u);
}

TEST(Boot, UsersAreSpreadRoundRobin) {
  PlatformConfig pc;
  pc.kernels = 4;
  pc.users = 10;
  Platform platform(pc);
  // 10 users over 4 kernels: groups of 3,3,2,2.
  const MembershipTable& m = platform.membership();
  int counts[4] = {0, 0, 0, 0};
  for (NodeId node : platform.user_nodes()) {
    counts[m.KernelOf(node)]++;
  }
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 3);
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(counts[3], 2);
}

TEST(Boot, EveryVpeRegisteredWithItsKernel) {
  PlatformConfig pc;
  pc.kernels = 4;
  pc.services = 4;
  pc.users = 8;
  Platform platform(pc);
  for (NodeId node : platform.user_nodes()) {
    const VpeState* vpe = platform.kernel_of(node)->FindVpe(node);
    ASSERT_NE(vpe, nullptr);
    EXPECT_TRUE(vpe->alive);
    EXPECT_FALSE(vpe->is_service);
  }
  for (NodeId node : platform.service_nodes()) {
    const VpeState* vpe = platform.kernel_of(node)->FindVpe(node);
    ASSERT_NE(vpe, nullptr);
    EXPECT_TRUE(vpe->is_service);
  }
}

TEST(Boot, VpesStartWithSelfCapability) {
  PlatformConfig pc;
  pc.kernels = 2;
  pc.users = 4;
  Platform platform(pc);
  for (NodeId node : platform.user_nodes()) {
    const VpeState* vpe = platform.kernel_of(node)->FindVpe(node);
    ASSERT_NE(vpe, nullptr);
    EXPECT_EQ(vpe->table.size(), 1u);  // the VPE capability
  }
}

TEST(Boot, DowngradeAfterBoot) {
  PlatformConfig pc;
  pc.kernels = 2;
  pc.users = 4;
  Platform platform(pc);
  platform.Boot();
  for (NodeId node : platform.user_nodes()) {
    EXPECT_FALSE(platform.pe(node)->dtu().privileged());
  }
  for (KernelId k = 0; k < 2; ++k) {
    EXPECT_TRUE(platform.pe(platform.kernel_node(k))->dtu().privileged());
  }
}

TEST(Boot, ThreadPoolSizedPerEquationOne) {
  PlatformConfig pc;
  pc.kernels = 4;
  pc.users = 12;
  Platform platform(pc);
  // V_group + K_max * M_inflight (Eq. 1): 3 VPEs + 4 kernels * 4.
  EXPECT_EQ(Kernel::kMaxInflight, 4u);
  EXPECT_EQ(platform.kernel(0)->ThreadPoolSize(), 3u + 4u * Kernel::kMaxInflight);
}

TEST(Boot, M3ModeIsSingleKernel) {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 4;
  pc.timing = TimingModel::M3();
  Platform platform(pc);
  platform.Boot();
  EXPECT_TRUE(platform.kernel(0)->booted());
}

TEST(Boot, MembershipCoversWholeMesh) {
  PlatformConfig pc;
  pc.kernels = 3;
  pc.users = 5;
  pc.mem_tiles = 2;
  Platform platform(pc);
  const MembershipTable& m = platform.membership();
  for (NodeId node = 0; node < platform.pe_count(); ++node) {
    EXPECT_NE(m.KernelOf(node), kInvalidKernel);
  }
}

}  // namespace
}  // namespace semperos
