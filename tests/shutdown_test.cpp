// Kernel shutdown (IKC functional group 1, paper §4.1).
#include <gtest/gtest.h>

#include "system/client.h"

namespace semperos {
namespace {

TEST(Shutdown, SingleKernelTeardown) {
  DriverRig rig = MakeDriverRig(1, 3);
  for (size_t i = 0; i < 3; ++i) {
    rig.Grant(i, 4096);
  }
  bool down = false;
  rig.p().kernel(0)->AdminShutdown([&] { down = true; });
  rig.p().RunToCompletion();
  EXPECT_TRUE(down);
  EXPECT_TRUE(rig.p().kernel(0)->shutting_down());
  // Every VPE's capabilities are gone.
  for (size_t i = 0; i < 3; ++i) {
    const VpeState* vpe = rig.p().kernel(0)->FindVpe(rig.vpe(i));
    ASSERT_NE(vpe, nullptr);
    EXPECT_FALSE(vpe->alive);
    EXPECT_EQ(vpe->table.size(), 0u);
  }
  EXPECT_EQ(rig.p().kernel(0)->caps().size(), 0u);
}

TEST(Shutdown, SyscallsRejectedAfterShutdown) {
  DriverRig rig = MakeDriverRig(1, 2);
  CapSel sel = rig.Grant(0, 4096);
  rig.p().kernel(0)->AdminShutdown(nullptr);
  rig.p().RunToCompletion();
  // The VPE was torn down with its group, so a straggler syscall gets no
  // reply (the kernel just frees the slot) and mutates nothing.
  bool replied = false;
  rig.client(1).env().Revoke(sel, [&](const SyscallReply&) { replied = true; });
  rig.p().RunToCompletion();
  EXPECT_FALSE(replied);
  EXPECT_EQ(rig.p().kernel(0)->caps().size(), 0u);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(Shutdown, RemoteCopiesRevokedOnShutdown) {
  // A group shutting down pulls back every capability it delegated into
  // other groups.
  DriverRig rig = MakeDriverRig(2, 4);
  size_t owner = rig.client_in_kernel(0, 0);
  size_t remote = rig.client_in_kernel(1, 0);
  CapSel sel = rig.Grant(owner, 4096);
  rig.client(owner).env().Delegate(sel, rig.vpe(remote), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  Kernel* k1 = rig.kernel_of_client(remote);
  size_t k1_before = k1->caps().size();

  bool down = false;
  rig.kernel_of_client(owner)->AdminShutdown([&] { down = true; });
  rig.p().RunToCompletion();
  EXPECT_TRUE(down);
  EXPECT_EQ(k1->caps().size(), k1_before - 1);  // the delegated copy is gone
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(Shutdown, PeersDropTheDownedKernelsServices) {
  // After a shutdown announcement, peers no longer route sessions to the
  // downed group's services.
  DriverRig rig = MakeDriverRig(2, 2);
  rig.p().kernel(0)->AdminShutdown(nullptr);
  rig.p().RunToCompletion();
  // Kernel 1 learned about it; opening a session to a (nonexistent anyway)
  // service still fails cleanly, and no traffic goes to kernel 0.
  size_t c1 = rig.client_in_kernel(1, 0);
  SyscallReply got;
  rig.client(c1).env().OpenSession("m3fs", [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchService);
}

TEST(Shutdown, BothKernelsCanShutDown) {
  DriverRig rig = MakeDriverRig(2, 2);
  int down = 0;
  rig.p().kernel(0)->AdminShutdown([&] { down++; });
  rig.p().RunToCompletion();
  rig.p().kernel(1)->AdminShutdown([&] { down++; });
  rig.p().RunToCompletion();
  EXPECT_EQ(down, 2);
  EXPECT_EQ(rig.p().kernel(0)->caps().size(), 0u);
  EXPECT_EQ(rig.p().kernel(1)->caps().size(), 0u);
}

}  // namespace
}  // namespace semperos
