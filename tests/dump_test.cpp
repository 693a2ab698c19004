// Kernel capability-forest dump (introspection/debugging aid).
#include <gtest/gtest.h>

#include "system/client.h"

namespace semperos {
namespace {

TEST(DumpCaps, ShowsVpesAndCapabilities) {
  DriverRig rig = MakeDriverRig(1, 2);
  CapSel sel = rig.Grant(0, 4096);
  (void)sel;
  std::string dump = rig.p().kernel(0)->DumpCaps();
  EXPECT_NE(dump.find("kernel 0"), std::string::npos);
  EXPECT_NE(dump.find("2 VPEs"), std::string::npos);
  EXPECT_NE(dump.find("mem"), std::string::npos);
  EXPECT_NE(dump.find("vpe"), std::string::npos);
}

TEST(DumpCaps, ShowsCrossKernelEdges) {
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel sel = rig.Grant(0, 4096);
  rig.client(0).env().Delegate(sel, rig.vpe(1), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  std::string owner_dump = rig.kernel_of_client(0)->DumpCaps();
  std::string holder_dump = rig.kernel_of_client(1)->DumpCaps();
  // The owner lists a child on kernel 1; the holder's copy names a parent
  // on kernel 0.
  EXPECT_NE(owner_dump.find("children=[k1]"), std::string::npos) << owner_dump;
  EXPECT_NE(holder_dump.find("parent@k0"), std::string::npos) << holder_dump;
}

TEST(DumpCaps, ShowsDeadVpesAndActivation) {
  DriverRig rig = MakeDriverRig(1, 2);
  CapSel owner_sel = rig.Grant(1, 1 << 20);
  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  rig.client(0).env().Activate(got.sel, user_ep::kMem0, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  std::string dump = rig.p().kernel(0)->DumpCaps();
  EXPECT_NE(dump.find("ep8"), std::string::npos) << dump;

  rig.p().kernel(0)->AdminKillVpe(rig.vpe(0), nullptr);
  rig.p().RunToCompletion();
  dump = rig.p().kernel(0)->DumpCaps();
  EXPECT_NE(dump.find("(dead)"), std::string::npos);
}

}  // namespace
}  // namespace semperos
