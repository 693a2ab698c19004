// Exhaustive kill-timing sweeps over the exchange protocols.
//
// The Orphaned/Invalid anomalies (paper Table 2) depend on *when* a VPE
// dies relative to the in-flight inter-kernel call. These parameterized
// sweeps kill the obtainer/delegator/receiver at a grid of simulated-time
// offsets covering the whole exchange window and verify the tree invariants
// for every interleaving.
#include <gtest/gtest.h>

#include "audit/cap_audit.h"
#include "system/client.h"

namespace semperos {
namespace {

class KillSweep : public ::testing::TestWithParam<Cycles> {};

// Global forest invariants (I1-I6) via the shared auditor.
void VerifyForest(DriverRig& rig) {
  AuditReport report = AuditPlatform(rig.p());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_P(KillSweep, ObtainerDies) {
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel owner_sel = rig.Grant(1, 4096);
  rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [](const SyscallReply&) {});
  rig.p().sim().Schedule(GetParam(), [&] {
    rig.kernel_of_client(0)->AdminKillVpe(rig.vpe(0), nullptr);
  });
  rig.p().RunToCompletion();
  VerifyForest(rig);
  Capability* owner_cap = rig.kernel_of_client(1)->CapOf(rig.vpe(1), owner_sel);
  ASSERT_NE(owner_cap, nullptr);
  EXPECT_TRUE(owner_cap->children().empty());
}

TEST_P(KillSweep, DelegatorDies) {
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel sel = rig.Grant(0, 4096);
  rig.client(0).env().Delegate(sel, rig.vpe(1), [](const SyscallReply&) {});
  rig.p().sim().Schedule(GetParam(), [&] {
    rig.kernel_of_client(0)->AdminKillVpe(rig.vpe(0), nullptr);
  });
  rig.p().RunToCompletion();
  VerifyForest(rig);
  // The delegator's caps are gone; if the receiver got a copy it must have
  // been revoked along with them.
  EXPECT_EQ(rig.kernel_of_client(0)->CapOf(rig.vpe(0), sel), nullptr);
}

TEST_P(KillSweep, ReceiverDies) {
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel sel = rig.Grant(0, 4096);
  rig.client(0).env().Delegate(sel, rig.vpe(1), [](const SyscallReply&) {});
  rig.p().sim().Schedule(GetParam(), [&] {
    rig.kernel_of_client(1)->AdminKillVpe(rig.vpe(1), nullptr);
  });
  rig.p().RunToCompletion();
  VerifyForest(rig);
  // The dead receiver holds nothing; the delegator's capability has no
  // stale child entries (quick orphan removal, §4.3.2).
  const VpeState* receiver = rig.kernel_of_client(1)->FindVpe(rig.vpe(1));
  EXPECT_EQ(receiver->table.size(), 0u);
}

TEST_P(KillSweep, OwnerDiesDuringObtain) {
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel owner_sel = rig.Grant(1, 4096);
  bool replied = false;
  rig.client(0).env().Obtain(rig.vpe(1), owner_sel,
                             [&](const SyscallReply&) { replied = true; });
  rig.p().sim().Schedule(GetParam(), [&] {
    rig.kernel_of_client(1)->AdminKillVpe(rig.vpe(1), nullptr);
  });
  rig.p().RunToCompletion();
  VerifyForest(rig);
  // Whatever the interleaving, the obtainer must not end up holding a
  // memory capability whose owner subtree is gone.
  if (replied) {
    const VpeState* obtainer = rig.kernel_of_client(0)->FindVpe(rig.vpe(0));
    obtainer->table.ForEach([&](CapSel sel, DdlKey key) {
      Capability* cap = rig.kernel_of_client(0)->FindCap(key);
      ASSERT_NE(cap, nullptr);
      EXPECT_NE(cap->type(), CapType::kMem) << "copy outlived the revoked owner";
      (void)sel;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, KillSweep,
                         ::testing::Values(0, 800, 1600, 2400, 3200, 4000, 4800, 5600, 6400,
                                           8000, 10000, 14000),
                         [](const auto& param_info) {
                           return "at" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace semperos
