// User-level runtime (UserEnv): syscall RPC discipline, ask serialization,
// and the client<->service IPC path.
#include <gtest/gtest.h>

#include "system/client.h"

namespace semperos {
namespace {

TEST(UserEnv, SecondConcurrentSyscallDies) {
  // "each VPE can only issue one (blocking) system call at a time" (§5.1).
  DriverRig rig = MakeDriverRig(1, 1);
  auto msg1 = std::make_shared<SyscallMsg>();
  msg1->op = SyscallOp::kNoop;
  rig.client(0).env().Syscall(msg1, [](const SyscallReply&) {});
  auto msg2 = std::make_shared<SyscallMsg>();
  msg2->op = SyscallOp::kNoop;
  EXPECT_DEATH(rig.client(0).env().Syscall(msg2, [](const SyscallReply&) {}),
               "second blocking syscall");
}

TEST(UserEnv, SyscallsCompleteInIssueOrder) {
  DriverRig rig = MakeDriverRig(1, 1);
  std::vector<int> order;
  auto noop = [] {
    auto m = std::make_shared<SyscallMsg>();
    m->op = SyscallOp::kNoop;
    return m;
  };
  rig.client(0).env().Syscall(noop(), [&](const SyscallReply&) {
    order.push_back(1);
    rig.client(0).env().Syscall(noop(), [&](const SyscallReply&) { order.push_back(2); });
  });
  rig.p().RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(UserEnv, SyscallCountsTracked) {
  DriverRig rig = MakeDriverRig(1, 1);
  for (int i = 0; i < 3; ++i) {
    auto msg = std::make_shared<SyscallMsg>();
    msg->op = SyscallOp::kNoop;
    rig.client(0).env().Syscall(msg, [](const SyscallReply&) {});
    rig.p().RunToCompletion();
  }
  EXPECT_EQ(rig.client(0).env().syscalls_issued(), 3u);
}

TEST(UserEnv, AsksAreSerialized) {
  // Two clients obtain from the same owner concurrently; the owner's ask
  // handler must never be re-entered.
  DriverRig rig = MakeDriverRig(1, 3);
  CapSel owner_sel = rig.Grant(0, 4096);
  int active = 0;
  int max_active = 0;
  int asks = 0;
  rig.client(0).env().SetAskHandler(
      [&](const AskMsg& ask, UserEnv::AskReplyFn reply) {
        active++;
        asks++;
        max_active = std::max(max_active, active);
        AskReply r;
        r.err = ErrCode::kOk;
        r.share_sel = ask.sel;
        active--;
        reply(std::move(r));
      });
  int done = 0;
  for (size_t i = 1; i <= 2; ++i) {
    rig.client(i).env().Obtain(rig.vpe(0), owner_sel, [&](const SyscallReply& r) {
      EXPECT_EQ(r.err, ErrCode::kOk);
      done++;
    });
  }
  rig.p().RunToCompletion();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(asks, 2);
  EXPECT_EQ(max_active, 1);
}

TEST(UserEnv, AskHandlerCanDeny) {
  DriverRig rig = MakeDriverRig(1, 2);
  CapSel owner_sel = rig.Grant(1, 4096);
  rig.client(1).env().SetAskHandler([](const AskMsg&, UserEnv::AskReplyFn reply) {
    AskReply r;
    r.err = ErrCode::kNoPerm;
    reply(std::move(r));
  });
  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoPerm);
  // The owner's capability tree stays untouched after a denial.
  Capability* cap = rig.kernel_of_client(1)->CapOf(rig.vpe(1), owner_sel);
  ASSERT_NE(cap, nullptr);
  EXPECT_TRUE(cap->children().empty());
}

TEST(UserEnv, AskHandlerMayIssueSyscallsBeforeReplying) {
  // Services derive capabilities while answering asks; the serialization
  // in UserEnv must allow a full syscall round trip inside a handler.
  DriverRig rig = MakeDriverRig(1, 2);
  CapSel owner_mem = rig.Grant(1, 1 << 20);
  rig.client(1).env().SetAskHandler(
      [&rig](const AskMsg&, UserEnv::AskReplyFn reply) {
        rig.client(1).env().DeriveMem(2, 0, 4096, kPermR,
                                      [reply = std::move(reply)](const SyscallReply& r) mutable {
                                        ASSERT_EQ(r.err, ErrCode::kOk);
                                        AskReply a;
                                        a.err = ErrCode::kOk;
                                        a.share_sel = r.sel;  // share the derived child
                                        reply(std::move(a));
                                      });
      });
  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), owner_mem, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  ASSERT_EQ(got.err, ErrCode::kOk);
  // The obtained capability is a copy of the derived (restricted) child.
  Capability* copy = rig.kernel_of_client(0)->CapOf(rig.vpe(0), got.sel);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->payload().mem_size, 4096u);
}

TEST(UserEnv, MemAccessAfterRevokeDies) {
  // NoC-level enforcement: once the endpoint is invalidated, access faults.
  DriverRig rig = MakeDriverRig(1, 2);
  CapSel owner_sel = rig.Grant(1, 1 << 20);
  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  rig.client(0).env().Activate(got.sel, user_ep::kMem0, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  rig.client(1).env().Revoke(owner_sel, [](const SyscallReply&) {});
  rig.p().RunToCompletion();
  EXPECT_DEATH(rig.client(0).env().ReadMem(user_ep::kMem0, 0, 64, [] {}), "mem read failed");
}

}  // namespace
}  // namespace semperos
