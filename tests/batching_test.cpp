// Revocation message batching (extension; paper §5.2 future work).
//
// Batched and unbatched revocation must be semantically identical — same
// final state, same completeness guarantees — differing only in message
// count and latency.
#include <gtest/gtest.h>

#include "system/client.h"

namespace semperos {
namespace {

DriverRig BatchRig(uint32_t kernels, uint32_t users, bool batching) {
  PlatformConfig pc;
  pc.kernels = kernels;
  pc.users = users;
  pc.revoke_batching = batching;
  return MakeDriverRig(pc);
}

class Batching : public ::testing::TestWithParam<bool> {};

TEST_P(Batching, TreeRevokeDeletesEverything) {
  DriverRig rig = BatchRig(5, 17, GetParam());
  CapSel root = rig.BuildTree(16);
  size_t before = 0;
  for (KernelId k = 0; k < 5; ++k) {
    before += rig.p().kernel(k)->caps().size();
  }
  bool acked = false;
  rig.client(0).env().Revoke(root, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acked = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(acked);
  size_t after = 0;
  for (KernelId k = 0; k < 5; ++k) {
    after += rig.p().kernel(k)->caps().size();
    EXPECT_EQ(rig.p().kernel(k)->PendingOps(), 0u);
  }
  EXPECT_EQ(before - after, 17u);  // root + 16 children
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST_P(Batching, ChainRevokeStillWorks) {
  DriverRig rig = BatchRig(2, 2, GetParam());
  CapSel root = rig.BuildChain(12, {0, 1});
  bool acked = false;
  rig.client(0).env().Revoke(root, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acked = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(acked);
}

INSTANTIATE_TEST_SUITE_P(OnOff, Batching, ::testing::Bool(),
                         [](const auto& param_info) { return param_info.param ? "batched" : "unbatched"; });

TEST(BatchingBehaviour, FewerMessagesThanPerChild) {
  uint64_t ikc_plain = 0;
  uint64_t ikc_batched = 0;
  for (bool batching : {false, true}) {
    DriverRig rig = BatchRig(5, 33, batching);
    CapSel root = rig.BuildTree(32);
    uint64_t before = rig.p().TotalKernelStats().ikc_sent;
    rig.client(0).env().Revoke(root, [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
    KernelStats after = rig.p().TotalKernelStats();
    (batching ? ikc_batched : ikc_plain) = after.ikc_sent - before;
    // The multi-op counters track kRevokeBatchReq: one request per remote
    // peer, carrying every remote child key.
    EXPECT_EQ(after.ikc_batches_sent, batching ? 4u : 0u);
    EXPECT_EQ(after.ikc_batched_ops, batching ? after.spanning_revokes : 0u);
  }
  // 32 children over 4 remote kernels: ~32 requests unbatched vs ~4 batched.
  EXPECT_LT(ikc_batched * 4, ikc_plain);
}

TEST(BatchingBehaviour, BatchedRevokeIsFasterOnWideTrees) {
  auto measure = [](bool batching) {
    DriverRig rig = BatchRig(13, 97, batching);
    CapSel root = rig.BuildTree(96);
    return rig.TimedOp([&](std::function<void()> done) {
      rig.client(0).env().Revoke(root, [done](const SyscallReply& r) {
        ASSERT_EQ(r.err, ErrCode::kOk);
        done();
      });
    });
  };
  Cycles plain = measure(false);
  Cycles batched = measure(true);
  EXPECT_LT(batched, plain);
}

TEST(BatchingBehaviour, OverlappingRevokesStayComplete) {
  // The "Incomplete" guarantee must survive batching: concurrent revokes on
  // overlapping subtrees both ack only after full deletion.
  DriverRig rig = BatchRig(3, 9, true);
  CapSel root = rig.Grant(0);
  // root -> a (K1), a -> b (K2).
  size_t a = 3;  // some client on another kernel
  while (rig.kernel_of_client(a) == rig.kernel_of_client(0)) {
    ++a;
  }
  rig.client(0).env().Delegate(root, rig.vpe(a), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  Kernel* ka = rig.kernel_of_client(a);
  CapSel a_sel = ka->FindVpe(rig.vpe(a))->table.LastSel();
  size_t b = a + 1;
  while (b < 9 && (rig.kernel_of_client(b) == rig.kernel_of_client(a) ||
                   rig.kernel_of_client(b) == rig.kernel_of_client(0))) {
    ++b;
  }
  ASSERT_LT(b, 9u);
  rig.client(a).env().Delegate(a_sel, rig.vpe(b), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();

  int acks = 0;
  rig.client(0).env().Revoke(root, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acks++;
  });
  rig.client(a).env().Revoke(a_sel, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acks++;
    // Completed means complete: nothing of a's subtree remains anywhere.
    EXPECT_EQ(rig.kernel_of_client(a)->CapOf(rig.vpe(a), a_sel), nullptr);
  });
  rig.p().RunToCompletion();
  EXPECT_EQ(acks, 2);
}

}  // namespace
}  // namespace semperos
