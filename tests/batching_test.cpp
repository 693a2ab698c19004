// Revocation message batching (extension; paper §5.2 future work).
//
// Batched and unbatched revocation must be semantically identical — same
// final state, same completeness guarantees — differing only in message
// count and latency.
#include <gtest/gtest.h>

#include <vector>

#include "audit/cap_audit.h"
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
  EXPECT_LT(RevokeTree(13, 96, /*revoke_batching=*/true), RevokeTree(13, 96, false));
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

// A revoke batch can name a key its receiver already deleted (the child's
// own revocation beat the parent's) and one that an in-flight revocation
// already marked. The deleted key is done at once, the marked one is
// waited for, and the batch is answered only once both subtrees are gone.
TEST(BatchingBehaviour, BatchSkipsDeletedKeyAndWaitsForMarkedOne) {
  DriverRig rig = BatchRig(3, 9, true);
  size_t a = rig.client_in_kernel(0, 0);
  size_t b = rig.client_in_kernel(1, 0);
  size_t c = rig.client_in_kernel(1, 1);
  size_t d = rig.client_in_kernel(2, 0);
  Kernel* k0 = rig.p().kernel(0);
  Kernel* k1 = rig.p().kernel(1);
  Kernel* k2 = rig.p().kernel(2);
  auto delegate = [&](size_t from, CapSel sel, size_t to) {
    rig.client(from).env().Delegate(sel, rig.vpe(to), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
    return rig.kernel_of_client(to)->FindVpe(rig.vpe(to))->table.LastSel();
  };
  // root (k0) -> b_copy, c_copy (k1); c_copy -> d_copy (k2), which heads a
  // chain bouncing between kernels 2 and 0: revoking c_copy takes one round
  // trip per link, far longer than the batch's own work.
  CapSel root = rig.Grant(a);
  CapSel b_copy = delegate(a, root, b);
  CapSel c_copy = delegate(a, root, c);
  CapSel d_copy = delegate(c, c_copy, d);
  size_t holder = d;
  CapSel sel = d_copy;
  for (size_t next : {rig.client_in_kernel(0, 1), rig.client_in_kernel(2, 1),
                      rig.client_in_kernel(0, 2), rig.client_in_kernel(2, 2)}) {
    sel = delegate(holder, sel, next);
    holder = next;
  }

  // All three revocations start at once: b's copy is gone before kernel 0's
  // batch reaches kernel 1, and c's copy is marked, waiting for kernel 2.
  std::vector<size_t> acks;
  rig.client(b).env().Revoke(b_copy, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acks.push_back(b);
  });
  rig.client(c).env().Revoke(c_copy, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acks.push_back(c);
  });
  rig.client(a).env().Revoke(root, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acks.push_back(a);
    EXPECT_EQ(k0->CapOf(rig.vpe(a), root), nullptr);
    EXPECT_EQ(k1->CapOf(rig.vpe(b), b_copy), nullptr);
    EXPECT_EQ(k1->CapOf(rig.vpe(c), c_copy), nullptr);
    EXPECT_EQ(k2->CapOf(rig.vpe(d), d_copy), nullptr);
    EXPECT_EQ(rig.kernel_of_client(holder)->CapOf(rig.vpe(holder), sel), nullptr);
  });
  const size_t batch_op = static_cast<size_t>(IkcOp::kRevokeBatchReq);
  bool b_gone = false;
  bool c_marked = false;
  for (int step = 0; step < 100'000 && k1->stats().ikc_op_received[batch_op] == 0; ++step) {
    b_gone = k1->CapOf(rig.vpe(b), b_copy) == nullptr;
    Capability* c_cap = k1->CapOf(rig.vpe(c), c_copy);
    c_marked = c_cap != nullptr && c_cap->marked();
    rig.p().sim().RunUntil(rig.p().sim().Now() + 1);
  }
  ASSERT_EQ(k1->stats().ikc_op_received[batch_op], 1u);
  EXPECT_TRUE(b_gone);
  EXPECT_TRUE(c_marked);
  // Kernel 0's one batch named both keys.
  EXPECT_EQ(k0->stats().ikc_batches_sent, 1u);
  EXPECT_EQ(k0->stats().ikc_batched_ops, 2u);

  rig.p().RunToCompletion();
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks.back(), a);  // after c's revocation, which the batch waited for
  for (KernelId k = 0; k < 3; ++k) {
    EXPECT_EQ(rig.p().kernel(k)->PendingOps(), 0u) << "kernel " << k;
  }
  AuditReport report = AuditPlatform(rig.p());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

}  // namespace
}  // namespace semperos
