// Kernel edge cases: error paths, type checks, repeated operations, and
// derivation chains.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace semperos {
namespace {

TEST(Errors, ObtainFromUnknownVpe) {
  ClientRig rig = MakeRig(1, 1);
  SyscallReply got;
  // Node 0 is the kernel PE — no VPE runs there.
  rig.client(0).env().Obtain(/*peer=*/0, 1, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kVpeGone);
}

// Peer ids come from untrusted user PEs: one that names no PE at all is
// rejected before the kernel allocates a key or token for the operation.
TEST(Errors, ObtainFromOutOfRangeVpe) {
  ClientRig rig = MakeRig(2, 2);
  SyscallReply got;
  rig.client(0).env().Obtain(kInvalidVpe, 1, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchVpe);
  rig.client(0).env().Obtain(rig.p().membership().PeCount(), 1,
                             [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchVpe);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(Errors, DelegateToOutOfRangeVpe) {
  ClientRig rig = MakeRig(2, 2);
  CapSel sel = rig.Grant(0);
  SyscallReply got;
  rig.client(0).env().Delegate(sel, kInvalidVpe, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchVpe);
  // The capability was not touched and still delegates to a real peer.
  Capability* cap = rig.kernel_of_client(0)->CapOf(rig.vpe(0), sel);
  ASSERT_NE(cap, nullptr);
  EXPECT_TRUE(cap->children().empty());
  rig.client(0).env().Delegate(sel, rig.vpe(1), [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kOk);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(Errors, DelegateToDeadVpe) {
  ClientRig rig = MakeRig(1, 2);
  CapSel sel = rig.Grant(0);
  rig.kernel_of_client(1)->AdminKillVpe(rig.vpe(1), nullptr);
  rig.p().RunToCompletion();
  SyscallReply got;
  rig.client(0).env().Delegate(sel, rig.vpe(1), [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kVpeGone);
}

TEST(Errors, SpanningDelegateToDeadVpe) {
  ClientRig rig = MakeRig(2, 2);
  CapSel sel = rig.Grant(0);
  rig.kernel_of_client(1)->AdminKillVpe(rig.vpe(1), nullptr);
  rig.p().RunToCompletion();
  SyscallReply got;
  rig.client(0).env().Delegate(sel, rig.vpe(1), [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kVpeGone);
  // No half-linked child survives ("Invalid" prevention).
  Capability* cap = rig.kernel_of_client(0)->CapOf(rig.vpe(0), sel);
  ASSERT_NE(cap, nullptr);
  EXPECT_TRUE(cap->children().empty());
}

TEST(Errors, ExchangeOnNonSessionCap) {
  ClientRig rig = MakeRig(1, 1);
  CapSel sel = rig.Grant(0);  // a memory capability, not a session
  auto msg = std::make_shared<SyscallMsg>();
  msg->op = SyscallOp::kExchange;
  msg->sel = sel;
  SyscallReply got;
  rig.client(0).env().Syscall(msg, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kInvalidCapType);
}

TEST(Errors, ActivateVpeCapFails) {
  ClientRig rig = MakeRig(1, 1);
  SyscallReply got;
  // Selector 1 is the VPE's self-capability.
  rig.client(0).env().Activate(1, user_ep::kMem0, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kInvalidCapType);
}

TEST(Errors, SequentialDoubleRevoke) {
  ClientRig rig = MakeRig(1, 1);
  CapSel sel = rig.Grant(0);
  SyscallReply first;
  rig.client(0).env().Revoke(sel, [&](const SyscallReply& r) { first = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(first.err, ErrCode::kOk);
  SyscallReply second;
  rig.client(0).env().Revoke(sel, [&](const SyscallReply& r) { second = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(second.err, ErrCode::kNoSuchCap);
}

TEST(DeriveChains, DeepDerivationRevokesRecursively) {
  ClientRig rig = MakeRig(1, 1);
  CapSel root = rig.Grant(0, 1 << 20);
  CapSel cur = root;
  std::vector<CapSel> chain{root};
  for (int depth = 0; depth < 10; ++depth) {
    SyscallReply got;
    rig.client(0).env().DeriveMem(cur, 0, (1 << 19) >> depth, kPermR,
                                  [&](const SyscallReply& r) { got = r; });
    rig.p().RunToCompletion();
    ASSERT_EQ(got.err, ErrCode::kOk);
    cur = got.sel;
    chain.push_back(cur);
  }
  Kernel* kernel = rig.kernel_of_client(0);
  size_t before = kernel->caps().size();
  rig.client(0).env().Revoke(root, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  EXPECT_EQ(before - kernel->caps().size(), chain.size());
  for (CapSel sel : chain) {
    EXPECT_EQ(kernel->CapOf(rig.vpe(0), sel), nullptr);
  }
}

TEST(DeriveChains, MidChainRevokeKeepsAncestors) {
  ClientRig rig = MakeRig(1, 1);
  CapSel root = rig.Grant(0, 1 << 20);
  SyscallReply mid;
  rig.client(0).env().DeriveMem(root, 0, 1 << 19, kPermR,
                                [&](const SyscallReply& r) { mid = r; });
  rig.p().RunToCompletion();
  SyscallReply leaf;
  rig.client(0).env().DeriveMem(mid.sel, 0, 1 << 18, kPermR,
                                [&](const SyscallReply& r) { leaf = r; });
  rig.p().RunToCompletion();

  rig.client(0).env().Revoke(mid.sel, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  Kernel* kernel = rig.kernel_of_client(0);
  EXPECT_NE(kernel->CapOf(rig.vpe(0), root), nullptr);
  EXPECT_EQ(kernel->CapOf(rig.vpe(0), mid.sel), nullptr);
  EXPECT_EQ(kernel->CapOf(rig.vpe(0), leaf.sel), nullptr);
  // The root's child list no longer references the revoked middle.
  EXPECT_TRUE(kernel->CapOf(rig.vpe(0), root)->children().empty());
}

TEST(Fanout, WideTreeRevokesCompletely) {
  ClientRig rig = MakeRig(4, 13);
  CapSel root = rig.Grant(0, 1 << 20);
  for (size_t i = 1; i < 13; ++i) {
    rig.client(0).env().Delegate(root, rig.vpe(i), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
  }
  size_t total_before = 0;
  for (KernelId k = 0; k < 4; ++k) {
    total_before += rig.p().kernel(k)->caps().size();
  }
  rig.client(0).env().Revoke(root, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  size_t total_after = 0;
  for (KernelId k = 0; k < 4; ++k) {
    total_after += rig.p().kernel(k)->caps().size();
  }
  EXPECT_EQ(total_before - total_after, 13u);  // root + 12 copies
}

TEST(Fanout, RedelegationTreeAcrossThreeKernels) {
  // root(K0) -> a(K1) -> {b(K2), c(K0)}, then revoke at a: only a's subtree
  // dies.
  ClientRig rig = MakeRig(3, 6);
  size_t v_root = rig.client_in_kernel(0, 0);
  size_t v_a = rig.client_in_kernel(1, 0);
  size_t v_b = rig.client_in_kernel(2, 0);
  size_t v_c = rig.client_in_kernel(0, 1);

  CapSel root = rig.Grant(v_root, 1 << 20);
  rig.client(v_root).env().Delegate(root, rig.vpe(v_a), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  Kernel* ka = rig.kernel_of_client(v_a);
  CapSel a_sel = ka->FindVpe(rig.vpe(v_a))->table.LastSel();
  for (size_t peer : {v_b, v_c}) {
    rig.client(v_a).env().Delegate(a_sel, rig.vpe(peer), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
  }

  rig.client(v_a).env().Revoke(a_sel, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();

  // Root survives with no children; a, b, c copies are gone.
  Capability* root_cap = rig.kernel_of_client(v_root)->CapOf(rig.vpe(v_root), root);
  ASSERT_NE(root_cap, nullptr);
  EXPECT_TRUE(root_cap->children().empty());
  EXPECT_EQ(ka->CapOf(rig.vpe(v_a), a_sel), nullptr);
  EXPECT_EQ(rig.kernel_of_client(v_b)->FindVpe(rig.vpe(v_b))->table.size(), 1u);
  EXPECT_EQ(rig.kernel_of_client(v_c)->FindVpe(rig.vpe(v_c))->table.size(), 1u);
}

TEST(Concurrency, ManyRevokesAgainstOneOwner) {
  // Twelve holders of copies revoke their own copies concurrently while the
  // owner also revokes the root. Everything must drain without deadlock.
  ClientRig rig = MakeRig(4, 13);
  CapSel root = rig.Grant(0, 1 << 20);
  std::vector<CapSel> copies(13, kInvalidSel);
  for (size_t i = 1; i < 13; ++i) {
    rig.client(0).env().Delegate(root, rig.vpe(i), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
    copies[i] = rig.kernel_of_client(i)->FindVpe(rig.vpe(i))->table.LastSel();
  }
  int done = 0;
  for (size_t i = 1; i < 13; ++i) {
    rig.client(i).env().Revoke(copies[i], [&done](const SyscallReply& r) {
      EXPECT_EQ(r.err, ErrCode::kOk);
      done++;
    });
  }
  rig.client(0).env().Revoke(root, [&done](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    done++;
  });
  rig.p().RunToCompletion();
  EXPECT_EQ(done, 13);
  for (KernelId k = 0; k < 4; ++k) {
    EXPECT_EQ(rig.p().kernel(k)->PendingOps(), 0u);
  }
}

TEST(Payload, ObtainedCopyInheritsRestrictedPayload) {
  ClientRig rig = MakeRig(2, 2);
  Kernel* k0 = rig.kernel_of_client(0);
  CapSel owner_sel = k0->AdminGrantMem(rig.vpe(0), rig.p().mem_nodes()[0], 0x1000, 0x2000,
                                       kPermR);
  SyscallReply got;
  rig.client(1).env().Obtain(rig.vpe(0), owner_sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  ASSERT_EQ(got.err, ErrCode::kOk);
  EXPECT_EQ(got.cap.mem_base, 0x1000u);
  EXPECT_EQ(got.cap.mem_size, 0x2000u);
  EXPECT_EQ(got.cap.perms, kPermR);
}

}  // namespace
}  // namespace semperos
