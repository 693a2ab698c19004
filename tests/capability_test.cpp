// Distributed capability exchange and revocation (paper §4.3).
//
// Covers group-internal and group-spanning obtain/delegate/revoke plus the
// four interference anomalies of Table 2: Orphaned, Invalid, Incomplete,
// and Pointless.
#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/cap_audit.h"
#include "base/flat.h"
#include "base/rng.h"
#include "core/capability.h"
#include "core/kernel.h"
#include "system/client.h"

namespace semperos {
namespace {

TEST(Obtain, GroupInternal) {
  DriverRig rig = MakeDriverRig(1, 2);
  CapSel owner_sel = rig.Grant(1, 4096);

  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();

  ASSERT_EQ(got.err, ErrCode::kOk);
  Kernel* kernel = rig.kernel_of_client(0);
  Capability* child = kernel->CapOf(rig.vpe(0), got.sel);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->type(), CapType::kMem);
  Capability* parent = kernel->CapOf(rig.vpe(1), owner_sel);
  ASSERT_NE(parent, nullptr);
  ASSERT_EQ(parent->children().size(), 1u);
  EXPECT_EQ(parent->children()[0], child->key());
  EXPECT_EQ(child->parent(), parent->key());
  EXPECT_EQ(kernel->stats().obtains, 1u);
  EXPECT_EQ(kernel->stats().spanning_obtains, 0u);
}

TEST(Obtain, GroupSpanning) {
  DriverRig rig = MakeDriverRig(2, 2);  // round-robin: client 0 -> K0, client 1 -> K1
  ASSERT_NE(rig.kernel_of_client(0), rig.kernel_of_client(1));
  CapSel owner_sel = rig.Grant(1, 4096);

  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();

  ASSERT_EQ(got.err, ErrCode::kOk);
  Kernel* k0 = rig.kernel_of_client(0);
  Kernel* k1 = rig.kernel_of_client(1);
  Capability* child = k0->CapOf(rig.vpe(0), got.sel);
  ASSERT_NE(child, nullptr);
  Capability* parent = k1->CapOf(rig.vpe(1), owner_sel);
  ASSERT_NE(parent, nullptr);
  // The cross-kernel tree edge is expressed through DDL keys (Figure 2).
  ASSERT_EQ(parent->children().size(), 1u);
  EXPECT_EQ(parent->children()[0], child->key());
  EXPECT_EQ(child->parent(), parent->key());
  EXPECT_EQ(k0->stats().spanning_obtains, 1u);
  EXPECT_GT(k0->stats().ikc_sent, 0u);
}

TEST(Obtain, MissingCapabilityFails) {
  DriverRig rig = MakeDriverRig(1, 2);
  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), /*peer_sel=*/999,
                             [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchCap);
}

TEST(Obtain, SpanningMissingCapabilityFails) {
  DriverRig rig = MakeDriverRig(2, 2);
  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), /*peer_sel=*/999,
                             [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchCap);
}

TEST(Delegate, GroupInternal) {
  DriverRig rig = MakeDriverRig(1, 2);
  CapSel sel = rig.Grant(0, 4096);
  SyscallReply got;
  rig.client(0).env().Delegate(sel, rig.vpe(1), [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();

  ASSERT_EQ(got.err, ErrCode::kOk);
  Kernel* kernel = rig.kernel_of_client(0);
  Capability* parent = kernel->CapOf(rig.vpe(0), sel);
  ASSERT_NE(parent, nullptr);
  ASSERT_EQ(parent->children().size(), 1u);
  Capability* child = kernel->FindCap(parent->children()[0]);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->holder(), rig.vpe(1));
  EXPECT_EQ(kernel->stats().delegates, 1u);
}

TEST(Delegate, GroupSpanningTwoWayHandshake) {
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel sel = rig.Grant(0, 4096);
  SyscallReply got;
  rig.client(0).env().Delegate(sel, rig.vpe(1), [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();

  ASSERT_EQ(got.err, ErrCode::kOk);
  Kernel* k0 = rig.kernel_of_client(0);
  Kernel* k1 = rig.kernel_of_client(1);
  Capability* parent = k0->CapOf(rig.vpe(0), sel);
  ASSERT_NE(parent, nullptr);
  ASSERT_EQ(parent->children().size(), 1u);
  Capability* child = k1->FindCap(parent->children()[0]);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->holder(), rig.vpe(1));
  EXPECT_EQ(child->parent(), parent->key());
  EXPECT_EQ(k0->stats().spanning_delegates, 1u);
  // Handshake: DelegateReq + DelegateAck from K0, reply + ack-reply from K1.
  EXPECT_GE(k0->stats().ikc_sent, 2u);
}

TEST(Revoke, GroupInternalRecursive) {
  DriverRig rig = MakeDriverRig(1, 3);
  CapSel sel = rig.Grant(0, 4096);
  Kernel* kernel = rig.kernel_of_client(0);

  // Build: v0 -> v1 -> v2 by two delegates.
  bool step1 = false;
  rig.client(0).env().Delegate(sel, rig.vpe(1), [&](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
    step1 = true;
  });
  rig.p().RunToCompletion();
  ASSERT_TRUE(step1);
  Capability* root = kernel->CapOf(rig.vpe(0), sel);
  Capability* mid = kernel->FindCap(root->children()[0]);
  rig.client(1).env().Delegate(mid->sel(), rig.vpe(2), [](const SyscallReply&) {});
  rig.p().RunToCompletion();

  size_t caps_before = kernel->caps().size();
  SyscallReply got;
  rig.client(0).env().Revoke(sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();

  EXPECT_EQ(got.err, ErrCode::kOk);
  EXPECT_EQ(kernel->CapOf(rig.vpe(0), sel), nullptr);
  EXPECT_EQ(kernel->caps().size(), caps_before - 3);  // root + 2 descendants
  EXPECT_EQ(kernel->stats().caps_deleted, 3u);
}

TEST(Revoke, GroupSpanningRecursive) {
  // Chain A(K0) -> B(K1) -> C(K0): the deadlock example of §4.2 — K1 calls
  // back into K0 while K0's revoke is suspended.
  DriverRig rig = MakeDriverRig(2, 4);
  size_t a = rig.client_in_kernel(0, 0);
  size_t b = rig.client_in_kernel(1, 0);
  size_t c = rig.client_in_kernel(0, 1);
  CapSel sel = rig.Grant(a, 4096);
  Kernel* k0 = rig.kernel_of_client(a);
  Kernel* k1 = rig.kernel_of_client(b);
  ASSERT_NE(k0, k1);

  rig.client(a).env().Delegate(sel, rig.vpe(b), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  Capability* root = k0->CapOf(rig.vpe(a), sel);
  ASSERT_EQ(root->children().size(), 1u);
  Capability* mid = k1->FindCap(root->children()[0]);
  ASSERT_NE(mid, nullptr);
  rig.client(b).env().Delegate(mid->sel(), rig.vpe(c), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  // C really lives on K0 again: the cycle K0 -> K1 -> K0 exists.
  ASSERT_EQ(k0->FindCap(k1->FindCap(root->children()[0])->children()[0])->holder(), rig.vpe(c));
  // Snapshot the keys: the revocation below frees the Capability objects.
  DdlKey root_key = root->key();
  DdlKey mid_key = mid->key();

  bool acked = false;
  rig.client(a).env().Revoke(sel, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acked = true;
  });
  rig.p().RunToCompletion();

  EXPECT_TRUE(acked);
  EXPECT_EQ(k0->CapOf(rig.vpe(a), sel), nullptr);
  EXPECT_EQ(k0->FindCap(root_key), nullptr);
  EXPECT_EQ(k1->FindCap(mid_key), nullptr);
  EXPECT_EQ(k0->stats().spanning_revokes + k1->stats().spanning_revokes, 2u);
}

TEST(Revoke, MissingCapabilityFails) {
  DriverRig rig = MakeDriverRig(1, 1);
  SyscallReply got;
  rig.client(0).env().Revoke(12345, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchCap);
}

// --- Table 2 anomalies ---

TEST(Anomaly, OrphanedObtainCleanedUp) {
  // "the obtainer could be killed while waiting for the inter-kernel call.
  // This leaves an orphaned child capability in the owner's capability
  // tree" (§4.3.2) — cleaned up through the orphan notification. The kill
  // is swept across the whole window of the spanning obtain; for every
  // interleaving the owner's tree must end up clean, and at least one
  // interleaving must hit the orphan-notification path.
  uint64_t total_orphans_cleaned = 0;
  for (Cycles kill_at = 0; kill_at <= 12'000; kill_at += 1'000) {
    DriverRig rig = MakeDriverRig(2, 2);
    CapSel owner_sel = rig.Grant(1, 4096);
    Kernel* k0 = rig.kernel_of_client(0);
    Kernel* k1 = rig.kernel_of_client(1);

    rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [](const SyscallReply&) {});
    bool killed = false;
    rig.p().sim().Schedule(kill_at, [&] { k0->AdminKillVpe(rig.vpe(0), [&] { killed = true; }); });
    rig.p().RunToCompletion();

    EXPECT_TRUE(killed) << "kill_at=" << kill_at;
    Capability* owner_cap = k1->CapOf(rig.vpe(1), owner_sel);
    ASSERT_NE(owner_cap, nullptr);
    EXPECT_TRUE(owner_cap->children().empty())
        << "orphaned child survived, kill_at=" << kill_at;
    total_orphans_cleaned += k0->stats().orphans_cleaned + k1->stats().orphans_cleaned;
  }
  EXPECT_GE(total_orphans_cleaned, 1u) << "no interleaving exercised the orphan path";
}

TEST(Anomaly, InvalidDelegatePrevented) {
  // "although all capabilities of the delegator are revoked, the delegated
  // capability stays valid at the receiving VPE" — prevented by the two-way
  // handshake (§4.3.2). We kill the delegator mid-delegate; whatever the
  // interleaving, the receiver must never end up with a capability whose
  // parent edge is untracked.
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel sel = rig.Grant(0, 4096);
  Kernel* k0 = rig.kernel_of_client(0);
  Kernel* k1 = rig.kernel_of_client(1);

  rig.client(0).env().Delegate(sel, rig.vpe(1), [](const SyscallReply&) {});
  bool killed = false;
  k0->AdminKillVpe(rig.vpe(0), [&] { killed = true; });
  rig.p().RunToCompletion();
  EXPECT_TRUE(killed);

  // The delegator's capabilities are gone.
  EXPECT_EQ(k0->CapOf(rig.vpe(0), sel), nullptr);
  // The receiver may only hold the child if it is still tracked — i.e. if
  // it were inserted, the kill's recursive revoke must have removed it.
  const VpeState* receiver = k1->FindVpe(rig.vpe(1));
  ASSERT_NE(receiver, nullptr);
  receiver->table.ForEach([&](CapSel rsel, DdlKey key) {
    Capability* cap = k1->FindCap(key);
    ASSERT_NE(cap, nullptr);
    EXPECT_NE(cap->type(), CapType::kMem)
        << "receiver holds a delegated capability that outlived the delegator";
    (void)rsel;
  });
}

TEST(Anomaly, IncompleteRevokeNeverAcked) {
  // Overlapping revokes on an overlapping subtree: the inner revoke must
  // not be acknowledged before the whole chain below it is gone (§4.3.1).
  DriverRig rig = MakeDriverRig(2, 4);
  size_t a = rig.client_in_kernel(0, 0);
  size_t b = rig.client_in_kernel(1, 0);
  size_t c = rig.client_in_kernel(0, 1);
  CapSel sel = rig.Grant(a, 4096);
  Kernel* k0 = rig.kernel_of_client(a);
  Kernel* k1 = rig.kernel_of_client(b);

  // Chain: A(K0) -> B(K1) -> C(K0).
  rig.client(a).env().Delegate(sel, rig.vpe(b), [](const SyscallReply&) {});
  rig.p().RunToCompletion();
  Capability* root = k0->CapOf(rig.vpe(a), sel);
  Capability* mid = k1->FindCap(root->children()[0]);
  CapSel mid_sel = mid->sel();
  rig.client(b).env().Delegate(mid_sel, rig.vpe(c), [](const SyscallReply&) {});
  rig.p().RunToCompletion();
  DdlKey mid_key = mid->key();
  DdlKey leaf_key = k1->FindCap(mid_key)->children()[0];

  // Both revokes race: A revokes the root, B revokes the middle.
  bool outer_done = false;
  bool inner_done = false;
  rig.client(a).env().Revoke(sel, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    outer_done = true;
    // When the initiator is acked, the entire subtree must be gone.
    EXPECT_EQ(k1->FindCap(mid_key), nullptr);
    EXPECT_EQ(k0->FindCap(leaf_key), nullptr);
  });
  rig.client(b).env().Revoke(mid_sel, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    inner_done = true;
    // "completed revokes are indeed completed": the subtree below the
    // middle capability must be gone when this ack arrives.
    EXPECT_EQ(k1->FindCap(mid_key), nullptr);
    EXPECT_EQ(k0->FindCap(leaf_key), nullptr);
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(outer_done);
  EXPECT_TRUE(inner_done);
}

TEST(Anomaly, PointlessExchangeDenied) {
  // "the two phases allow us to immediately deny exchanges of capabilities
  // that are in revocation" (§4.3.3).
  DriverRig rig = MakeDriverRig(2, 4);
  CapSel sel = rig.Grant(0, 4096);
  Kernel* k0 = rig.kernel_of_client(0);

  // Long spanning chain under the root capability keeps the revoke running.
  size_t ping = rig.client_in_kernel(1, 0);
  size_t pong = rig.client_in_kernel(0, 1);
  size_t prober = rig.client_in_kernel(1, 1);
  rig.client(0).env().Delegate(sel, rig.vpe(ping), [](const SyscallReply&) {});
  rig.p().RunToCompletion();
  Capability* root = k0->CapOf(rig.vpe(0), sel);
  Capability* cur = rig.kernel_of_client(ping)->FindCap(root->children()[0]);
  size_t from = ping;
  for (int hop = 0; hop < 6; ++hop) {
    size_t to = (from == ping) ? pong : ping;
    CapSel cur_sel = cur->sel();
    rig.client(from).env().Delegate(cur_sel, rig.vpe(to), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
    Capability* prev = rig.kernel_of_client(from)->FindCap(cur->key());
    ASSERT_NE(prev, nullptr);
    ASSERT_EQ(prev->children().size(), 1u);
    cur = rig.kernel_of_client(to)->FindCap(prev->children()[0]);
    ASSERT_NE(cur, nullptr);
    from = to;
  }

  // Start the revoke, then try to obtain the root while it is marked.
  SyscallReply revoke_reply;
  bool revoked = false;
  rig.client(0).env().Revoke(sel, [&](const SyscallReply& r) {
    revoke_reply = r;
    revoked = true;
  });
  SyscallReply obtain_reply;
  obtain_reply.err = ErrCode::kAborted;  // sentinel
  rig.p().sim().Schedule(2000, [&] {
    rig.client(prober).env().Obtain(rig.vpe(0), sel,
                                    [&](const SyscallReply& r) { obtain_reply = r; });
  });
  rig.p().RunToCompletion();

  EXPECT_TRUE(revoked);
  EXPECT_EQ(revoke_reply.err, ErrCode::kOk);
  // Either the exchange was denied because the capability was marked, or —
  // if the revoke finished first — the capability is simply gone.
  EXPECT_TRUE(obtain_reply.err == ErrCode::kCapRevoked ||
              obtain_reply.err == ErrCode::kNoSuchCap)
      << "got: " << ErrName(obtain_reply.err);
  EXPECT_GT(rig.p().TotalKernelStats().pointless_denials + 0u, 0u);
}

TEST(Revoke, PingPongChainNoDeadlock) {
  // Two malicious applications exchanging a capability back and forth
  // build a deep hierarchy at alternating kernels (§4.3.3). Revocation must
  // complete with the two-revocation-thread bound.
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel sel = rig.Grant(0, 4096);
  Kernel* k0 = rig.kernel_of_client(0);

  Capability* cur = k0->CapOf(rig.vpe(0), sel);
  size_t from = 0;
  for (int hop = 0; hop < 20; ++hop) {
    size_t to = 1 - from;
    CapSel cur_sel = cur->sel();
    rig.client(from).env().Delegate(cur_sel, rig.vpe(to), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
    Capability* prev = rig.kernel_of_client(from)->FindCap(cur->key());
    ASSERT_NE(prev, nullptr);
    cur = rig.kernel_of_client(to)->FindCap(prev->children().back());
    ASSERT_NE(cur, nullptr);
    from = to;
  }

  size_t total_before = k0->caps().size() + rig.kernel_of_client(1)->caps().size();
  bool acked = false;
  rig.client(0).env().Revoke(sel, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acked = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(acked) << "revocation of the ping-pong chain never completed";
  size_t total_after = k0->caps().size() + rig.kernel_of_client(1)->caps().size();
  EXPECT_EQ(total_before - total_after, 21u);  // root + 20 chain links
}

TEST(Threads, PoolBoundRespected) {
  // Eq. 1 sizing is enforced with a CHECK inside the kernel; surviving a
  // burst of concurrent syscalls from every VPE proves the accounting.
  DriverRig rig = MakeDriverRig(2, 8);
  for (size_t i = 0; i < 8; ++i) {
    CapSel sel = rig.Grant(i, 4096);
    size_t peer = (i + 1) % 8;
    rig.client(i).env().Delegate(sel, rig.vpe(peer), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
  }
  rig.p().RunToCompletion();
  for (KernelId k = 0; k < 2; ++k) {
    const KernelStats& stats = rig.p().kernel(k)->stats();
    EXPECT_GT(stats.threads_in_use_max, 0u);
    EXPECT_LE(stats.threads_in_use_max, rig.p().kernel(k)->ThreadPoolSize());
    EXPECT_EQ(stats.threads_in_use, 0u);  // all released
  }
}

TEST(KillVpe, RevokesEverythingIncludingRemoteChildren) {
  DriverRig rig = MakeDriverRig(2, 4);
  size_t victim = rig.client_in_kernel(0, 0);
  size_t local_peer = rig.client_in_kernel(0, 1);
  size_t remote_peer = rig.client_in_kernel(1, 0);
  CapSel sel_a = rig.Grant(victim, 4096);
  CapSel sel_b = rig.Grant(victim, 4096);
  Kernel* k0 = rig.kernel_of_client(victim);
  Kernel* k1 = rig.kernel_of_client(remote_peer);

  rig.client(victim).env().Delegate(sel_a, rig.vpe(local_peer), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  rig.client(victim).env().Delegate(sel_b, rig.vpe(remote_peer), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  size_t k1_caps_before = k1->caps().size();
  size_t local_peer_caps = k0->FindVpe(rig.vpe(local_peer))->table.size();
  ASSERT_EQ(local_peer_caps, 2u);  // VPE cap + delegated child

  bool killed = false;
  k0->AdminKillVpe(rig.vpe(victim), [&] { killed = true; });
  rig.p().RunToCompletion();
  EXPECT_TRUE(killed);

  const VpeState* dead = k0->FindVpe(rig.vpe(victim));
  ASSERT_NE(dead, nullptr);
  EXPECT_FALSE(dead->alive);
  EXPECT_EQ(dead->table.size(), 0u);
  // The delegated children are revoked recursively on both kernels.
  EXPECT_EQ(k0->FindVpe(rig.vpe(local_peer))->table.size(), 1u);  // VPE cap only
  EXPECT_EQ(k1->caps().size(), k1_caps_before - 1);
}

// A kill that finds one of the VPE's capabilities mid-revoke waits for that
// revocation: it completes only once the whole subtree is gone. The
// subtree is a chain bouncing between the two kernels, so its revocation
// takes one round trip per link, far longer than the kill's own work.
TEST(KillVpe, WaitsForCapabilityMidRevoke) {
  DriverRig rig = MakeDriverRig(2, 4);
  size_t victim = rig.client_in_kernel(0, 0);
  const size_t hops[] = {rig.client_in_kernel(1, 0), rig.client_in_kernel(0, 1),
                         rig.client_in_kernel(1, 1), rig.client_in_kernel(0, 1),
                         rig.client_in_kernel(1, 0), rig.client_in_kernel(0, 1)};
  Kernel* k0 = rig.p().kernel(0);
  CapSel root = rig.Grant(victim, 4096);
  size_t holder = victim;
  CapSel sel = root;
  for (size_t next : hops) {
    rig.client(holder).env().Delegate(sel, rig.vpe(next), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
    holder = next;
    sel = rig.kernel_of_client(holder)->FindVpe(rig.vpe(holder))->table.LastSel();
  }
  auto last_gone = [&] {
    return rig.kernel_of_client(holder)->CapOf(rig.vpe(holder), sel) == nullptr;
  };
  ASSERT_FALSE(last_gone());

  // Run until the root is marked: its revocation now walks the chain.
  rig.client(victim).env().Revoke(root, [](const SyscallReply&) {});
  for (int step = 0; step < 1000 && !k0->CapOf(rig.vpe(victim), root)->marked(); ++step) {
    rig.p().sim().RunUntil(rig.p().sim().Now() + 10);
  }
  ASSERT_TRUE(k0->CapOf(rig.vpe(victim), root)->marked());

  bool killed = false;
  k0->AdminKillVpe(rig.vpe(victim), [&] {
    killed = true;
    EXPECT_EQ(k0->CapOf(rig.vpe(victim), root), nullptr);
    EXPECT_TRUE(last_gone());
  });
  EXPECT_FALSE(killed);
  rig.p().RunToCompletion();
  EXPECT_TRUE(killed);
  EXPECT_EQ(k0->FindVpe(rig.vpe(victim))->table.size(), 0u);
  for (KernelId k = 0; k < 2; ++k) {
    EXPECT_EQ(rig.p().kernel(k)->PendingOps(), 0u) << "kernel " << k;
  }
  AuditReport report = AuditPlatform(rig.p());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(Activate, BindsMemoryEndpointAndRevokeInvalidates) {
  DriverRig rig = MakeDriverRig(1, 2);
  CapSel owner_sel = rig.Grant(1, 1 << 20);
  Kernel* kernel = rig.kernel_of_client(0);

  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  ASSERT_EQ(got.err, ErrCode::kOk);

  bool activated = false;
  rig.client(0).env().Activate(got.sel, user_ep::kMem0, [&](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
    activated = true;
  });
  rig.p().RunToCompletion();
  ASSERT_TRUE(activated);
  EXPECT_TRUE(rig.p().pe(rig.vpe(0))->dtu().EpValid(user_ep::kMem0));

  // The holder can now access memory without any kernel involvement.
  bool read_done = false;
  rig.client(0).env().ReadMem(user_ep::kMem0, 0, 4096, [&] { read_done = true; });
  rig.p().RunToCompletion();
  EXPECT_TRUE(read_done);

  // Revoking the owner's capability invalidates the obtained copy's EP:
  // NoC-level enforcement (paper §2.1/§2.2).
  rig.client(1).env().Revoke(owner_sel, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  EXPECT_FALSE(rig.p().pe(rig.vpe(0))->dtu().EpValid(user_ep::kMem0));
  EXPECT_EQ(kernel->CapOf(rig.vpe(0), got.sel), nullptr);
}

TEST(DeriveMem, CreatesRestrictedChild) {
  DriverRig rig = MakeDriverRig(1, 1);
  CapSel sel = rig.Grant(0, 1 << 20);
  SyscallReply got;
  rig.client(0).env().DeriveMem(sel, 4096, 8192, kPermR, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  ASSERT_EQ(got.err, ErrCode::kOk);
  Kernel* kernel = rig.kernel_of_client(0);
  Capability* child = kernel->CapOf(rig.vpe(0), got.sel);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->payload().mem_base, 4096u);
  EXPECT_EQ(child->payload().mem_size, 8192u);
  EXPECT_EQ(child->payload().perms, kPermR);
  Capability* parent = kernel->CapOf(rig.vpe(0), sel);
  ASSERT_EQ(parent->children().size(), 1u);
}

TEST(DeriveMem, RejectsEscalation) {
  DriverRig rig = MakeDriverRig(1, 1);
  CapSel sel = rig.kernel_of_client(0)->AdminGrantMem(rig.vpe(0), rig.p().mem_nodes()[0], 0, 4096,
                                                      kPermR);
  SyscallReply got;
  rig.client(0).env().DeriveMem(sel, 0, 4096, kPermRW, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoPerm);

  rig.client(0).env().DeriveMem(sel, 2048, 4096, kPermR, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoPerm);  // out of the parent's range

  // offset + size wraps past 2^64 to 2048, inside the parent's size.
  rig.client(0).env().DeriveMem(sel, ~uint64_t{0} - 2047, 4096, kPermR,
                                [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoPerm);
}

TEST(Noop, RoundTripCompletes) {
  DriverRig rig = MakeDriverRig(1, 1);
  bool done = false;
  auto msg = std::make_shared<SyscallMsg>();
  msg->op = SyscallOp::kNoop;
  rig.client(0).env().Syscall(msg, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    done = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// CapSpace: recycled capability records behind an open-addressed index
// ---------------------------------------------------------------------------

DdlKey RandomKey(Rng* rng) {
  return DdlKey::Make(static_cast<NodeId>(rng->NextBelow(64)),
                      static_cast<VpeId>(rng->NextBelow(64)), CapType::kMem,
                      1 + rng->NextBelow(1u << 20));
}

// Create/find/erase churn against an unordered_map reference: every live
// capability keeps its address and fields through all index growth, and
// size(), Find() and ForEach() agree with the reference after every step.
TEST(CapSpace, MatchesReferenceUnderChurn) {
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    CapSpace space;
    std::unordered_map<uint64_t, Capability*> ref;  // key -> address at creation
    std::vector<uint64_t> live;
    CapSel next_sel = 0;
    for (int step = 0; step < 20000; ++step) {
      // Grow to ~3000 live capabilities (past several index resizes), then
      // shrink back towards empty, then grow again.
      uint64_t phase = (step / 5000) % 2;
      bool create = live.empty() || rng.NextBelow(100) < (phase == 0 ? 70u : 35u);
      if (create) {
        DdlKey key = RandomKey(&rng);
        if (ref.count(key.raw()) != 0) {
          continue;
        }
        Capability* cap = space.Create(key, CapType::kMem, /*holder=*/7, next_sel++);
        cap->AddChild(DdlKey(key.raw() + 1));
        ref[key.raw()] = cap;
        live.push_back(key.raw());
      } else {
        size_t i = rng.NextBelow(live.size());
        uint64_t raw = live[i];
        live[i] = live.back();
        live.pop_back();
        space.Erase(DdlKey(raw));
        ref.erase(raw);
        ASSERT_EQ(space.Find(DdlKey(raw)), nullptr);
      }
      ASSERT_EQ(space.size(), ref.size());
      if (step % 97 == 0) {
        for (const auto& [raw, cap] : ref) {
          ASSERT_EQ(space.Find(DdlKey(raw)), cap) << "capability moved or vanished";
          ASSERT_EQ(cap->key().raw(), raw);
          ASSERT_EQ(cap->children().size(), 1u);
          ASSERT_EQ(cap->children()[0].raw(), raw + 1);
        }
        size_t visited = 0;
        space.ForEach([&](DdlKey key, Capability* cap) {
          ++visited;
          auto it = ref.find(key.raw());
          ASSERT_TRUE(it != ref.end());
          ASSERT_EQ(it->second, cap);
        });
        ASSERT_EQ(visited, ref.size());
      }
    }
  }
}

// Erase across the end of the table: entries whose probe run wraps from the
// last slot to the first must stay findable when a neighbour goes.
TEST(CapSpace, IndexDeletionAcrossWrapAround) {
  FlatIndex<int> index;
  int dummy[64] = {};
  // Fill to a fixed capacity, then find keys that probe the last slot first.
  for (uint64_t k = 1; k <= 4; ++k) {
    index.Insert(k, &dummy[k]);
  }
  size_t capacity = index.capacity();
  ASSERT_GE(capacity, 8u);
  for (uint64_t k = 1; k <= 4; ++k) {
    index.Erase(k);
  }
  std::vector<uint64_t> last;
  for (uint64_t k = 1000; last.size() < 3; ++k) {
    if (index.HomeSlot(k) == capacity - 1) {
      last.push_back(k);
    }
  }
  // Three keys homed at the last slot occupy it and wrap to slots 0 and 1.
  for (size_t i = 0; i < last.size(); ++i) {
    index.Insert(last[i], &dummy[10 + i]);
  }
  ASSERT_EQ(index.capacity(), capacity) << "the table must not have grown";
  for (size_t victim = 0; victim < last.size(); ++victim) {
    FlatIndex<int> copy;
    for (size_t i = 0; i < last.size(); ++i) {
      copy.Insert(last[i], &dummy[10 + i]);
    }
    ASSERT_EQ(copy.capacity(), capacity);
    EXPECT_EQ(copy.Erase(last[victim]), &dummy[10 + victim]);
    for (size_t i = 0; i < last.size(); ++i) {
      EXPECT_EQ(copy.Find(last[i]), i == victim ? nullptr : &dummy[10 + i])
          << "victim " << victim << ", key " << i;
    }
    EXPECT_EQ(copy.size(), last.size() - 1);
  }
  EXPECT_EQ(index.Erase(999), nullptr);
  EXPECT_EQ(index.size(), 3u);
}

// ---------------------------------------------------------------------------
// Selector and VPE tables: live entries only, iterated in ascending order
// ---------------------------------------------------------------------------

// Every query of `table` agrees with the std::map reference.
void ExpectSameTable(const CapTable& table, const std::map<CapSel, uint64_t>& ref) {
  ASSERT_EQ(table.size(), ref.size());
  ASSERT_EQ(table.LastSel(), ref.empty() ? kInvalidSel : ref.rbegin()->first);
  auto it = ref.begin();
  table.ForEach([&](CapSel sel, DdlKey key) {
    ASSERT_TRUE(it != ref.end());
    EXPECT_EQ(sel, it->first);
    EXPECT_EQ(key.raw(), it->second);
    ++it;
  });
  EXPECT_TRUE(it == ref.end());
  for (const auto& [sel, raw] : ref) {
    ASSERT_EQ(table.Find(sel).raw(), raw) << "selector " << sel;
  }
  if (!ref.empty()) {
    // Any visits in ascending order and stops at the first hit.
    auto mid = std::next(ref.begin(), static_cast<long>(ref.size() / 2));
    std::vector<CapSel> visited;
    EXPECT_TRUE(table.Any([&](CapSel sel, DdlKey) {
      visited.push_back(sel);
      return sel == mid->first;
    }));
    ASSERT_EQ(visited.size(), ref.size() / 2 + 1);
    EXPECT_EQ(visited.front(), ref.begin()->first);
  }
  EXPECT_FALSE(table.Any([](CapSel, DdlKey) { return false; }));
}

// Random set, erase and find against a std::map. Most sets append the next
// sequential selector (a new capability); the rest set a selector below the
// highest live one (migration install, which may arrive out of order),
// overwrite a live one, or use a selector near 2^32 - 1.
TEST(CapTable, MatchesReferenceUnderChurn) {
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    CapTable table;
    std::map<CapSel, uint64_t> ref;
    CapSel next_sel = 1;
    for (int step = 0; step < 20000; ++step) {
      uint64_t roll = rng.NextBelow(100);
      DdlKey key = RandomKey(&rng);
      if (roll < 35) {
        CapSel sel = next_sel++;
        table.Set(sel, key);
        ref[sel] = key.raw();
      } else if (roll < 45) {
        CapSel sel = static_cast<CapSel>(rng.NextBelow(next_sel));
        table.Set(sel, key);
        ref[sel] = key.raw();
      } else if (roll < 50 && !ref.empty()) {
        auto it = std::next(ref.begin(), static_cast<long>(rng.NextBelow(ref.size())));
        table.Set(it->first, key);
        it->second = key.raw();
        ASSERT_EQ(table.Find(it->first), key) << "overwrite of a live selector";
      } else if (roll < 53) {
        CapSel sel = kInvalidSel - 1 - static_cast<CapSel>(rng.NextBelow(8));
        table.Set(sel, key);
        ref[sel] = key.raw();
      } else if (roll < 90) {
        // Erase a live selector, or one that is not in the table.
        CapSel sel = static_cast<CapSel>(rng.NextBelow(next_sel + 1));
        if (!ref.empty() && rng.NextBelow(4) != 0) {
          sel = std::next(ref.begin(), static_cast<long>(rng.NextBelow(ref.size())))->first;
        }
        table.Erase(sel);
        ref.erase(sel);
        ASSERT_TRUE(table.Find(sel).IsNull());
      } else {
        CapSel sel = static_cast<CapSel>(rng.NextBelow(next_sel + 1));
        auto it = ref.find(sel);
        ASSERT_EQ(table.Find(sel).raw(), it == ref.end() ? 0u : it->second);
      }
      ASSERT_EQ(table.size(), ref.size());
      if (step % 97 == 0) {
        ExpectSameTable(table, ref);
      }
    }
    ExpectSameTable(table, ref);
    while (!ref.empty()) {
      table.Erase(ref.begin()->first);
      ref.erase(ref.begin());
    }
    ExpectSameTable(table, ref);
  }
}

// Insert, duplicate insert, erase and find against a std::map, with VPE ids
// spread over a platform of 20,000 PEs: every state keeps its address while
// it lives, and ForEach runs in ascending id order.
TEST(VpeTable, MatchesReferenceUnderChurn) {
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    VpeTable table;
    std::map<VpeId, VpeState*> ref;  // id -> address at insert
    for (int step = 0; step < 5000; ++step) {
      uint64_t roll = rng.NextBelow(100);
      // Grow to a few hundred VPEs, then shrink, then grow again.
      bool growing = (step / 1000) % 2 == 0;
      if (roll < (growing ? 50u : 20u)) {
        VpeState vpe;
        vpe.id = static_cast<VpeId>(rng.NextBelow(20000));
        vpe.node = vpe.id;
        vpe.next_sel = vpe.id + 7;  // marks the state as this insert's
        VpeId id = vpe.id;
        VpeState* got = table.Insert(std::move(vpe));
        if (ref.count(id) != 0) {
          ASSERT_EQ(got, nullptr) << "duplicate insert of " << id;
        } else {
          ASSERT_NE(got, nullptr);
          ref[id] = got;
        }
      } else if (roll < 60 && !ref.empty()) {
        // Duplicate insert of a live id: refused, the live state untouched.
        auto it = std::next(ref.begin(), static_cast<long>(rng.NextBelow(ref.size())));
        VpeState dup;
        dup.id = it->first;
        dup.next_sel = 1;
        ASSERT_EQ(table.Insert(std::move(dup)), nullptr);
        ASSERT_EQ(table.Find(it->first), it->second);
        ASSERT_EQ(it->second->next_sel, it->first + 7);
      } else if (roll < 85 && !ref.empty()) {
        auto it = std::next(ref.begin(), static_cast<long>(rng.NextBelow(ref.size())));
        VpeId id = it->first;
        table.Erase(id);
        ref.erase(it);
        ASSERT_EQ(table.Find(id), nullptr);
      } else {
        VpeId id = static_cast<VpeId>(rng.NextBelow(20000));
        auto it = ref.find(id);
        ASSERT_EQ(table.Find(id), it == ref.end() ? nullptr : it->second);
      }
      ASSERT_EQ(table.size(), ref.size());
      if (step % 53 == 0) {
        for (const auto& [id, state] : ref) {
          ASSERT_EQ(table.Find(id), state) << "VPE " << id << " moved or vanished";
          ASSERT_EQ(&table.At(id), state);
          ASSERT_EQ(state->id, id);
          ASSERT_EQ(state->next_sel, id + 7);
        }
        auto it = ref.begin();
        table.ForEach([&](const VpeState& vpe) {
          ASSERT_TRUE(it != ref.end());
          EXPECT_EQ(vpe.id, it->first);
          EXPECT_EQ(&vpe, it->second);
          ++it;
        });
        EXPECT_TRUE(it == ref.end());
      }
    }
  }
}

}  // namespace
}  // namespace semperos
