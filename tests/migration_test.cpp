// PE migration between kernels: epoch-versioned membership, capability
// handoff, forwarding during the settle round, and Algorithm 1 completeness
// across the handoff (the acceptance scenario of this PR).
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "audit/cap_audit.h"
#include "system/client.h"
#include "system/experiment.h"
#include "workloads/rebalance.h"

namespace semperos {
namespace {

TEST(MigrationTest, MovesVpeAndCapsToNewKernel) {
  DriverRig rig = MakeDriverRig(2, 2);
  VpeId mover = rig.vpe(0);
  ASSERT_EQ(rig.p().membership().KernelOf(mover), 0u);

  CapSel root = rig.Grant(0, 4096);
  for (int i = 0; i < 3; ++i) {
    bool ok = false;
    rig.client(0).env().DeriveMem(root, 0, 256, kPermR, [&ok](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
      ok = true;
    });
    rig.p().RunToCompletion();
    ASSERT_TRUE(ok);
  }
  Kernel* k0 = rig.p().kernel(0);
  Kernel* k1 = rig.p().kernel(1);
  size_t k0_caps = k0->caps().size();
  size_t k1_caps = k1->caps().size();
  ASSERT_EQ(k0_caps, 5u);  // self + root + 3 derived
  DdlKey root_key = k0->CapOf(mover, root)->key();

  bool done = false;
  rig.p().MigratePe(mover, 1, [&done](ErrCode err) {
    EXPECT_EQ(err, ErrCode::kOk);
    done = true;
  });
  rig.p().RunToCompletion();
  ASSERT_TRUE(done);

  // The VPE and its whole partition now live at kernel 1.
  EXPECT_EQ(k0->FindVpe(mover), nullptr);
  ASSERT_NE(k1->FindVpe(mover), nullptr);
  EXPECT_EQ(k0->caps().size(), 0u);
  EXPECT_EQ(k1->caps().size(), k0_caps + k1_caps);
  Capability* moved_root = k1->CapOf(mover, root);
  ASSERT_NE(moved_root, nullptr);
  EXPECT_EQ(moved_root->key(), root_key);
  EXPECT_EQ(moved_root->children().size(), 3u);

  // Every kernel (and the platform) observed the epoch bump.
  EXPECT_EQ(rig.p().membership().KernelOf(mover), 1u);
  EXPECT_GE(k0->config().membership.Epoch(), 1u);
  EXPECT_GE(k1->config().membership.Epoch(), 1u);
  EXPECT_EQ(k0->config().membership.KernelOf(mover), 1u);
  EXPECT_EQ(k1->config().membership.KernelOf(mover), 1u);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(MigrationTest, SyscallsRetargetToNewKernel) {
  DriverRig rig = MakeDriverRig(2, 2);
  VpeId mover = rig.vpe(0);
  CapSel root = rig.Grant(0, 4096);

  bool done = false;
  rig.p().MigratePe(mover, 1, [&done](ErrCode err) {
    EXPECT_EQ(err, ErrCode::kOk);
    done = true;
  });
  rig.p().RunToCompletion();
  ASSERT_TRUE(done);

  // The moved VPE's next syscall is served by kernel 1 (its syscall send
  // endpoint was retargeted during the handoff).
  uint64_t k1_syscalls = rig.p().kernel(1)->stats().syscalls;
  bool derived = false;
  rig.client(0).env().DeriveMem(root, 0, 128, kPermR, [&derived](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    derived = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(derived);
  EXPECT_GT(rig.p().kernel(1)->stats().syscalls, k1_syscalls);
}

TEST(MigrationTest, FrozenSyscallsAreRetriedTransparently) {
  DriverRig rig = MakeDriverRig(2, 2);
  VpeId mover = rig.vpe(0);
  CapSel root = rig.Grant(0, 4096);

  bool migrated = false;
  bool derived = false;
  Cycles t0 = rig.p().sim().Now();
  rig.p().sim().ScheduleAt(t0 + 5'000, [&] {
    rig.p().MigratePe(mover, 1, [&migrated](ErrCode err) {
      EXPECT_EQ(err, ErrCode::kOk);
      migrated = true;
    });
  });
  // Lands at the source kernel inside the freeze window.
  rig.p().sim().ScheduleAt(t0 + 5'200, [&] {
    rig.client(0).env().DeriveMem(root, 0, 128, kPermR, [&derived](const SyscallReply& r) {
      EXPECT_EQ(r.err, ErrCode::kOk);
      derived = true;
    });
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(migrated);
  EXPECT_TRUE(derived);
  EXPECT_GE(rig.p().TotalKernelStats().syscalls_frozen, 1u);
  EXPECT_GE(rig.client(0).env().syscall_retries(), 1u);
  // The derived capability exists exactly once, at the new kernel.
  EXPECT_EQ(rig.p().kernel(0)->caps().size(), 0u);
  ASSERT_NE(rig.p().kernel(1)->CapOf(mover, root), nullptr);
  EXPECT_EQ(rig.p().kernel(1)->CapOf(mover, root)->children().size(), 1u);
}

// The acceptance scenario: a cross-kernel capability tree whose owner
// migrates mid-workload; afterwards revoking the root must be complete on
// every kernel, and post-migration lookups must resolve through the new
// epoch without forwarding after one settle round.
TEST(MigrationTest, CrossKernelRevocationCompleteAcrossHandoff) {
  DriverRig rig = MakeDriverRig(3, 6);
  size_t c0 = rig.client_in_kernel(0, 0);
  size_t c1 = rig.client_in_kernel(1, 0);
  size_t c2 = rig.client_in_kernel(2, 0);
  VpeId mover = rig.vpe(c0);
  CapSel root = rig.Grant(c0, 4096);

  // Build the tree: root at kernel 0 with children in kernels 1 and 2, a
  // local derived child, and a grandchild under the kernel-1 child.
  for (size_t receiver : {c1, c2}) {
    bool ok = false;
    rig.client(c0).env().Delegate(root, rig.vpe(receiver), [&ok](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
      ok = true;
    });
    rig.p().RunToCompletion();
    ASSERT_TRUE(ok);
  }
  {
    bool ok = false;
    rig.client(c0).env().DeriveMem(root, 0, 512, kPermR, [&ok](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
      ok = true;
    });
    rig.p().RunToCompletion();
    ASSERT_TRUE(ok);
  }
  {
    // Grandchild below the kernel-1 child (deepens the cross-kernel tree).
    Kernel* k1 = rig.p().kernel(1);
    CapSel child_sel = k1->FindVpe(rig.vpe(c1))->table.LastSel();
    bool ok = false;
    rig.client(c1).env().DeriveMem(child_sel, 0, 128, kPermR, [&ok](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
      ok = true;
    });
    rig.p().RunToCompletion();
    ASSERT_TRUE(ok);
  }

  // Migrate the owning PE to kernel 2 mid-workload: other clients keep
  // obtaining from the moving root while the handoff is in flight.
  bool migrated = false;
  int obtains_ok = 0;
  Cycles t0 = rig.p().sim().Now();
  rig.p().sim().ScheduleAt(t0 + 4'000, [&] {
    rig.p().MigratePe(mover, 2, [&migrated](ErrCode err) {
      EXPECT_EQ(err, ErrCode::kOk);
      migrated = true;
    });
  });
  size_t obtainers[] = {c1, c2, rig.client_in_kernel(1, 1)};
  Cycles offsets[] = {2'000, 4'500, 9'000};
  for (int i = 0; i < 3; ++i) {
    size_t who = obtainers[i];
    rig.p().sim().ScheduleAt(t0 + offsets[i], [&, who] {
      rig.client(who).env().Obtain(mover, root, [&obtains_ok](const SyscallReply& r) {
        EXPECT_EQ(r.err, ErrCode::kOk);
        obtains_ok++;
      });
    });
  }
  rig.p().RunToCompletion();
  ASSERT_TRUE(migrated);
  EXPECT_EQ(obtains_ok, 3);
  EXPECT_EQ(rig.p().membership().KernelOf(mover), 2u);

  // After the settle round, lookups resolve through the new epoch without
  // any forwarding.
  uint64_t forwarded = rig.p().TotalKernelStats().ikc_forwarded;
  bool late_obtain = false;
  rig.client(c1).env().Obtain(mover, root, [&late_obtain](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    late_obtain = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(late_obtain);
  EXPECT_EQ(rig.p().TotalKernelStats().ikc_forwarded, forwarded);

  // Revoke the root from the moved VPE (its syscalls go to kernel 2 now).
  // The revocation must be complete: zero leaked capabilities anywhere.
  bool revoked = false;
  rig.client(c0).env().Revoke(root, [&revoked](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    revoked = true;
  });
  rig.p().RunToCompletion();
  ASSERT_TRUE(revoked);

  // Only the six self capabilities remain, distributed per current owner:
  // kernel 0 lost the mover, kernel 2 gained it.
  EXPECT_EQ(rig.p().kernel(0)->caps().size(), 1u);
  EXPECT_EQ(rig.p().kernel(1)->caps().size(), 2u);
  EXPECT_EQ(rig.p().kernel(2)->caps().size(), 3u);
  for (KernelId k = 0; k < 3; ++k) {
    EXPECT_EQ(rig.p().kernel(k)->PendingOps(), 0u) << "kernel " << k;
  }
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(MigrationTest, RevokeArrivingDuringTransferIsNotLost) {
  // A remote revocation that targets the moving partition while its
  // snapshot is in flight parks at the source and completes at the
  // destination — the subtree must be gone everywhere afterwards.
  DriverRig rig = MakeDriverRig(2, 2);
  VpeId mover = rig.vpe(0);
  CapSel root = rig.Grant(1, 4096);  // client 1 (kernel 1) owns the root

  // Delegate the root into the moving partition: child held by client 0.
  bool ok = false;
  rig.client(1).env().Delegate(root, mover, [&ok](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
    ok = true;
  });
  rig.p().RunToCompletion();
  ASSERT_TRUE(ok);

  bool migrated = false;
  bool revoked = false;
  Cycles t0 = rig.p().sim().Now();
  rig.p().sim().ScheduleAt(t0 + 4'000, [&] {
    rig.p().MigratePe(mover, 1, [&migrated](ErrCode err) {
      EXPECT_EQ(err, ErrCode::kOk);
      migrated = true;
    });
  });
  // Fired while the handoff is in progress; the REVOKE_REQ for the moved
  // child races the MIGRATE_VPE snapshot.
  rig.p().sim().ScheduleAt(t0 + 6'500, [&] {
    rig.client(1).env().Revoke(root, [&revoked](const SyscallReply& r) {
      EXPECT_EQ(r.err, ErrCode::kOk);
      revoked = true;
    });
  });
  rig.p().RunToCompletion();
  ASSERT_TRUE(migrated);
  ASSERT_TRUE(revoked);
  // Self caps only: kernel 0 has none left, kernel 1 has both VPEs'.
  EXPECT_EQ(rig.p().kernel(0)->caps().size(), 0u);
  EXPECT_EQ(rig.p().kernel(1)->caps().size(), 2u);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(MigrationTest, RoundTripMigrationRestoresOwnership) {
  DriverRig rig = MakeDriverRig(2, 2);
  VpeId mover = rig.vpe(0);
  CapSel root = rig.Grant(0, 4096);
  size_t k0_caps = rig.p().kernel(0)->caps().size();

  for (KernelId dst : {KernelId{1}, KernelId{0}}) {
    bool done = false;
    rig.p().MigratePe(mover, dst, [&done](ErrCode err) {
      EXPECT_EQ(err, ErrCode::kOk);
      done = true;
    });
    rig.p().RunToCompletion();
    ASSERT_TRUE(done);
  }

  // Back home: kernel 0 owns the partition again (no stale "migrated
  // away" state left behind) and serves the VPE's syscalls.
  EXPECT_EQ(rig.p().membership().KernelOf(mover), 0u);
  EXPECT_EQ(rig.p().kernel(0)->caps().size(), k0_caps);
  ASSERT_NE(rig.p().kernel(0)->FindVpe(mover), nullptr);
  bool derived = false;
  rig.client(0).env().DeriveMem(root, 0, 64, kPermR, [&derived](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    derived = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(derived);
}

TEST(MigrationTest, RejectsInvalidDestinations) {
  DriverRig rig = MakeDriverRig(2, 2);
  Kernel* k0 = rig.p().kernel(0);
  ErrCode self_err = ErrCode::kOk;
  k0->AdminMigratePe(rig.vpe(0), 0, [&self_err](ErrCode err) { self_err = err; });
  EXPECT_EQ(self_err, ErrCode::kInvalidArgs);
  ErrCode range_err = ErrCode::kOk;
  k0->AdminMigratePe(rig.vpe(0), 7, [&range_err](ErrCode err) { range_err = err; });
  EXPECT_EQ(range_err, ErrCode::kInvalidArgs);
}

TEST(MigrationTest, FullDestinationRefusesTheHandoff) {
  // Kernel 1 already manages kMaxVpesPerKernel VPEs, so it refuses the PE;
  // kernel 0 unfreezes it and keeps serving it.
  DriverRig rig = MakeDriverRig(2, 2 * Kernel::kMaxVpesPerKernel);
  ASSERT_EQ(rig.p().kernel(1)->vpes().size(), Kernel::kMaxVpesPerKernel);
  size_t mover = rig.client_in_kernel(0, 0);
  CapSel sel = rig.Grant(mover, 4096);
  ErrCode err = ErrCode::kOk;
  bool done = false;
  rig.p().MigratePe(rig.vpe(mover), 1, [&](ErrCode e) {
    err = e;
    done = true;
  });
  rig.p().RunToCompletion();
  ASSERT_TRUE(done);
  EXPECT_EQ(err, ErrCode::kInvalidArgs);
  EXPECT_EQ(rig.p().membership().KernelOf(rig.vpe(mover)), 0u);
  EXPECT_NE(rig.p().kernel(0)->FindVpe(rig.vpe(mover)), nullptr);
  EXPECT_EQ(rig.p().kernel(1)->FindVpe(rig.vpe(mover)), nullptr);

  bool revoked = false;
  rig.client(mover).env().Revoke(sel, [&revoked](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    revoked = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(revoked);
  AuditReport report = AuditPlatform(rig.p());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(MigrationTest, EpochBumpInvalidatesRemoteDdlCache) {
  // The remote-DDL cache must drop everything when a migration bumps the
  // membership epoch: a key cached under the old view could route to the
  // wrong kernel afterwards, so the post-bump lookup has to re-probe even
  // though the key itself did not move.
  DriverRig rig = MakeDriverRig(3, 6);

  size_t c0 = 0;
  while (rig.p().membership().KernelOf(rig.vpe(c0)) != 0) {
    ++c0;
  }
  size_t prober = 0;
  while (rig.p().membership().KernelOf(rig.vpe(prober)) != 2) {
    ++prober;
  }
  size_t mover = 0;
  while (rig.p().membership().KernelOf(rig.vpe(mover)) != 1) {
    ++mover;
  }
  CapSel root = rig.Grant(c0);
  VpeId owner = rig.vpe(c0);

  auto obtain = [&rig, prober, owner, root] {
    bool ok = false;
    rig.client(prober).env().Obtain(owner, root, [&ok](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
      ok = true;
    });
    rig.p().RunToCompletion();
    ASSERT_TRUE(ok);
  };

  obtain();  // cold: the owner's key enters kernel 2's cache
  uint64_t hits_cold = rig.p().TotalKernelStats().ddl_cache_hits;
  obtain();  // warm, same epoch: served by the cache
  EXPECT_GT(rig.p().TotalKernelStats().ddl_cache_hits, hits_cold);

  // An *unrelated* PE migrates; the owner's partition does not move, but
  // the epoch does.
  rig.Migrate(rig.vpe(mover), 0);
  EXPECT_GE(rig.p().kernel(2)->config().membership.Epoch(), 1u);

  uint64_t misses_settled = rig.p().TotalKernelStats().ddl_cache_misses;
  obtain();  // same key, new epoch: must re-probe as a miss
  EXPECT_GT(rig.p().TotalKernelStats().ddl_cache_misses, misses_settled);

  for (KernelId k = 0; k < 3; ++k) {
    EXPECT_EQ(rig.p().kernel(k)->PendingOps(), 0u) << "kernel " << k;
  }
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

// A cross-kernel tree whose owner migrates mid-workload while other
// clients keep obtaining from the moving root, then a full revocation. The
// stale-epoch obtain must travel as a pipelined relay, and the run must end
// in the per-kernel forest pinned below. The pin was captured from the
// store-and-forward proxy protocol that relays replaced: both protocols
// converge to this exact end state.
TEST(MigrationTest, MigrationStormSameEndState) {
  const char* const kPinnedDumps[] = {
      "kernel 0: 1 VPEs, 1 capabilities\n"
      "  vpe 2: 1 caps\n"
      "    sel 1: vpe key=2251937521074178\n",
      "kernel 1: 2 VPEs, 2 capabilities\n"
      "  vpe 4: 1 caps\n"
      "    sel 1: vpe key=4503874773712897\n"
      "  vpe 5: 1 caps\n"
      "    sel 1: vpe key=5629843400032258\n",
      "kernel 2: 3 VPEs, 3 capabilities\n"
      "  vpe 1: 1 caps\n"
      "    sel 1: vpe key=1125968894754817\n"
      "  vpe 7: 1 caps\n"
      "    sel 1: vpe key=7881780652670977\n"
      "  vpe 8: 1 caps\n"
      "    sel 1: vpe key=9007749278990338\n",
  };
  DriverRig rig = MakeDriverRig(3, 6);

  // Client indices per kernel (groups are laid out contiguously).
  auto client_in_kernel = [&rig](KernelId k, size_t j) {
    size_t seen = 0;
    for (size_t i = 0; i < rig.clients.size(); ++i) {
      if (rig.p().membership().KernelOf(rig.vpe(i)) == k) {
        if (seen == j) {
          return i;
        }
        ++seen;
      }
    }
    CHECK(false) << "kernel " << k << " has no client #" << j;
    return size_t{0};
  };
  size_t c0 = client_in_kernel(0, 0);
  size_t c1 = client_in_kernel(1, 0);
  size_t c2 = client_in_kernel(2, 0);
  VpeId mover = rig.vpe(c0);
  CapSel root = rig.Grant(c0);

  // Root at kernel 0 with children in kernels 1 and 2.
  for (size_t receiver : {c1, c2}) {
    bool delegated = false;
    rig.client(c0).env().Delegate(root, rig.vpe(receiver), [&delegated](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
      delegated = true;
    });
    rig.p().RunToCompletion();
    ASSERT_TRUE(delegated);
  }

  // Migrate the owner to kernel 2 while obtains race the handoff.
  bool migrated = false;
  int obtains_ok = 0;
  Cycles t0 = rig.p().sim().Now();
  rig.p().sim().ScheduleAt(t0 + 4'000, [&rig, &migrated, mover] {
    rig.p().MigratePe(mover, 2, [&migrated](ErrCode err) {
      EXPECT_EQ(err, ErrCode::kOk);
      migrated = true;
    });
  });
  size_t obtainers[] = {c1, c2, client_in_kernel(1, 1)};
  Cycles offsets[] = {2'000, 4'500, 9'000};
  for (int i = 0; i < 3; ++i) {
    size_t who = obtainers[i];
    rig.p().sim().ScheduleAt(t0 + offsets[i], [&rig, &obtains_ok, who, mover, root] {
      rig.client(who).env().Obtain(mover, root, [&obtains_ok](const SyscallReply& r) {
        EXPECT_EQ(r.err, ErrCode::kOk);
        obtains_ok++;
      });
    });
  }
  rig.p().RunToCompletion();
  ASSERT_TRUE(migrated);
  ASSERT_EQ(obtains_ok, 3);

  // Tear the whole tree down from the moved VPE.
  bool revoked = false;
  rig.client(c0).env().Revoke(root, [&revoked](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
    revoked = true;
  });
  rig.p().RunToCompletion();
  ASSERT_TRUE(revoked);

  for (KernelId k = 0; k < 3; ++k) {
    EXPECT_EQ(rig.p().kernel(k)->DumpCaps(), kPinnedDumps[k]) << "kernel " << k;
    EXPECT_EQ(rig.p().kernel(k)->PendingOps(), 0u) << "kernel " << k;
  }
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
  KernelStats stats = rig.p().TotalKernelStats();
  EXPECT_GE(stats.ikc_forwarded, 1u);
  EXPECT_GE(stats.ikc_relays_pipelined, 1u);
  EXPECT_GE(stats.ddl_cache_misses, 1u);
}

TEST(RebalanceTest, WorkloadCompletesWithZeroLeaks) {
  RebalanceConfig config;
  config.kernels = 3;
  config.users_per_kernel = 2;
  config.ops_per_client = 8;
  config.migrate_pes = 2;
  config.migrate_at = 150'000;
  RebalanceResult result = RunRebalance(config);

  EXPECT_EQ(result.total_ops, 3u * 2u * 8u);
  EXPECT_EQ(result.migrations_requested, 2u);
  EXPECT_EQ(result.migrations_completed, 2u);
  EXPECT_GT(result.migration_latency_max, 0u);
  EXPECT_GE(result.migration_end, result.migration_start);
  EXPECT_GT(result.ops_per_sec, 0.0);
  EXPECT_GT(result.caps_migrated, 0u);
  EXPECT_EQ(result.leaked_caps, 0u);
}

TEST(RebalanceTest, BaselineRunHasNoMigrationTraffic) {
  RebalanceConfig config;
  config.kernels = 3;
  config.users_per_kernel = 2;
  config.ops_per_client = 5;
  config.migrate = false;
  RebalanceResult result = RunRebalance(config);

  EXPECT_EQ(result.total_ops, 3u * 2u * 5u);
  EXPECT_EQ(result.migrations_completed, 0u);
  EXPECT_EQ(result.forwarded_ikcs, 0u);
  EXPECT_EQ(result.frozen_syscalls, 0u);
  EXPECT_EQ(result.client_retries, 0u);
  EXPECT_EQ(result.leaked_caps, 0u);
}

// One loop attempt whose obtained copy vanishes before its revoke arrives:
// the peer that owns the root is killed as soon as the copy exists, so the
// revoke comes back kNoSuchCap. Returns {ok, failed} attempts.
std::pair<uint64_t, uint64_t> LoopAttemptWithLostCopy(bool crash_watchdog) {
  PlatformConfig pc;
  pc.users = 2;
  Platform platform(pc);
  NodeId loop_pe = platform.user_nodes()[0];
  NodeId owner_pe = platform.user_nodes()[1];
  Kernel* kernel = platform.kernel(0);
  LoopClient::Params params;
  params.attempts = 1;
  params.crash_watchdog = crash_watchdog;
  auto owned = std::make_unique<LoopClient>(platform.kernel_node(0), pc.timing.ask_party, params);
  LoopClient* client = owned.get();
  platform.pe(loop_pe)->AttachProgram(std::move(owned));
  platform.pe(owner_pe)->AttachProgram(
      std::make_unique<DriverClient>(platform.kernel_node(0), pc.timing));
  client->SetLoopPeer(owner_pe, kernel->AdminGrantMem(owner_pe, platform.mem_nodes().at(0), 0,
                                                      4096, kPermRW));
  platform.Boot();
  size_t baseline = kernel->caps().size();
  while (kernel->caps().size() == baseline) {
    CHECK_LT(platform.sim().Now(), 1'000'000u) << "the obtain never completed";
    platform.sim().RunUntil(platform.sim().Now() + 1);
  }
  kernel->AdminKillVpe(owner_pe, nullptr);
  platform.RunToCompletion();
  CHECK(client->finished());
  return {client->ops_ok(), client->ops_failed()};
}

TEST(RebalanceTest, RevokeOfLostCopyFailsTheAttempt) {
  // Rebalance arms no crash watchdog: no kernel can have died, so a copy
  // missing at revoke was lost, and RunRebalance's zero-failure check fires.
  EXPECT_EQ(LoopAttemptWithLostCopy(/*crash_watchdog=*/false),
            (std::pair<uint64_t, uint64_t>{0, 1}));
  // Failover arms it: the copy may have died with a crashed kernel, which
  // from the application's view leaves the revoke done.
  EXPECT_EQ(LoopAttemptWithLostCopy(/*crash_watchdog=*/true),
            (std::pair<uint64_t, uint64_t>{1, 0}));
}

}  // namespace
}  // namespace semperos
