// Fault-tolerance subsystem (src/ft): kernel failure injection, heartbeat
// detection with quorum verdicts, and distributed capability-tree recovery
// (the acceptance scenario of this PR), plus the DDL range-takeover edges:
// partition-boundary splits, a takeover racing an in-flight stale-epoch
// forward, and double-failure rejection without quorum.
#include <gtest/gtest.h>

#include <vector>

#include "audit/cap_audit.h"
#include "ft/ft.h"
#include "system/client.h"
#include "system/experiment.h"

namespace semperos {
namespace {

// --- Acceptance: mid-run kill, full recovery, adopted PEs finish ---------

TEST(FailoverTest, KillAndRecoverMidRun) {
  FailoverConfig config;
  config.kernels = 4;
  config.users_per_kernel = 3;
  config.ops_per_client = 30;
  FailoverResult r = RunFailover(config);

  // Survivors reached a quorum verdict and a new membership epoch.
  EXPECT_TRUE(r.recovered);
  EXPECT_FALSE(r.refused);
  EXPECT_GE(r.survivor_epoch, 1u);
  EXPECT_GT(r.detect_latency, 0u);
  EXPECT_GT(r.recover_latency, 0u);
  EXPECT_LT(r.recover_latency, 1'000'000u) << "recovery latency not finite/bounded";

  // Every capability subtree rooted in a dead-kernel VPE is fully revoked:
  // all seeded orphans (3 seeders x 6 caps) are gone and their activated
  // DTU endpoints were invalidated by the sweep.
  EXPECT_EQ(r.orphan_roots, 18u);
  EXPECT_EQ(r.seeds_revoked, 18u);
  EXPECT_EQ(r.eps_invalidated, 6u);
  EXPECT_GT(r.edges_pruned, 0u);

  // The dead group's PEs were adopted and completed their traces.
  EXPECT_EQ(r.pes_adopted, 3u);
  EXPECT_GT(r.adopted_ops_post_kill, 0u);
  EXPECT_GE(r.adopted_ops + r.failed_ops / 3, 3u * config.ops_per_client - 3u)
      << "adopted clients did not complete their traces";
  EXPECT_GT(r.client_retries, 0u) << "stranded clients should resume via the crash watchdog";

  // Nothing leaked, nothing was lost by the live system.
  EXPECT_EQ(r.leaked_caps, 0u);
  EXPECT_LE(r.failed_ops, 12u);  // at most the in-flight op per client
  EXPECT_EQ(r.total_ops + r.failed_ops, 12u * config.ops_per_client);
}

TEST(FailoverTest, RecoveryLatencyFiniteAcrossScalePoints) {
  // The bench_failover acceptance shape: finite recovery latency at >= 3
  // kernel-count scale points.
  for (uint32_t kernels : {3u, 4u, 8u}) {
    FailoverConfig config;
    config.kernels = kernels;
    config.users_per_kernel = 1;
    config.ops_per_client = 4;
    config.orphan_caps = 8;
    FailoverResult r = RunFailover(config);
    EXPECT_TRUE(r.recovered) << kernels << " kernels";
    EXPECT_GT(r.recover_latency, 0u) << kernels << " kernels";
    EXPECT_LT(r.recover_latency, 2'000'000u) << kernels << " kernels";
    EXPECT_EQ(r.leaked_caps, 0u) << kernels << " kernels";
  }
}

TEST(FailoverTest, BaselineWithoutKillIsCleanAndDetectorFree) {
  FailoverConfig config;
  config.kernels = 3;
  config.users_per_kernel = 2;
  config.ops_per_client = 10;
  config.kill = false;
  FailoverResult r = RunFailover(config);
  EXPECT_EQ(r.total_ops, 6u * 10u);
  EXPECT_EQ(r.failed_ops, 0u);
  EXPECT_EQ(r.heartbeats, 0u);  // detector stays disarmed
  EXPECT_EQ(r.outcome.kernel_stats.ft_failovers, 0u);
  EXPECT_EQ(r.leaked_caps, 0u);
}

// --- Detection and verdict mechanics -------------------------------------

TEST(FailoverTest, HeartbeatsDetectSilentKernelAndSurvivorsRecover) {
  DriverRig rig = MakeDriverRig(3, 3);
  for (size_t i = 0; i < 3; ++i) {
    rig.client(i).env().EnableSyscallRetry(150'000, 16);
  }
  // Resolve group membership before the takeover rewrites it.
  size_t adopted = rig.client_in_kernel(1, 0);
  size_t live = rig.client_in_kernel(0, 0);
  FtConfig ft;
  ft.heartbeat_period = 20'000;
  ft.heartbeat_timeout = 60'000;
  ft.monitor_until = rig.p().sim().Now() + 500'000;
  rig.p().StartFailureDetector(ft);
  rig.p().KillKernelAt(1, rig.p().sim().Now() + 50'000);
  rig.p().RunToCompletion();

  EXPECT_TRUE(rig.p().KernelFailed(1));
  // The auditor's I6 covers the takeover aftermath wholesale: every survivor
  // agrees on the kFailed verdict with recovery completed, no membership
  // view (kernel or platform) still routes a partition to kernel 1, and no
  // user PE is stranded on it. I5 covers zero drops.
  {
    AuditReport report = AuditPlatform(rig.p());
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_EQ(report.kernels_dead, 1u);
    EXPECT_EQ(report.kernels_unrecovered, 0u);
  }
  for (KernelId k : {0u, 2u}) {
    EXPECT_GE(rig.p().kernel(k)->config().membership.Epoch(), 1u) << "survivor " << k;
  }

  // The adopted client (its group's kernel died) can operate again: its
  // watchdog-resent syscalls land at the adopter.
  CapSel live_root = rig.Grant(live, 4096);
  bool obtained = false;
  rig.client(adopted).env().Obtain(rig.vpe(live), live_root, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    obtained = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(obtained);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(FailoverTest, ShutdownAfterRecoveryFailsFastToTheDeadPeer) {
  // Once kernel 1 is quorum-confirmed dead, kernel 0's shutdown announcement
  // to it completes at once with kUnreachable instead of waiting for a reply
  // that never comes.
  DriverRig rig = MakeDriverRig(3, 3);
  FtConfig ft;
  ft.monitor_until = rig.p().sim().Now() + 500'000;
  rig.p().StartFailureDetector(ft);
  rig.p().KillKernelAt(1, rig.p().sim().Now() + 50'000);
  rig.p().RunToCompletion();
  ASSERT_TRUE(rig.p().KernelFailed(1));

  Kernel* k0 = rig.p().kernel(0);
  uint64_t aborted = k0->stats().ft_ikcs_aborted;
  bool down = false;
  k0->AdminShutdown([&down] { down = true; });
  rig.p().RunToCompletion();
  EXPECT_TRUE(down);
  EXPECT_EQ(k0->stats().ft_ikcs_aborted, aborted + 1);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
  AuditReport report = AuditPlatform(rig.p());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// An orphan root that an in-flight revocation already marked is not revoked
// twice: recovery waits for that revocation and completes only once the
// orphaned subtree is gone.
TEST(FailoverTest, RecoveryWaitsForOrphanRootMidRevoke) {
  DriverRig rig = MakeDriverRig(3, 3);
  size_t owner = rig.client_in_kernel(1, 0);
  size_t holder = rig.client_in_kernel(0, 0);
  size_t far = rig.client_in_kernel(2, 0);
  Kernel* k0 = rig.p().kernel(0);
  Kernel* k2 = rig.p().kernel(2);
  auto delegate = [&](size_t from, CapSel sel, size_t to) {
    rig.client(from).env().Delegate(sel, rig.vpe(to), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
    return rig.kernel_of_client(to)->FindVpe(rig.vpe(to))->table.LastSel();
  };
  // root (k1) -> x (k0) -> y (k2) -> z (k1): x is orphaned when kernel 1
  // dies, and its revocation waits at kernel 2 on a REVOKE_REQ kernel 1
  // never answers, until kernel 2 recovers too.
  CapSel root = rig.Grant(owner, 4096);
  CapSel x = delegate(owner, root, holder);
  CapSel y = delegate(holder, x, far);
  delegate(far, y, owner);

  FtConfig ft;
  ft.heartbeat_period = 20'000;
  ft.heartbeat_timeout = 60'000;
  Cycles t0 = rig.p().sim().Now();
  ft.monitor_until = t0 + 500'000;
  rig.p().StartFailureDetector(ft);
  rig.p().KillKernelAt(1, t0 + 1'000);
  ErrCode revoked = ErrCode::kAborted;  // kAborted: no reply yet
  rig.p().sim().ScheduleAt(t0 + 2'000, [&] {
    rig.client(holder).env().Revoke(x, [&](const SyscallReply& r) { revoked = r.err; });
  });
  rig.p().RunToCompletion();

  EXPECT_EQ(revoked, ErrCode::kOk);
  EXPECT_TRUE(k0->ft_recovery_done());
  EXPECT_EQ(k0->stats().ft_orphan_roots, 0u);  // x was already being revoked
  EXPECT_GT(k0->ft_recovered_at(), k0->ft_verdict_at());  // and recovery waited for it
  EXPECT_EQ(k0->CapOf(rig.vpe(holder), x), nullptr);
  EXPECT_EQ(k2->CapOf(rig.vpe(far), y), nullptr);
  EXPECT_EQ(k0->PendingOps(), 0u);
  EXPECT_EQ(k2->PendingOps(), 0u);
  AuditReport report = AuditPlatform(rig.p());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(FailoverTest, DoubleFailureIsRefusedWithoutQuorum) {
  // 4 kernels, 2 killed: the 2 survivors cannot assemble a majority of the
  // configured 4 — recovery must be refused with a clear verdict, and no
  // membership change may happen (split-brain prevention).
  PlatformConfig pc;
  pc.kernels = 4;
  Platform platform(pc);
  platform.Boot();
  FtConfig ft;
  ft.heartbeat_period = 20'000;
  ft.heartbeat_timeout = 60'000;
  ft.monitor_until = platform.sim().Now() + 600'000;
  platform.StartFailureDetector(ft);
  platform.KillKernelAt(1, platform.sim().Now() + 30'000);
  platform.KillKernelAt(2, platform.sim().Now() + 30'000);
  platform.RunToCompletion();

  EXPECT_FALSE(platform.KernelFailed(1));
  EXPECT_FALSE(platform.KernelFailed(2));
  uint64_t refusals = 0;
  for (KernelId k : {0u, 3u}) {
    Kernel* kernel = platform.kernel(k);
    EXPECT_EQ(kernel->stats().ft_failovers, 0u) << "survivor " << k << " must not recover";
    EXPECT_EQ(kernel->config().membership.Epoch(), 0u);
    refusals += kernel->stats().ft_refusals;
    for (KernelId dead : {1u, 2u}) {
      FtVerdict v = kernel->ft_verdict(dead);
      EXPECT_TRUE(v == FtVerdict::kNoQuorum || v == FtVerdict::kSuspected)
          << "survivor " << k << " about " << dead << ": " << FtVerdictName(v);
    }
  }
  EXPECT_GE(refusals, 1u) << "no survivor recorded the no-quorum refusal";
  // The quorum leader's verdict is the clear status the satellite asks for.
  EXPECT_EQ(platform.kernel(0)->ft_verdict(1), FtVerdict::kNoQuorum);
  // With two unrecovered corpses the auditor runs in relaxed mode: wedged
  // state is counted, not flagged — refusal is a legal terminal state.
  AuditReport report = AuditPlatform(platform);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.kernels_unrecovered, 2u);
}

TEST(FailoverTest, TwoKernelSystemRefusesRecovery) {
  // A 1-of-2 survivor cannot distinguish a dead peer from its own
  // isolation; majority-of-configured means it must refuse.
  PlatformConfig pc;
  pc.kernels = 2;
  Platform platform(pc);
  platform.Boot();
  FtConfig ft;
  ft.heartbeat_period = 20'000;
  ft.heartbeat_timeout = 60'000;
  ft.monitor_until = platform.sim().Now() + 400'000;
  platform.StartFailureDetector(ft);
  platform.KillKernelAt(1, platform.sim().Now() + 30'000);
  platform.RunToCompletion();
  EXPECT_EQ(platform.kernel(0)->ft_verdict(1), FtVerdict::kNoQuorum);
  EXPECT_EQ(platform.kernel(0)->stats().ft_failovers, 0u);
  EXPECT_FALSE(platform.KernelFailed(1));
  AuditReport report = AuditPlatform(platform);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.kernels_unrecovered, 1u);
}

TEST(FailoverTest, RecoveryInvalidatesRemoteDdlCache) {
  // Failover is the other epoch-bump source: the takeover verdict rewrites
  // the dead kernel's partitions, so every survivor's remote-DDL cache
  // must be dropped even for keys whose partitions did not change hands —
  // post-recovery lookups have to re-probe.
  DriverRig rig = MakeDriverRig(3, 3);

  size_t c0 = 0;
  while (rig.p().membership().KernelOf(rig.vpe(c0)) != 0) {
    ++c0;
  }
  size_t prober = 0;
  while (rig.p().membership().KernelOf(rig.vpe(prober)) != 2) {
    ++prober;
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

  // Kill kernel 1 — neither the owner's nor the prober's group — and let
  // the survivors recover. The takeover bumps the epoch everywhere.
  FtConfig ft;
  ft.heartbeat_period = 20'000;
  ft.heartbeat_timeout = 60'000;
  ft.monitor_until = rig.p().sim().Now() + 500'000;
  rig.p().StartFailureDetector(ft);
  rig.p().KillKernelAt(1, rig.p().sim().Now() + 50'000);
  rig.p().RunToCompletion();
  ASSERT_TRUE(rig.p().KernelFailed(1));
  EXPECT_GE(rig.p().kernel(2)->config().membership.Epoch(), 1u);

  uint64_t misses_recovered = rig.p().TotalKernelStats().ddl_cache_misses;
  obtain();  // same key, post-recovery epoch: must re-probe as a miss
  EXPECT_GT(rig.p().TotalKernelStats().ddl_cache_misses, misses_recovered);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

// --- DDL range takeover edges ---------------------------------------------

TEST(FailoverTest, TakeoverPlanSplitsDeadRangeAtPartitionBoundaries) {
  // 8 partitions spread over 4 kernels; kernel 2 dies. The plan must cover
  // exactly kernel 2's partitions, assign each to exactly one survivor,
  // balance round-robin, and leave every other partition untouched.
  MembershipTable m(8);
  // Interleaved ownership: partition boundaries do not coincide with a
  // contiguous block of the dead kernel.
  const KernelId owner[8] = {0, 2, 1, 2, 3, 2, 0, 2};
  for (NodeId pe = 0; pe < 8; ++pe) {
    m.Assign(pe, owner[pe]);
  }
  std::vector<uint8_t> failed(4, 0);
  std::vector<TakeoverAssignment> plan = PlanTakeover(m, 2, 4, failed);
  ASSERT_EQ(plan.size(), 4u);  // exactly the dead kernel's range
  // Ascending partition order, round-robin over survivors {0, 1, 3}.
  EXPECT_EQ(plan[0].pe, 1u);
  EXPECT_EQ(plan[0].new_owner, 0u);
  EXPECT_EQ(plan[1].pe, 3u);
  EXPECT_EQ(plan[1].new_owner, 1u);
  EXPECT_EQ(plan[2].pe, 5u);
  EXPECT_EQ(plan[2].new_owner, 3u);
  EXPECT_EQ(plan[3].pe, 7u);
  EXPECT_EQ(plan[3].new_owner, 0u);  // wraps: boundary split stays balanced

  // A previously failed kernel never adopts.
  failed[0] = 1;
  plan = PlanTakeover(m, 2, 4, failed);
  ASSERT_EQ(plan.size(), 4u);
  for (const TakeoverAssignment& a : plan) {
    EXPECT_NE(a.new_owner, 0u);
    EXPECT_NE(a.new_owner, 2u);
  }
}

TEST(FailoverTest, TakeoverRacesInFlightStaleEpochForward) {
  // The migration/failover interaction: PE moves from kernel 2 to kernel 1
  // (the future victim); kernel 1 is killed while the settle round — and
  // with it the one-round stale-epoch forwarding window of MaybeForwardIkc
  // — may still be in flight. Whatever the kill lands on (transfer, settle,
  // or settled), the survivors must converge: no partition may stay routed
  // at the dead kernel, in-flight calls addressed to it unwind with
  // kUnreachable instead of wedging, and the system keeps serving.
  DriverRig rig = MakeDriverRig(3, 3);
  for (size_t i = 0; i < 3; ++i) {
    rig.client(i).env().EnableSyscallRetry(150'000, 16);
  }
  size_t mover = rig.client_in_kernel(2, 0);
  NodeId mover_pe = rig.vpe(mover);
  CapSel mover_root = rig.Grant(mover, 4096);

  FtConfig ft;
  ft.heartbeat_period = 20'000;
  ft.heartbeat_timeout = 60'000;
  Cycles t0 = rig.p().sim().Now();
  ft.monitor_until = t0 + 800'000;
  rig.p().StartFailureDetector(ft);

  ErrCode migrate_err = ErrCode::kOk;
  bool migrate_done = false;
  rig.p().sim().ScheduleAt(t0 + 5'000, [&] {
    rig.p().MigratePe(mover_pe, 1, [&](ErrCode err) {
      migrate_err = err;
      migrate_done = true;
    });
  });
  // Lands inside the transfer/settle window of the migration above (the
  // handoff takes tens of thousands of cycles end to end).
  rig.p().KillKernelAt(1, t0 + 25'000);
  // A cross-kernel op from group 0 targeting the moving partition, issued
  // while membership views may still be stale — exercising the forward
  // path into the dying kernel.
  size_t prober = rig.client_in_kernel(0, 0);
  ErrCode probe_err = ErrCode::kOk;
  bool probe_done = false;
  rig.p().sim().ScheduleAt(t0 + 26'000, [&] {
    rig.client(prober).env().Obtain(mover_pe, mover_root, [&](const SyscallReply& r) {
      probe_err = r.err;
      probe_done = true;
    });
  });
  rig.p().RunToCompletion();

  EXPECT_TRUE(migrate_done);
  EXPECT_TRUE(probe_done);
  // The probe either completed against the surviving owner or failed with
  // the clean unwind status — never a wedge, never a drop.
  EXPECT_TRUE(probe_err == ErrCode::kOk || probe_err == ErrCode::kUnreachable ||
              probe_err == ErrCode::kNoSuchCap || probe_err == ErrCode::kVpeGone)
      << ErrName(probe_err);
  // Auditor I6: survivors converged on the kFailed verdict and no
  // membership view still routes any partition at the dead kernel.
  {
    AuditReport report = AuditPlatform(rig.p());
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_EQ(report.kernels_unrecovered, 0u);
  }
  // Post-recovery the system still serves: the mover — wherever it ended up
  // (migration aborted back to kernel 2, or adopted off the dead kernel) —
  // obtains a freshly granted capability from the prober's group.
  CapSel prober_root = rig.Grant(prober, 4096);
  bool obtained = false;
  rig.client(mover).env().Obtain(rig.vpe(prober), prober_root, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    obtained = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(obtained);
}

}  // namespace
}  // namespace semperos
