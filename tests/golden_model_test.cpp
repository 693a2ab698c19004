// Golden-model guard: the timing model's outputs for a small fixed
// configuration, pinned to exact values.
//
// The engine invariant (docs/benchmarks.md, "Wall-clock vs modeled cycles")
// is that wall-clock optimizations must never move modeled numbers. The
// bench-regression gate enforces that for the committed sweep curves; this
// test enforces it at unit-test granularity, so an accidental change to the
// timing model fails `ctest` loudly instead of silently shifting benchmark
// curves until someone re-reads a figure.
//
// If you *intentionally* change the timing model (new TimingModel costs, new
// protocol steps on a modeled path), re-derive these constants with the same
// configs and say so in the commit message — and expect the bench baseline
// to need a refresh too.
#include <gtest/gtest.h>

#include "system/experiment.h"

namespace semperos {
namespace {

TEST(GoldenTar, FourInstancesOnTwoKernels) {
  AppRunConfig config;
  config.app = "tar";
  config.kernels = 2;
  config.services = 2;
  config.instances = 4;
  AppRunResult r = RunApp(config);

  EXPECT_EQ(r.makespan, 5814791u);
  EXPECT_DOUBLE_EQ(r.mean_runtime_us, 2904.5275000000001);
  EXPECT_DOUBLE_EQ(r.max_runtime_us, 2907.3955000000001);
  EXPECT_EQ(r.total_cap_ops, 84u);

  const KernelStats& stats = r.outcome.kernel_stats;
  EXPECT_EQ(stats.syscalls, 166u);
  EXPECT_EQ(stats.obtains, 44u);
  EXPECT_EQ(stats.revokes, 40u);
  EXPECT_EQ(stats.derives, 40u);
  EXPECT_EQ(stats.activates, 40u);
  EXPECT_EQ(stats.sessions_opened, 4u);
  EXPECT_EQ(stats.ikc_sent, 4u);
  EXPECT_EQ(stats.caps_created, 94u);
  EXPECT_EQ(stats.caps_deleted, 80u);
}

// Crash-recovery modeled outputs for a fixed small configuration (3
// kernels, 2 clients each, kernel 1 killed at cycle 300k mid-run). These
// pin the fault-tolerance path end to end: heartbeat cadence, timeout
// suspicion, quorum verdict timing, DDL takeover, orphan revocation, and
// the stranded clients' watchdog resume. If you intentionally change the
// detector parameters or the recovery cost model, re-derive these — and
// refresh bench-results/baseline/BENCH_failover.json too.
TEST(GoldenModel, FailoverRecoveryPinnedValues) {
  FailoverConfig config;
  config.kernels = 3;
  config.users_per_kernel = 2;
  config.ops_per_client = 30;
  config.orphan_caps = 4;
  config.kill_at = 300'000;
  FailoverResult r = RunFailover(config);
  // The crash is detected, recovered from, and repaired completely.
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(r.survivor_epoch, 1u);
  EXPECT_EQ(r.total_ops, 180u);
  EXPECT_EQ(r.failed_ops, 0u);
  EXPECT_EQ(r.orphan_roots, 8u);
  EXPECT_EQ(r.seeds_revoked, 8u);
  EXPECT_EQ(r.eps_invalidated, 4u);
  EXPECT_EQ(r.pes_adopted, 2u);
  EXPECT_EQ(r.edges_pruned, 1u);
  EXPECT_EQ(r.leaked_caps, 0u);
  EXPECT_EQ(r.outcome.kernel_stats.hb_sent, 100u);
  EXPECT_EQ(r.outcome.kernel_stats.ft_suspicions, 2u);
  EXPECT_EQ(r.outcome.kernel_stats.ft_votes, 2u);
  EXPECT_EQ(r.outcome.kernel_stats.ft_failovers, 2u);
  EXPECT_EQ(r.outcome.kernel_stats.caps_created, 202u);
  EXPECT_EQ(r.outcome.kernel_stats.caps_deleted, 188u);
  EXPECT_EQ(r.outcome.kernel_stats.syscalls, 374u);
  EXPECT_EQ(r.makespan, 1069782u);
  EXPECT_EQ(r.detect_latency, 101413u);
  EXPECT_EQ(r.recover_latency, 118494u);
  EXPECT_EQ(r.adopted_ops, 60u);
  EXPECT_EQ(r.adopted_ops_post_kill, 41u);
  EXPECT_EQ(r.client_retries, 2u);
  EXPECT_EQ(r.events, 4547u);
  EXPECT_EQ(r.outcome.kernel_stats.ikc_sent, 337u);
  // The remote-DDL cache must actually engage on this workload.
  EXPECT_GT(r.outcome.kernel_stats.ddl_cache_hits, 0u);
  EXPECT_GT(r.outcome.kernel_stats.ddl_cache_misses, 0u);
}

// Single-instance modeled runtimes on a 2-kernel, 2-service system. These
// anchor the parallel-efficiency figures: every efficiency value is
// solo/parallel, so a drifting solo runtime skews whole curves.
TEST(GoldenSolo, SoloRuntimes) {
  EXPECT_DOUBLE_EQ(SoloRuntimeUs("tar", 2, 2), 2878.5720000000001);
  EXPECT_DOUBLE_EQ(SoloRuntimeUs("find", 2, 2), 2289.77);
  EXPECT_DOUBLE_EQ(SoloRuntimeUs("postmark", 2, 2), 1795.2349999999999);
}

}  // namespace
}  // namespace semperos
