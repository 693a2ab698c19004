// Parallel-vs-serial equivalence suite (sim/engine.h).
//
// The sharded engine's contract is strict: modeled results — cycle counts,
// NoC totals, kernel counters, event counts, capability outcomes — must be
// BIT-IDENTICAL to the legacy single-queue engine at any thread count. The
// shard partition is a function of the platform shape (never the thread
// count), the barrier merges cross-shard records in the serial engine's
// execution-key order (see Simulation::Entry), and driver-strand
// orchestration runs at exact-time barriers; this suite is what holds
// those mechanisms to the contract, across every workload family the repo
// models: trace-replay apps, the closed-loop Nginx experiment, mid-run PE
// migration, and kernel-crash failover.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "chaos/storm.h"
#include "system/experiment.h"
#include "traffic/traffic.h"
#include "workloads/failover.h"
#include "workloads/rebalance.h"
#include "workloads/registry.h"

namespace semperos {
namespace {

const uint32_t kThreadCounts[] = {2, 4, 8};

void ExpectSameStats(const KernelStats& a, const KernelStats& b, const char* what) {
#define SEMPEROS_EXPECT_FIELD(f) \
  EXPECT_EQ(a.f, b.f) << what << ": KernelStats::" #f " diverged from serial"
  SEMPEROS_EXPECT_FIELD(syscalls);
  SEMPEROS_EXPECT_FIELD(obtains);
  SEMPEROS_EXPECT_FIELD(delegates);
  SEMPEROS_EXPECT_FIELD(revokes);
  SEMPEROS_EXPECT_FIELD(derives);
  SEMPEROS_EXPECT_FIELD(activates);
  SEMPEROS_EXPECT_FIELD(sessions_opened);
  SEMPEROS_EXPECT_FIELD(spanning_obtains);
  SEMPEROS_EXPECT_FIELD(spanning_delegates);
  SEMPEROS_EXPECT_FIELD(spanning_revokes);
  SEMPEROS_EXPECT_FIELD(ikc_sent);
  SEMPEROS_EXPECT_FIELD(ikc_received);
  SEMPEROS_EXPECT_FIELD(ikc_flow_queued);
  SEMPEROS_EXPECT_FIELD(caps_created);
  SEMPEROS_EXPECT_FIELD(caps_deleted);
  SEMPEROS_EXPECT_FIELD(orphans_cleaned);
  SEMPEROS_EXPECT_FIELD(pointless_denials);
  SEMPEROS_EXPECT_FIELD(invalid_prevented);
  SEMPEROS_EXPECT_FIELD(revoke_reqs_queued);
  SEMPEROS_EXPECT_FIELD(migrations);
  SEMPEROS_EXPECT_FIELD(caps_migrated);
  SEMPEROS_EXPECT_FIELD(ikc_forwarded);
  SEMPEROS_EXPECT_FIELD(epoch_updates);
  SEMPEROS_EXPECT_FIELD(syscalls_frozen);
  SEMPEROS_EXPECT_FIELD(hb_sent);
  SEMPEROS_EXPECT_FIELD(hb_acked);
  SEMPEROS_EXPECT_FIELD(ft_suspicions);
  SEMPEROS_EXPECT_FIELD(ft_votes);
  SEMPEROS_EXPECT_FIELD(ft_failovers);
  SEMPEROS_EXPECT_FIELD(ft_refusals);
  SEMPEROS_EXPECT_FIELD(ft_pes_adopted);
  SEMPEROS_EXPECT_FIELD(ft_orphan_roots);
  SEMPEROS_EXPECT_FIELD(ft_edges_pruned);
  SEMPEROS_EXPECT_FIELD(ft_ikcs_aborted);
  SEMPEROS_EXPECT_FIELD(ikc_batches_sent);
  SEMPEROS_EXPECT_FIELD(ikc_batched_ops);
  SEMPEROS_EXPECT_FIELD(ikc_relays_pipelined);
  SEMPEROS_EXPECT_FIELD(ikc_late_replies);
  SEMPEROS_EXPECT_FIELD(ddl_cache_hits);
  SEMPEROS_EXPECT_FIELD(ddl_cache_misses);
  SEMPEROS_EXPECT_FIELD(user_msgs_dropped);
  SEMPEROS_EXPECT_FIELD(threads_in_use);
  SEMPEROS_EXPECT_FIELD(threads_in_use_max);
  for (size_t op = 0; op < kNumIkcOps; ++op) {
    EXPECT_EQ(a.ikc_op_sent[op], b.ikc_op_sent[op])
        << what << ": ikc_op_sent[" << IkcOpName(static_cast<IkcOp>(op))
        << "] diverged from serial";
    EXPECT_EQ(a.ikc_op_received[op], b.ikc_op_received[op])
        << what << ": ikc_op_received[" << IkcOpName(static_cast<IkcOp>(op))
        << "] diverged from serial";
  }
#undef SEMPEROS_EXPECT_FIELD
}

// --- Trace-replay apps (the determinism/golden workload family) ---

void ExpectSameAppRun(const AppRunResult& serial, const AppRunResult& parallel,
                      const char* what) {
  EXPECT_EQ(serial.makespan, parallel.makespan) << what;
  EXPECT_EQ(serial.events, parallel.events) << what;
  EXPECT_EQ(serial.total_cap_ops, parallel.total_cap_ops) << what;
  EXPECT_DOUBLE_EQ(serial.mean_runtime_us, parallel.mean_runtime_us) << what;
  EXPECT_DOUBLE_EQ(serial.max_runtime_us, parallel.max_runtime_us) << what;
  EXPECT_DOUBLE_EQ(serial.cap_ops_per_sec, parallel.cap_ops_per_sec) << what;
  EXPECT_DOUBLE_EQ(serial.mean_kernel_utilization, parallel.mean_kernel_utilization) << what;
  EXPECT_DOUBLE_EQ(serial.max_kernel_utilization, parallel.max_kernel_utilization) << what;
  EXPECT_DOUBLE_EQ(serial.mean_service_utilization, parallel.mean_service_utilization) << what;
  ExpectSameStats(serial.outcome.kernel_stats, parallel.outcome.kernel_stats, what);
}

TEST(ParallelEquivalence, PostmarkAppRun) {
  AppRunConfig config;
  config.app = "postmark";
  config.kernels = 4;
  config.services = 4;
  config.instances = 16;
  config.setup.threads = kForceSerialThreads;  // baseline stays serial under SEMPEROS_THREADS
  AppRunResult serial = RunApp(config);
  for (uint32_t threads : kThreadCounts) {
    config.setup.threads = threads;
    AppRunResult parallel = RunApp(config);
    ExpectSameAppRun(serial, parallel,
                     ("postmark --threads=" + std::to_string(threads)).c_str());
  }
}

TEST(ParallelEquivalence, TarAppRunSpanning) {
  // tar has the heaviest per-instance capability traffic; 8 kernels spread
  // the groups over every shard of the partition.
  AppRunConfig config;
  config.app = "tar";
  config.kernels = 8;
  config.services = 8;
  config.instances = 24;
  config.setup.threads = kForceSerialThreads;
  AppRunResult serial = RunApp(config);
  for (uint32_t threads : kThreadCounts) {
    config.setup.threads = threads;
    AppRunResult parallel = RunApp(config);
    ExpectSameAppRun(serial, parallel,
                     ("tar --threads=" + std::to_string(threads)).c_str());
  }
}

TEST(ParallelEquivalence, TraceFingerprintAcrossThreads) {
  // The flight recorder's merge contract (obs/trace.h): spans land in
  // per-shard rings but merge in canonical order, so the full span stream
  // — count and FNV fingerprint — is bit-identical at any parallel thread
  // count, and bit-identical across reruns.
  //
  // Serial is held to the engine's documented boundary (sim/engine.h): the
  // sharded merge key replays serial order "wherever the colliding events'
  // serial order is defined by the key". At this scale same-cycle message
  // deliveries from different shards do collide beyond the key (their
  // lineages' within-cycle order flipped at an earlier cycle), so the
  // per-message timeline legally permutes against serial while every
  // modeled aggregate — makespan, event count, span count, all kernel
  // stats — stays equal. ObsIntegration.SpanningObtainYieldsConnectedTree-
  // MatchingLatency pins exact serial-vs-parallel span equality where the
  // key does define the order.
  AppRunConfig config;
  config.app = "tar";
  config.kernels = 8;
  config.services = 8;
  config.instances = 24;
  config.setup.trace.enabled = true;
  config.setup.threads = kForceSerialThreads;
  AppRunResult serial = RunApp(config);
  EXPECT_GT(serial.outcome.spans_recorded, 0u);
  EXPECT_EQ(serial.outcome.spans_dropped, 0u);
  AppRunResult first;
  for (uint32_t threads : kThreadCounts) {
    config.setup.threads = threads;
    AppRunResult parallel = RunApp(config);
    std::string what = "traced tar --threads=" + std::to_string(threads);
    EXPECT_EQ(serial.outcome.spans_recorded, parallel.outcome.spans_recorded) << what;
    EXPECT_EQ(serial.makespan, parallel.makespan) << what;
    EXPECT_EQ(serial.events, parallel.events) << what;
    EXPECT_EQ(parallel.outcome.spans_dropped, 0u) << what;
    if (threads == kThreadCounts[0]) {
      first = parallel;
      // Rerun at the same thread count: the recorded stream itself must
      // replay bit-identically.
      AppRunResult again = RunApp(config);
      EXPECT_EQ(first.outcome.trace_fingerprint, again.outcome.trace_fingerprint)
          << what << " rerun";
    } else {
      // Worker-count independence is a hard engine guarantee: the merged
      // barrier order does not depend on how shards map to threads.
      EXPECT_EQ(first.outcome.trace_fingerprint, parallel.outcome.trace_fingerprint) << what;
    }
  }
}

TEST(ParallelEquivalence, NginxClosedLoop) {
  NginxRunConfig config;
  config.kernels = 4;
  config.services = 4;
  config.servers = 8;
  config.setup.threads = kForceSerialThreads;
  NginxRunResult serial = RunNginx(config);
  for (uint32_t threads : kThreadCounts) {
    config.setup.threads = threads;
    NginxRunResult parallel = RunNginx(config);
    EXPECT_EQ(serial.completed, parallel.completed) << "nginx --threads=" << threads;
    EXPECT_DOUBLE_EQ(serial.requests_per_sec, parallel.requests_per_sec)
        << "nginx --threads=" << threads;
  }
}

// --- Mid-run PE migration (driver-strand orchestration) ---

TEST(ParallelEquivalence, RebalanceMigration) {
  RebalanceConfig config;
  config.kernels = 4;
  config.users_per_kernel = 4;
  config.ops_per_client = 12;
  config.migrate_pes = 2;
  config.setup.threads = kForceSerialThreads;
  RebalanceResult serial = RunRebalance(config);
  for (uint32_t threads : kThreadCounts) {
    config.setup.threads = threads;
    RebalanceResult parallel = RunRebalance(config);
    std::string what = "rebalance --threads=" + std::to_string(threads);
    EXPECT_EQ(serial.total_ops, parallel.total_ops) << what;
    EXPECT_EQ(serial.makespan, parallel.makespan) << what;
    EXPECT_EQ(serial.migrations_completed, parallel.migrations_completed) << what;
    EXPECT_EQ(serial.migration_start, parallel.migration_start) << what;
    EXPECT_EQ(serial.migration_end, parallel.migration_end) << what;
    EXPECT_EQ(serial.migration_latency_max, parallel.migration_latency_max) << what;
    EXPECT_EQ(serial.forwarded_ikcs, parallel.forwarded_ikcs) << what;
    EXPECT_EQ(serial.frozen_syscalls, parallel.frozen_syscalls) << what;
    EXPECT_EQ(serial.client_retries, parallel.client_retries) << what;
    EXPECT_EQ(serial.caps_migrated, parallel.caps_migrated) << what;
    EXPECT_EQ(serial.leaked_caps, parallel.leaked_caps) << what;
    EXPECT_EQ(serial.outcome.noc.packets, parallel.outcome.noc.packets) << what;
    EXPECT_EQ(serial.outcome.noc.total_bytes, parallel.outcome.noc.total_bytes) << what;
    EXPECT_EQ(serial.outcome.noc.total_latency, parallel.outcome.noc.total_latency) << what;
    EXPECT_EQ(serial.outcome.noc.total_queueing, parallel.outcome.noc.total_queueing) << what;
    EXPECT_EQ(serial.events, parallel.events) << what;
    ExpectSameStats(serial.outcome.kernel_stats, parallel.outcome.kernel_stats, what.c_str());
  }
}

// --- Kernel-crash failover (fault injection + heartbeats + quorum) ---

TEST(ParallelEquivalence, FailoverRecovery) {
  FailoverConfig config;
  config.kernels = 4;
  config.users_per_kernel = 3;
  config.ops_per_client = 15;
  config.setup.threads = kForceSerialThreads;
  FailoverResult serial = RunFailover(config);
  ASSERT_TRUE(serial.recovered);
  for (uint32_t threads : kThreadCounts) {
    config.setup.threads = threads;
    FailoverResult parallel = RunFailover(config);
    std::string what = "failover --threads=" + std::to_string(threads);
    EXPECT_EQ(serial.total_ops, parallel.total_ops) << what;
    EXPECT_EQ(serial.failed_ops, parallel.failed_ops) << what;
    EXPECT_EQ(serial.adopted_ops, parallel.adopted_ops) << what;
    EXPECT_EQ(serial.adopted_ops_post_kill, parallel.adopted_ops_post_kill) << what;
    EXPECT_EQ(serial.makespan, parallel.makespan) << what;
    EXPECT_EQ(serial.kill_time, parallel.kill_time) << what;
    EXPECT_EQ(serial.recovered, parallel.recovered) << what;
    EXPECT_EQ(serial.detect_latency, parallel.detect_latency) << what;
    EXPECT_EQ(serial.recover_latency, parallel.recover_latency) << what;
    EXPECT_EQ(serial.survivor_epoch, parallel.survivor_epoch) << what;
    EXPECT_EQ(serial.orphan_roots, parallel.orphan_roots) << what;
    EXPECT_EQ(serial.seeds_revoked, parallel.seeds_revoked) << what;
    EXPECT_EQ(serial.eps_invalidated, parallel.eps_invalidated) << what;
    EXPECT_EQ(serial.pes_adopted, parallel.pes_adopted) << what;
    EXPECT_EQ(serial.edges_pruned, parallel.edges_pruned) << what;
    EXPECT_EQ(serial.ikcs_aborted, parallel.ikcs_aborted) << what;
    EXPECT_EQ(serial.client_retries, parallel.client_retries) << what;
    EXPECT_EQ(serial.leaked_caps, parallel.leaked_caps) << what;
    EXPECT_EQ(serial.outcome.noc.packets, parallel.outcome.noc.packets) << what;
    EXPECT_EQ(serial.outcome.noc.total_bytes, parallel.outcome.noc.total_bytes) << what;
    EXPECT_EQ(serial.outcome.noc.total_latency, parallel.outcome.noc.total_latency) << what;
    EXPECT_EQ(serial.outcome.noc.total_queueing, parallel.outcome.noc.total_queueing) << what;
    EXPECT_EQ(serial.events, parallel.events) << what;
    ExpectSameStats(serial.outcome.kernel_stats, parallel.outcome.kernel_stats, what.c_str());
  }
}

// --- Open-loop traffic harness (src/traffic) ---

// The traffic benchmark gate assumes BENCH_traffic.json is bit-identical at
// any SEMPEROS_THREADS; this pins that at the API level, including the full
// latency-histogram contents (not just the derived percentiles).
TEST(ParallelEquivalence, OpenLoopTraffic) {
  TrafficConfig config;
  config.kernels = 4;
  config.services = 4;
  config.servers = 8;
  config.arrivals.process = ArrivalProcess::kBursty;
  config.arrivals.rate_rps = 300'000.0;
  config.warmup = 500;
  config.requests = 5'000;
  config.cooldown = 200;
  config.setup.threads = kForceSerialThreads;
  TrafficResult serial = RunTraffic(config);
  for (uint32_t threads : kThreadCounts) {
    config.setup.threads = threads;
    TrafficResult parallel = RunTraffic(config);
    std::string what = "traffic --threads=" + std::to_string(threads);
    EXPECT_EQ(serial.injected, parallel.injected) << what;
    EXPECT_EQ(serial.completed, parallel.completed) << what;
    EXPECT_EQ(serial.measured, parallel.measured) << what;
    EXPECT_EQ(serial.events, parallel.events) << what;
    EXPECT_EQ(serial.makespan, parallel.makespan) << what;
    EXPECT_EQ(serial.window_open, parallel.window_open) << what;
    EXPECT_EQ(serial.window_close, parallel.window_close) << what;
    EXPECT_EQ(serial.window_drain, parallel.window_drain) << what;
    EXPECT_TRUE(serial.latency == parallel.latency) << what;
    EXPECT_EQ(serial.latency.Fingerprint(), parallel.latency.Fingerprint()) << what;
    EXPECT_DOUBLE_EQ(serial.p50_us, parallel.p50_us) << what;
    EXPECT_DOUBLE_EQ(serial.p99_us, parallel.p99_us) << what;
    EXPECT_DOUBLE_EQ(serial.p999_us, parallel.p999_us) << what;
    EXPECT_DOUBLE_EQ(serial.offered_rps, parallel.offered_rps) << what;
    EXPECT_DOUBLE_EQ(serial.throughput_rps, parallel.throughput_rps) << what;
    ExpectSameStats(serial.outcome.kernel_stats, parallel.outcome.kernel_stats, what.c_str());
  }
}

// --- Chaos storms (src/chaos): the full fault/churn/migration soup ---

// Replays the chaos regression+smoke corpus at threads 2 and 4 and asserts
// the storm's entire modeled fingerprint — work done, chaos delivered,
// end time, event count, NoC totals, every kernel counter — is
// bit-identical to the pinned-serial run. Storms drive kernel kills,
// recoveries, live migrations and client churn through the driver-strand
// barriers, so this is the harshest orchestration workload the engine has.
TEST(ParallelEquivalence, ChaosStormCorpus) {
  std::vector<std::filesystem::path> files;
  for (const auto& it : std::filesystem::directory_iterator(SEMPEROS_CHAOS_CORPUS_DIR)) {
    if (it.path().extension() == ".storms") {
      files.push_back(it.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') {
        continue;
      }
      StormConfig config;
      std::string error;
      ASSERT_TRUE(ParseChaosLine(line, &config, &error)) << error;
      config.setup.threads = kForceSerialThreads;
      StormResult serial = RunStorm(config);
      EXPECT_TRUE(serial.ok) << serial.audit.ToString();
      for (uint32_t threads : {2u, 4u}) {
        config.setup.threads = threads;
        StormResult parallel = RunStorm(config);
        std::string what = line + " --threads=" + std::to_string(threads);
        EXPECT_EQ(serial.ok, parallel.ok) << what;
        EXPECT_EQ(serial.rounds_run, parallel.rounds_run) << what;
        EXPECT_EQ(serial.audits_run, parallel.audits_run) << what;
        EXPECT_EQ(serial.ops_ok, parallel.ops_ok) << what;
        EXPECT_EQ(serial.ops_failed, parallel.ops_failed) << what;
        EXPECT_EQ(serial.kills, parallel.kills) << what;
        EXPECT_EQ(serial.migrations_started, parallel.migrations_started) << what;
        EXPECT_EQ(serial.migrations_ok, parallel.migrations_ok) << what;
        EXPECT_EQ(serial.churn_kills, parallel.churn_kills) << what;
        EXPECT_EQ(serial.recovery_refused, parallel.recovery_refused) << what;
        EXPECT_EQ(serial.end_time, parallel.end_time) << what;
        EXPECT_EQ(serial.events, parallel.events) << what;
        EXPECT_EQ(serial.outcome.noc.packets, parallel.outcome.noc.packets) << what;
        EXPECT_EQ(serial.outcome.noc.total_bytes, parallel.outcome.noc.total_bytes) << what;
        ExpectSameStats(serial.outcome.kernel_stats, parallel.outcome.kernel_stats, what.c_str());
      }
    }
  }
}

// --- Parallel self-determinism: repeated sharded runs replay exactly ---

TEST(ParallelEquivalence, ParallelRunsAreBitIdenticalAcrossRepeats) {
  AppRunConfig config;
  config.app = "sqlite";
  config.kernels = 4;
  config.services = 4;
  config.instances = 12;
  config.setup.threads = 4;
  AppRunResult a = RunApp(config);
  AppRunResult b = RunApp(config);
  ExpectSameAppRun(a, b, "sqlite threads=4 repeat");
}

}  // namespace
}  // namespace semperos
