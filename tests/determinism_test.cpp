// Determinism regression guard: the same configuration must produce
// bit-identical runs — modeled times, every kernel counter, NoC totals and
// engine event counts. This is what makes engine refactors (event-queue
// replacement, callback storage, message pooling) reviewable: any hidden
// ordering or lifetime change shows up here as a flat mismatch instead of a
// subtly shifted benchmark curve.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/storm.h"
#include "obs/metrics.h"
#include "system/experiment.h"
#include "traffic/traffic.h"
#include "workloads/rebalance.h"

namespace semperos {
namespace {

// Every KernelStats field, walked through the metric registry: a counter
// added to the struct is compared without being listed here.
void ExpectSameStats(const KernelStats& a, const KernelStats& b) {
  std::vector<uint64_t> expected;
  obs::ForEachKernelMetric(a, [&](const obs::MetricValue& m) { expected.push_back(m.value); });
  size_t i = 0;
  obs::ForEachKernelMetric(b, [&](const obs::MetricValue& m) {
    EXPECT_EQ(expected.at(i++), m.value) << "KernelStats::" << m.name << " diverged";
  });
}

TEST(Determinism, AppRunsAreBitIdentical) {
  AppRunConfig config;
  config.app = "postmark";
  config.kernels = 4;
  config.services = 4;
  config.instances = 16;
  AppRunResult a = RunApp(config);
  AppRunResult b = RunApp(config);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.total_cap_ops, b.total_cap_ops);
  EXPECT_DOUBLE_EQ(a.mean_runtime_us, b.mean_runtime_us);
  EXPECT_DOUBLE_EQ(a.max_runtime_us, b.max_runtime_us);
  EXPECT_DOUBLE_EQ(a.cap_ops_per_sec, b.cap_ops_per_sec);
  ExpectSameStats(a.outcome.kernel_stats, b.outcome.kernel_stats);
}

void ExpectSameNoc(const NocStats& a, const NocStats& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.total_latency, b.total_latency);
  EXPECT_EQ(a.total_queueing, b.total_queueing);
}

// One experiment run reduced to what the traced-vs-untraced comparison
// needs: its event count, the modeled numbers only that runner reports,
// and its outcome.
struct RunDigest {
  uint64_t events = 0;
  std::vector<double> modeled;
  RunOutcome outcome;
};

RunDigest DigestApp(const RunSetup& setup) {
  AppRunConfig config;
  config.app = "postmark";
  config.kernels = 4;
  config.services = 4;
  config.instances = 16;
  config.setup = setup;
  AppRunResult r = RunApp(config);
  return {r.events,
          {static_cast<double>(r.makespan), static_cast<double>(r.total_cap_ops),
           r.mean_runtime_us},
          r.outcome};
}

RunDigest DigestFailover(const RunSetup& setup) {
  FailoverConfig config;
  config.kernels = 4;
  config.users_per_kernel = 3;
  config.ops_per_client = 15;
  config.setup = setup;
  FailoverResult r = RunFailover(config);
  return {r.events,
          {static_cast<double>(r.makespan), static_cast<double>(r.total_ops),
           static_cast<double>(r.detect_latency), static_cast<double>(r.recover_latency)},
          r.outcome};
}

RunDigest DigestRebalance(const RunSetup& setup) {
  RebalanceConfig config;
  config.kernels = 4;
  config.users_per_kernel = 4;
  config.ops_per_client = 12;
  config.setup = setup;
  RebalanceResult r = RunRebalance(config);
  return {r.events,
          {static_cast<double>(r.makespan), static_cast<double>(r.total_ops),
           static_cast<double>(r.migration_end)},
          r.outcome};
}

RunDigest DigestStorm(const RunSetup& setup) {
  StormConfig config;
  config.seed = 3;
  config.setup = setup;
  StormResult r = RunStorm(config);
  EXPECT_TRUE(r.ok) << r.audit.ToString();
  return {r.events,
          {static_cast<double>(r.end_time), static_cast<double>(r.ops_ok),
           static_cast<double>(r.kills)},
          r.outcome};
}

RunDigest DigestTraffic(const RunSetup& setup) {
  TrafficConfig config;
  config.kernels = 2;
  config.services = 2;
  config.servers = 4;
  config.warmup = 50;
  config.requests = 400;
  config.setup = setup;
  TrafficResult r = RunTraffic(config);
  return {r.events,
          {static_cast<double>(r.makespan), static_cast<double>(r.completed),
           static_cast<double>(r.window_drain), r.p99_us},
          r.outcome};
}

// Complete ("X") events in a written Chrome trace file: one per span.
uint64_t TraceFileEvents(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  uint64_t n = 0;
  for (size_t at = body.find("\"ph\":\"X\""); at != std::string::npos;
       at = body.find("\"ph\":\"X\"", at + 1)) {
    ++n;
  }
  return n;
}

TEST(Determinism, ObservedRunsAreDriftFreeAndFingerprintStable) {
  // Observation is free: every modeled output of a traced run, and of a run
  // that writes a metrics timeline, must be bit-identical to the unobserved
  // run (zero modeled-cycle drift, the same end), and the span-tree
  // fingerprint must be bit-identical across reruns. Each runner takes the
  // output paths through its run setup and writes one trace event per
  // recorded span.
  struct Input {
    const char* name;
    RunDigest (*run)(const RunSetup&);
  };
  for (const Input& input : {Input{"postmark", DigestApp}, Input{"failover", DigestFailover},
                             Input{"rebalance", DigestRebalance}, Input{"storm", DigestStorm},
                             Input{"traffic", DigestTraffic}}) {
    SCOPED_TRACE(input.name);
    RunSetup traced;
    traced.trace_out = testing::TempDir() + "determinism_" + input.name + ".json";
    RunSetup sampled;
    sampled.metrics_out = testing::TempDir() + "determinism_" + input.name + "_metrics.json";
    RunDigest untraced = input.run(RunSetup());
    RunDigest a = input.run(traced);
    RunDigest b = input.run(traced);
    RunDigest m = input.run(sampled);

    for (const RunDigest* observed : {&a, &m}) {
      EXPECT_EQ(untraced.events, observed->events);
      EXPECT_EQ(untraced.modeled, observed->modeled);
      ExpectSameStats(untraced.outcome.kernel_stats, observed->outcome.kernel_stats);
      ExpectSameNoc(untraced.outcome.noc, observed->outcome.noc);
    }
    EXPECT_EQ(m.outcome.write_errors, std::vector<std::string>());
    std::remove(sampled.metrics_out.c_str());

    EXPECT_GT(a.outcome.spans_recorded, 0u);
    EXPECT_EQ(a.outcome.spans_dropped, 0u);
    EXPECT_EQ(a.outcome.spans_recorded, b.outcome.spans_recorded);
    EXPECT_EQ(a.outcome.trace_fingerprint, b.outcome.trace_fingerprint);
    EXPECT_EQ(b.outcome.write_errors, std::vector<std::string>());
    EXPECT_EQ(TraceFileEvents(traced.trace_out), b.outcome.spans_recorded);
    std::remove(traced.trace_out.c_str());
    // SEMPEROS_TRACE=1 (the CI bit-identity job) arms the control run too —
    // only check "disabled records nothing" when the env leaves it disabled.
    const char* env = std::getenv("SEMPEROS_TRACE");
    if (env == nullptr || *env == '\0' || std::string(env) == "0") {
      EXPECT_EQ(untraced.outcome.spans_recorded, 0u);  // nothing records when disabled
      EXPECT_EQ(untraced.outcome.trace_fingerprint, 0u);
    }
  }
}

TEST(Determinism, RebalanceRunsAreBitIdentical) {
  // The migration workload exercises every engine mechanism at once:
  // spanning exchanges, revocations, freezes, parking, forwarding, and the
  // epoch settle round — with identical seeds it must replay exactly.
  RebalanceConfig config;
  config.kernels = 4;
  config.users_per_kernel = 4;
  config.ops_per_client = 12;
  config.migrate_pes = 2;
  RebalanceResult a = RunRebalance(config);
  RebalanceResult b = RunRebalance(config);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.migrations_completed, b.migrations_completed);
  EXPECT_EQ(a.migration_start, b.migration_start);
  EXPECT_EQ(a.migration_end, b.migration_end);
  EXPECT_EQ(a.migration_latency_max, b.migration_latency_max);
  EXPECT_EQ(a.forwarded_ikcs, b.forwarded_ikcs);
  EXPECT_EQ(a.frozen_syscalls, b.frozen_syscalls);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(a.caps_migrated, b.caps_migrated);
  EXPECT_EQ(a.leaked_caps, b.leaked_caps);
  // NoC totals and the raw engine event count: bit-identical, not just
  // statistically close.
  EXPECT_EQ(a.outcome.noc.packets, b.outcome.noc.packets);
  EXPECT_EQ(a.outcome.noc.total_bytes, b.outcome.noc.total_bytes);
  EXPECT_EQ(a.outcome.noc.total_latency, b.outcome.noc.total_latency);
  EXPECT_EQ(a.outcome.noc.total_queueing, b.outcome.noc.total_queueing);
  EXPECT_EQ(a.events, b.events);
  ExpectSameStats(a.outcome.kernel_stats, b.outcome.kernel_stats);
}

TEST(Determinism, FailoverRunsAreBitIdentical) {
  // The crash-recovery workload exercises the whole fault-tolerance path:
  // heartbeats, timeout suspicion, quorum votes, the failover decree, DDL
  // takeover, orphan revocation, pending-IKC aborts, and watchdog-driven
  // client retries. Recovery iterates hash-table state (capability spaces,
  // pending-IKC maps) — the key-sorted collection passes exist exactly so
  // this test holds: identical configs must replay bit-identically.
  FailoverConfig config;
  config.kernels = 4;
  config.users_per_kernel = 3;
  config.ops_per_client = 15;
  FailoverResult a = RunFailover(config);
  FailoverResult b = RunFailover(config);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.failed_ops, b.failed_ops);
  EXPECT_EQ(a.adopted_ops, b.adopted_ops);
  EXPECT_EQ(a.adopted_ops_post_kill, b.adopted_ops_post_kill);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.kill_time, b.kill_time);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.detect_latency, b.detect_latency);
  EXPECT_EQ(a.recover_latency, b.recover_latency);
  EXPECT_EQ(a.survivor_epoch, b.survivor_epoch);
  EXPECT_EQ(a.orphan_roots, b.orphan_roots);
  EXPECT_EQ(a.seeds_revoked, b.seeds_revoked);
  EXPECT_EQ(a.eps_invalidated, b.eps_invalidated);
  EXPECT_EQ(a.pes_adopted, b.pes_adopted);
  EXPECT_EQ(a.edges_pruned, b.edges_pruned);
  EXPECT_EQ(a.ikcs_aborted, b.ikcs_aborted);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(a.leaked_caps, b.leaked_caps);
  // NoC totals and the raw engine event count: bit-identical.
  EXPECT_EQ(a.outcome.noc.packets, b.outcome.noc.packets);
  EXPECT_EQ(a.outcome.noc.total_bytes, b.outcome.noc.total_bytes);
  EXPECT_EQ(a.outcome.noc.total_latency, b.outcome.noc.total_latency);
  EXPECT_EQ(a.outcome.noc.total_queueing, b.outcome.noc.total_queueing);
  EXPECT_EQ(a.events, b.events);
  ExpectSameStats(a.outcome.kernel_stats, b.outcome.kernel_stats);
}

}  // namespace
}  // namespace semperos
