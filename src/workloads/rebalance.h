// Rebalancing workload: elasticity under cross-group capability traffic.
//
// Opens the scenario family the static paper platform could not express:
// every client PE runs a closed loop of group-spanning capability
// operations (obtain a peer's capability in another group, then revoke the
// copy), and mid-run a rebalancer migrates the "hot" PEs of kernel 0 to the
// last kernel — one MigratePe handoff after another, the way an elastic
// control loop would drain an overloaded kernel. The run measures what a
// migration costs the system: handoff latency, the throughput dip while
// PEs are frozen, and how much traffic had to be forwarded or retried
// before the new membership epoch settled everywhere.
#ifndef SEMPEROS_WORKLOADS_REBALANCE_H_
#define SEMPEROS_WORKLOADS_REBALANCE_H_

#include <cstdint>
#include <vector>

#include "core/kernel.h"
#include "system/platform.h"

namespace semperos {

struct RebalanceConfig {
  uint32_t kernels = 4;
  uint32_t users_per_kernel = 4;
  uint32_t ops_per_client = 30;  // obtain+revoke pairs per client
  Cycles think_time = 2000;      // compute phase between pairs
  bool migrate = true;           // false: baseline run without rebalancing
  uint32_t migrate_pes = 2;      // hot PEs drained from kernel 0
  Cycles migrate_at = 300'000;   // when the rebalancer kicks in
  RunSetup setup;
};

struct RebalanceResult {
  uint64_t total_ops = 0;  // completed obtain+revoke pairs
  Cycles makespan = 0;     // first op start to last op completion
  double ops_per_sec = 0;
  // Migration outcome.
  uint32_t migrations_requested = 0;
  uint64_t migrations_completed = 0;
  Cycles migration_start = 0;    // first MigratePe issued
  Cycles migration_end = 0;      // last handoff settled
  Cycles migration_latency_max = 0;  // slowest single handoff
  // Throughput in equal-width windows before / during / after the
  // migration phase (ops per second; zeros when migrate == false).
  double ops_per_sec_before = 0;
  double ops_per_sec_during = 0;
  double ops_per_sec_after = 0;
  // Cost of the stale-epoch window.
  uint64_t forwarded_ikcs = 0;
  uint64_t frozen_syscalls = 0;
  uint64_t client_retries = 0;
  uint64_t caps_migrated = 0;
  // Leak check: capabilities left anywhere beyond the per-client baseline
  // (one self capability + one granted root each). Must be 0.
  uint64_t leaked_caps = 0;
  uint64_t events = 0;  // engine total, boot included
  RunOutcome outcome;
};

RebalanceResult RunRebalance(const RebalanceConfig& config);

// Completed-op rates (per second) in three equal-width windows around a
// disruption [from, to): before, during and after it. Shared with the
// failover workload; a zero-width window yields 0.
struct WindowRates {
  double before = 0;
  double during = 0;
  double after = 0;
};
WindowRates RatesAround(const std::vector<Cycles>& completions, Cycles from, Cycles to);

}  // namespace semperos

#endif  // SEMPEROS_WORKLOADS_REBALANCE_H_
