// Failover workload: crash-recovery under live cross-group traffic.
//
// Opens the scenario axis the harness could not express before src/ft:
// applications keep running while one kernel is killed mid-run. Every
// client runs a closed loop of group-spanning capability operations
// (obtain a surviving peer's capability, revoke the copy, think); on top,
// the clients of one surviving group seed themselves with capabilities
// obtained from the victim group's VPEs — and hold them, some activated on
// DTU endpoints — so the kill leaves real orphaned subtrees behind. At
// `kill_at` the victim kernel crashes; the armed failure detector times it
// out, the survivors reach a quorum verdict, re-partition the dead DDL
// range, adopt the orphaned PEs, revoke the orphaned subtrees (invalidating
// the activated endpoints), and unwedge every in-flight call. The run
// measures what the crash costs: detection and recovery latency, the
// throughput dip while the dead group's clients are stranded, and how much
// state had to be repaired.
#ifndef SEMPEROS_WORKLOADS_FAILOVER_H_
#define SEMPEROS_WORKLOADS_FAILOVER_H_

#include <cstdint>

#include "core/kernel.h"
#include "system/platform.h"
#include "workloads/rebalance.h"

namespace semperos {

struct FailoverConfig {
  uint32_t kernels = 4;
  uint32_t users_per_kernel = 3;
  uint32_t ops_per_client = 30;   // obtain+revoke attempts per client
  // Failure injection.
  bool kill = true;               // false: baseline run without a crash
  KernelId victim = 1;            // kernel to crash
  Cycles kill_at = 600'000;       // absolute kill time (after boot settles)
  // Orphan seeding: each client of group (victim+1) obtains this many
  // capabilities from its victim-group partner and keeps them...
  uint32_t orphan_caps = 6;
  // ...activating the first `activate_caps` of them on DTU memory
  // endpoints, so recovery provably invalidates them.
  uint32_t activate_caps = 2;
  RunSetup setup;
};

// The disruption windows span kill to recovered (zeros when kill ==
// false); the leak check covers the surviving kernels.
struct FailoverResult : LoopResult {
  uint64_t adopted_ops = 0;        // successes by victim-group clients...
  uint64_t adopted_ops_post_kill = 0;  // ...of which after the kill
  // Crash-recovery outcome.
  Cycles kill_time = 0;
  bool recovered = false;          // every survivor finished recovery
  bool refused = false;            // a no-quorum refusal was recorded
  Cycles detect_latency = 0;       // kill -> first quorum verdict
  Cycles recover_latency = 0;      // kill -> last survivor recovery done
  uint64_t survivor_epoch = 0;     // lowest membership epoch among survivors
  // Repair accounting.
  uint64_t orphan_roots = 0;       // orphaned subtrees revoked
  uint64_t seeds_revoked = 0;      // seeded caps verified gone post-run
  uint64_t eps_invalidated = 0;    // activated seed EPs verified invalid
  uint64_t pes_adopted = 0;
  uint64_t edges_pruned = 0;
  uint64_t ikcs_aborted = 0;
  uint64_t suspicions = 0;
  uint64_t heartbeats = 0;
};

FailoverResult RunFailover(const FailoverConfig& config);

}  // namespace semperos

#endif  // SEMPEROS_WORKLOADS_FAILOVER_H_
