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
//
// The closed-loop client, its rig and its result are shared with the
// failover workload (workloads/failover.h), which disrupts the same loop
// with a kernel crash instead of migrations.
#ifndef SEMPEROS_WORKLOADS_REBALANCE_H_
#define SEMPEROS_WORKLOADS_REBALANCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/kernel.h"
#include "core/userlib.h"
#include "system/platform.h"

namespace semperos {

// The client on every user PE: obtain the peer's root capability (always
// in another group), revoke the obtained copy, think, repeat. An error ends
// the attempt, not the client: a kernel crash turns in-flight calls into
// kUnreachable or kNoSuchCap replies, and a stranded client's calls resume
// through the crash watchdog once a survivor adopted its PE. Migration is
// invisible here: frozen syscalls come back as kVpeMigrating and UserEnv
// retries them.
//
// Failover sets two things rebalance leaves off: a seed phase before
// the loop (obtain `seed_caps` capabilities from the seed peer and keep
// them, activating the first `activate_caps` on memory endpoints — the
// subtrees a kernel crash orphans), and the crash watchdog. Only with the
// watchdog armed does a revoke that finds its copy gone (kNoSuchCap) count
// as done; without it no kernel can have died, so the copy was lost.
class LoopClient : public Program {
 public:
  static constexpr Cycles kThinkTime = 2000;  // compute phase between attempts

  struct Params {
    uint32_t attempts = 0;        // obtain+revoke attempts
    bool crash_watchdog = false;  // UserEnv::EnableSyscallRetry
    uint32_t seed_caps = 0;
    uint32_t activate_caps = 0;
  };

  LoopClient(NodeId kernel_node, Cycles ask_cost, const Params& params)
      : kernel_node_(kernel_node), ask_cost_(ask_cost), params_(params) {}

  void SetLoopPeer(VpeId peer, CapSel peer_sel) {
    loop_peer_ = peer;
    loop_peer_sel_ = peer_sel;
  }
  void SetSeedPeer(VpeId peer, CapSel peer_sel) {
    seed_peer_ = peer;
    seed_peer_sel_ = peer_sel;
  }

  void Setup() override;
  void Start() override;

  bool finished() const { return ops_ok_ + ops_failed_ >= params_.attempts; }
  uint64_t ops_ok() const { return ops_ok_; }
  uint64_t ops_failed() const { return ops_failed_; }
  uint64_t retries() const { return env_->syscall_retries(); }
  const std::vector<CapSel>& seed_sels() const { return seed_sels_; }
  const std::vector<EpId>& seed_eps() const { return seed_eps_; }
  // Completion timestamps stay client-local: under the sharded engine the
  // clients run on different worker threads, so a shared vector would race.
  // LoopRig::Tally merges them after the run (every consumer is
  // order-insensitive: window counts and a max).
  const std::vector<Cycles>& completions() const { return completions_; }

 private:
  void SeedNext();
  void NextOp();
  void FinishAttempt(bool ok);

  NodeId kernel_node_;
  Cycles ask_cost_;
  Params params_;
  std::unique_ptr<UserEnv> env_;
  VpeId loop_peer_ = kInvalidVpe;
  CapSel loop_peer_sel_ = kInvalidSel;
  VpeId seed_peer_ = kInvalidVpe;
  CapSel seed_peer_sel_ = kInvalidSel;
  std::vector<CapSel> seed_sels_;
  std::vector<EpId> seed_eps_;
  std::vector<Cycles> completions_;
  uint64_t ops_ok_ = 0;
  uint64_t ops_failed_ = 0;
};

// What a closed-loop run reports, whatever disrupted it.
struct LoopResult {
  uint64_t total_ops = 0;   // successful obtain+revoke pairs
  uint64_t failed_ops = 0;  // attempts that ended in an error reply
  uint64_t client_retries = 0;
  Cycles makespan = 0;  // run start to the last completion
  double ops_per_sec = 0;
  // Throughput in equal-width windows before / during / after the
  // disruption (ops per second; zeros without one).
  double ops_per_sec_before = 0;
  double ops_per_sec_during = 0;
  double ops_per_sec_after = 0;
  // Leak check: capabilities left beyond the per-client baseline (one self
  // capability + one granted root each). Must be 0.
  uint64_t leaked_caps = 0;
  uint64_t events = 0;  // engine total, boot included
  RunOutcome outcome;
};

// `kernels` groups of `users_per_kernel` user PEs, each running a
// LoopClient and holding one granted root memory capability.
struct LoopRig {
  std::unique_ptr<Platform> platform;
  std::vector<LoopClient*> clients;  // indexed like platform->user_nodes()
  std::vector<CapSel> roots;         // client i's root capability
  std::vector<Cycles> completions;   // every client's, merged by Tally

  // Merges the clients' work since `run_start` into `result` and
  // `completions`; CHECKs that every client finished its attempts
  // (`workload` names the run in the message).
  void Tally(Cycles run_start, const char* workload, LoopResult* result);
  // Sets `result`'s window rates around the disruption [from, to) from the
  // merged completions; a zero-width window yields 0.
  void RatesAround(Cycles from, Cycles to, LoopResult* result) const;
};
LoopRig MakeLoopRig(uint32_t kernels, uint32_t users_per_kernel, const RunSetup& setup,
                    const LoopClient::Params& params);

struct RebalanceConfig {
  uint32_t kernels = 4;
  uint32_t users_per_kernel = 4;
  uint32_t ops_per_client = 30;  // obtain+revoke pairs per client
  bool migrate = true;           // false: baseline run without rebalancing
  uint32_t migrate_pes = 2;      // hot PEs drained from kernel 0
  Cycles migrate_at = 300'000;   // when the rebalancer kicks in
  RunSetup setup;
};

// The disruption windows span the migration phase.
struct RebalanceResult : LoopResult {
  // Migration outcome.
  uint32_t migrations_requested = 0;
  uint64_t migrations_completed = 0;
  Cycles migration_start = 0;    // first MigratePe issued
  Cycles migration_end = 0;      // last handoff settled
  Cycles migration_latency_max = 0;  // slowest single handoff
  // Cost of the stale-epoch window.
  uint64_t forwarded_ikcs = 0;
  uint64_t frozen_syscalls = 0;
  uint64_t caps_migrated = 0;
};

RebalanceResult RunRebalance(const RebalanceConfig& config);

}  // namespace semperos

#endif  // SEMPEROS_WORKLOADS_REBALANCE_H_
