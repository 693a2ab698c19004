// Fault-tolerance subsystem: kernel failure detection and recovery.
//
// SemperOS distributes the capability system over many kernels; the paper
// treats a kernel crash as out of scope, which leaves three hazards in a
// deployed system: the dead kernel's DDL partitions become unroutable, every
// capability subtree rooted in one of its VPEs dangles at the surviving
// kernels, and any in-flight inter-kernel call awaiting its reply wedges
// forever. This subsystem closes the gap:
//
//  * injection  — Platform::KillKernelAt schedules a deterministic simulated
//    crash: the victim's DTU goes dark (deliveries dropped, sends
//    swallowed), so peers observe loss exactly like a powered-off node;
//  * detection  — kernels exchange lightweight heartbeats on a dedicated
//    endpoint (no IKC flow-control credits are consumed, so a dead peer
//    cannot wedge the detector). A peer silent for longer than the timeout
//    is suspected; suspicion votes flow to the lowest-id unsuspected kernel
//    and a failure verdict requires a majority of ALL configured kernels —
//    a surviving minority (double failure, or a 2-kernel system) refuses
//    recovery with a clear per-kernel verdict instead of guessing;
//  * recovery   — on the verdict, every survivor applies the same
//    deterministic takeover plan (PlanTakeover): the dead kernel's DDL
//    range is re-partitioned round-robin over the survivors under one new
//    membership epoch (reusing the epoch-versioned MembershipTable of the
//    migration subsystem), adopters rebuild VPE state for the orphaned PEs
//    and retarget their syscall endpoints, every survivor prunes capability
//    tree edges pointing into the dead range and recursively revokes the
//    subtrees it holds that were rooted in dead-kernel capabilities
//    (invalidating their activated DTU endpoints), and every in-flight IKC
//    addressed to the dead kernel is completed with kUnreachable so parked
//    work unwinds instead of leaking.
//
// Everything here is opt-in: with FtConfig::enabled false (the default) no
// heartbeat is ever sent and no modeled cost changes, so all pre-existing
// benchmarks stay bit-identical.
#ifndef SEMPEROS_FT_FT_H_
#define SEMPEROS_FT_FT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "base/types.h"
#include "core/ddl.h"
#include "dtu/message.h"

namespace semperos {

// Failure-detector parameters. Heartbeats run from the moment the platform
// arms the detector until `monitor_until` (absolute simulated time); the
// bounded window keeps runs finite — a discrete-event run must go idle.
struct FtConfig {
  bool enabled = false;
  Cycles heartbeat_period = 30'000;   // ping every peer this often
  Cycles heartbeat_timeout = 90'000;  // silence threshold for suspicion
  Cycles monitor_until = 0;           // absolute time the detector disarms
  // Test-only protocol-bug injection: recovery skips the orphan-subtree
  // revocation step, leaving dangling cross-kernel parent edges behind.
  // Exists to prove the invariant auditor (src/audit) catches a real
  // protocol omission; must stay false outside the chaos harness.
  bool bug_skip_orphan_revoke = false;
};

// Per-peer failure-detector verdict, exposed for tests and workloads.
enum class FtVerdict : uint8_t {
  kAlive = 0,   // heartbeats flowing (or detector not armed)
  kSuspected,   // local timeout expired, quorum still undecided
  kFailed,      // quorum-agreed dead; recovery ran
  kNoQuorum,    // suspected by every reachable kernel, but a majority of the
                // configured kernels cannot be assembled: recovery refused
};

const char* FtVerdictName(FtVerdict v);

// Heartbeat ping/ack. Travels on a dedicated kernel endpoint outside the
// credit-based IKC flow: a dead peer must not be able to exhaust the
// 4-in-flight window and silence the detector itself.
struct HeartbeatMsg : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kHeartbeat;
  HeartbeatMsg() : MsgBody(kKind) {}

  KernelId from = kInvalidKernel;
  bool ack = false;

  uint32_t WireSize() const override { return 16; }
};

// One entry of the takeover plan: partition `pe` moves to `new_owner`.
struct TakeoverAssignment {
  NodeId pe = kInvalidNode;
  KernelId new_owner = kInvalidKernel;
};

// Deterministic re-partitioning of the dead kernel's DDL range: every PE
// currently mapped to `dead` is assigned round-robin over the surviving
// kernels in ascending id order. Every kernel (and the platform) computes
// the identical plan from its replicated membership table, so the takeover
// needs no negotiation — the quorum leader only has to mint the epoch.
// `failed(k)` is true for kernels already lost (the dead kernel itself need
// not be); they never adopt.
std::vector<TakeoverAssignment> PlanTakeover(const MembershipTable& membership, KernelId dead,
                                             uint32_t kernel_count,
                                             const std::function<bool(KernelId)>& failed);

}  // namespace semperos

#endif  // SEMPEROS_FT_FT_H_
