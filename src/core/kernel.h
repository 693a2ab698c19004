// The SemperOS microkernel (paper §3, §4).
//
// One Kernel instance runs on each kernel PE and exclusively manages the PEs
// of its group: their VPEs, their capabilities, and their DTU endpoints.
// Kernels coordinate through inter-kernel calls (IKCs) to present a single
// system image. This file implements the paper's primary contribution — the
// distributed capability management protocols:
//
//  * capability exchange (obtain/delegate) with the anomaly mitigations of
//    §4.3.2: obtain leaves the obtainer's tree untouched until the owner
//    confirmed (orphans cleaned up via notification); delegate uses a
//    two-way handshake so a revoked parent can never yield a valid child;
//  * two-phase mark-and-sweep revocation per Algorithm 1 (§4.3.3): phase 1
//    marks the subtree and fans out REVOKE_REQ IKCs for remote children;
//    phase 2 deletes the local subtree only after every remote reply
//    arrived, so completed revokes are always complete ("Incomplete"
//    anomaly); exchanges touching marked capabilities are denied
//    ("Pointless" anomaly). The paper serves incoming revoke IKCs with at
//    most two kernel threads (denial-of-service bound for capability
//    ping-pong chains). That bound is not modeled: a revoke handler runs
//    to completion within one event, reply counters drive the rest, so a
//    second request never finds a thread busy;
//  * cooperative multithreading (§4.2): operations that wait on other
//    kernels suspend as explicit pending-operation objects instead of
//    blocking the kernel, which keeps cyclic revocations (A1 -> B2 -> C1)
//    deadlock-free; the thread pool is statically sized
//    V_group + K_max * M_inflight (Eq. 1) and never grows at runtime.
//    Those objects are the kernel's operation records: one per syscall in
//    service (SyscallRec), obtain, delegate, ask, IKC in flight and
//    revocation task, held in recycled storage (base/flat.h) and found by
//    token through flat indexes. Continuations capture `this` plus a record
//    pointer or token. A SyscallRec, or an owner-side ObtainOp, is one held
//    thread, which waits on at most one ask and one IKC record at a time,
//    so Eq. 1 bounds the request path's records; revocation tasks follow
//    the capability trees. The pools grow to the peak live count once and
//    then recycle, and the request path allocates nothing in steady state;
//  * kernel-to-kernel flow control (§4.1): at most `max_inflight` (4)
//    request messages per peer kernel are in flight; excess requests queue
//    at the sender so DTU receive slots can never overflow;
//  * PE migration (beyond the paper, which kept the membership table
//    static): a PE's VPE and capability partition move between kernels via
//    MIGRATE_VPE, the replicated DDL membership table is epoch-versioned
//    and converges through EPOCH_UPDATE broadcasts, and the previous owner
//    forwards stale-epoch requests for exactly one settle round — so
//    Algorithm 1's completeness guarantee holds across the handoff.
//
// Execution model: the kernel PE is a serial resource (one single-threaded
// core, §4.2). Message handlers mutate kernel state in arrival order and
// charge their modelled cycle cost to the PE's executor; outgoing messages
// become visible when the handler's cost has elapsed. Interleavings between
// suspended operations correspond to the paper's preemption points.
#ifndef SEMPEROS_CORE_KERNEL_H_
#define SEMPEROS_CORE_KERNEL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/flat.h"
#include "base/status.h"
#include "base/types.h"
#include "core/capability.h"
#include "core/ddl.h"
#include "core/protocol.h"
#include "core/timing.h"
#include "ft/ft.h"
#include "obs/trace.h"
#include "pe/pe.h"
#include "sim/inline_fn.h"

namespace semperos {

// Aggregate counters exposed for benchmarks and tests.
struct KernelStats {
  uint64_t syscalls = 0;
  uint64_t obtains = 0;
  uint64_t delegates = 0;
  uint64_t revokes = 0;
  uint64_t derives = 0;
  uint64_t activates = 0;
  uint64_t sessions_opened = 0;
  uint64_t spanning_obtains = 0;
  uint64_t spanning_delegates = 0;
  uint64_t spanning_revokes = 0;
  uint64_t ikc_sent = 0;
  uint64_t ikc_received = 0;
  uint64_t ikc_flow_queued = 0;     // requests delayed by the 4-in-flight cap
  uint64_t caps_created = 0;
  uint64_t caps_deleted = 0;
  uint64_t orphans_cleaned = 0;     // "Orphaned" anomaly cleanups
  uint64_t pointless_denials = 0;   // exchanges denied on marked caps
  uint64_t invalid_prevented = 0;   // delegate acks failed: parent revoked
  // Always 0: a REVOKE_REQ handler runs to completion in one event, so no
  // request ever waited for a revocation thread. Kept because the
  // repository benchmark (perfbench/driver.cpp) reads it.
  uint64_t revoke_reqs_queued = 0;
  // PE migration (dynamic membership).
  uint64_t migrations = 0;          // completed as the source kernel
  uint64_t caps_migrated = 0;       // records packed (source) or installed (dest)
  uint64_t ikc_forwarded = 0;       // stale-epoch requests relayed to the owner
  uint64_t epoch_updates = 0;       // EPOCH_UPDATE IKCs applied
  uint64_t syscalls_frozen = 0;     // syscalls answered with kVpeMigrating
  // Fault tolerance (src/ft).
  uint64_t hb_sent = 0;             // heartbeat pings sent
  uint64_t hb_acked = 0;            // heartbeat acknowledgements received
  uint64_t ft_suspicions = 0;       // peers locally declared silent
  uint64_t ft_votes = 0;            // distinct suspicion votes tallied (leader)
  uint64_t ft_failovers = 0;        // failure verdicts applied (recoveries run)
  uint64_t ft_refusals = 0;         // verdicts refused for lack of quorum
  uint64_t ft_pes_adopted = 0;      // dead-group PEs taken over by this kernel
  uint64_t ft_orphan_roots = 0;     // orphaned subtrees revoked at recovery
  uint64_t ft_edges_pruned = 0;     // tree edges into the dead range dropped
  uint64_t ft_ikcs_aborted = 0;     // pending IKCs to a dead kernel unwedged
  // Multi-op IKCs, pipelined stale-epoch relays and the remote-DDL cache.
  uint64_t ikc_batches_sent = 0;      // kRevokeBatchReq requests sent
  uint64_t ikc_batched_ops = 0;       // child keys those requests carried
  uint64_t ikc_relays_pipelined = 0;  // stale requests relayed onward to the owner
  uint64_t ikc_late_replies = 0;      // replies whose token matched no pending IKC
  uint64_t ddl_cache_hits = 0;        // remote-DDL lookups served by the cache
  uint64_t ddl_cache_misses = 0;      // remote-DDL lookups that paid the full decode
  // Untrusted user PEs: messages dropped without a reply — a body that is
  // not a syscall on a syscall gate; an ask reply that is not an AskReply,
  // names no pending ask, or comes from a PE that was not asked. No other
  // kernel endpoint hears from a user PE (docs/architecture.md, "How the
  // kernel answers").
  uint64_t user_msgs_dropped = 0;
  // Per-IKC-type logical send/receive counts.
  uint64_t ikc_op_sent[kNumIkcOps] = {};
  uint64_t ikc_op_received[kNumIkcOps] = {};
  uint32_t threads_in_use = 0;
  uint32_t threads_in_use_max = 0;
};

// One system call in service at its kernel, from arrival to reply: the
// syscall message (the reply names its receive endpoint and slot) plus its
// open kSyscall span. Operations that suspend on the call's behalf point here.
struct SyscallRec {
  VpeId vpe = kInvalidVpe;
  EpId recv_ep = 0;
  Message msg;
  // Observability: opened at arrival (span_id 0 when untraced) so IKCs and
  // asks issued on the call's behalf parent under it; ReplySyscall closes it.
  obs::Span span;
  uint32_t pool_slot = 0;  // RecordPool bookkeeping
};

// A revocation in progress (one per revoke root per kernel). Implements the
// bookkeeping of Algorithm 1: a counter of outstanding remote replies and
// the deferred sweep. Kernel::StartRevoke creates every task.
struct RevokeTask {
  uint64_t id = 0;
  DdlKey root;
  uint32_t outstanding = 0;  // remote REVOKE_REQs + local-task dependencies
  // The starting thread paused on remote replies (only a syscall does,
  // paper §4.2); it pays the resume when the task completes.
  bool suspended = false;
  // Parent to unlink the root from once the subtree is gone (null for a
  // REVOKE_REQ, whose requesting kernel's own revocation covers the parent,
  // and for a failover orphan, whose parent died with its kernel).
  DdlKey parent_unlink;
  // The one completion: answers whoever started the revocation (the
  // syscall, the requesting kernel, a kill or recovery countdown).
  InlineFn done;
  // Tasks / requests waiting for this task's completion (overlapping
  // revokes; "revoke_syscall_hdlr will also wait for the already
  // outstanding kernel replies", §4.3.3).
  std::vector<InlineFn> on_complete;
  // Remote children discovered by the marking pass with their owning
  // kernel, in discovery order; flushed grouped by kernel in ascending
  // kernel order, as one request per child, or one per peer when
  // revocation batching is enabled.
  struct RemoteChild {
    KernelId kernel = kInvalidKernel;
    DdlKey key;
  };
  std::vector<RemoteChild> remote_children;

  // RecordPool bookkeeping: recycling keeps both vectors' capacity.
  uint32_t pool_slot = 0;
  void Reset() {
    std::vector<InlineFn> hooks = std::move(on_complete);
    std::vector<RemoteChild> remote = std::move(remote_children);
    hooks.clear();
    remote.clear();
    uint32_t slot = pool_slot;
    *this = RevokeTask();
    on_complete = std::move(hooks);
    remote_children = std::move(remote);
    pool_slot = slot;
  }
};

// A PE migration in progress at the source kernel. Three phases:
//   kQuiesce  — the VPE is frozen (syscalls/exchanges denied with the
//               retryable kVpeMigrating); the source polls until every
//               in-flight operation touching the moving partition drained;
//   kTransfer — the partition snapshot is in flight to the destination;
//               requests for the moving partition park here and are
//               re-dispatched (and then forwarded) once the handoff landed;
//   kSettle   — the destination owns the partition; the source broadcast
//               EPOCH_UPDATE and waits for every peer's acknowledgement.
//               Pairwise-FIFO channels guarantee that no stale request can
//               arrive after its sender's ack, so when the last ack is in,
//               forwarding is provably no longer needed (one settle round).
struct MigrateTask {
  enum class Phase { kQuiesce, kTransfer, kSettle };

  uint64_t id = 0;
  NodeId pe = kInvalidNode;
  KernelId dst = kInvalidKernel;
  Phase phase = Phase::kQuiesce;
  uint64_t epoch = 0;          // membership epoch assigned to the handoff
  uint32_t outstanding = 0;    // EPOCH_UPDATE acks still missing
  uint32_t quiesce_polls = 0;
  Callback<void(ErrCode)> done;
  // Requests for the moving partition that arrived during kTransfer.
  std::vector<Message> parked;
  // Locally-originated tree unlinks against the moving partition that
  // arrived after its snapshot was packed. Applying them to the local copy
  // would be silently lost when the destination installs the (stale)
  // snapshot; they re-run once the handoff resolved — routed to the new
  // owner on success, applied locally on refusal.
  std::vector<InlineFn> deferred_unlinks;
  // Observability: migrations originate at the platform, so they root their
  // own trace; the kMigration span covers freeze -> settled. The transfer
  // IKC and the settle-round EPOCH_UPDATEs nest under it.
  obs::Span span;
};

class Kernel : public Program {
 public:
  // DTU endpoint layout of a kernel PE (paper §5.1): 2 send + 14 receive.
  // EP 0 receives replies from asked parties/services, EP 1 carries the
  // failure detector's heartbeats (outside the credit-based IKC flow, so a
  // dead peer cannot wedge detection), EPs 2..7 receive system calls
  // (6 x 32 slots = 192 VPEs max per kernel), EPs 8..15 receive
  // inter-kernel calls (8 x 32 slots; 4 in flight per peer => 64 kernels
  // max).
  static constexpr EpId kEpAskReply = 0;
  static constexpr EpId kEpHeartbeat = 1;
  static constexpr EpId kEpSyscall0 = 2;
  static constexpr uint32_t kNumSyscallEps = 6;
  static constexpr EpId kEpKernel0 = 8;
  static constexpr uint32_t kNumKernelEps = 8;
  static constexpr uint32_t kMaxVpesPerKernel = kNumSyscallEps * 32;
  static constexpr uint32_t kMaxKernels = 64;
  static constexpr uint32_t kServiceAskInflight = 64;  // kernel -> party ask window
  static constexpr uint32_t kMaxQuiescePolls = 1'000'000;  // migration quiesce bound

  struct Config {
    KernelId id = 0;
    TimingModel timing;
    // PE -> kernel, replicated: every kernel's copy shares the platform's
    // boot-time table until a migration or failover changes it here.
    MembershipTable membership;
    std::vector<NodeId> kernel_nodes;    // kernel id -> kernel PE
    uint32_t max_inflight = 4;           // M_inflight per peer kernel
    // Extension (paper §5.2 future work): batch all REVOKE_REQs to the
    // same peer kernel into one message instead of one per child.
    bool revoke_batching = false;
    // Fault tolerance (src/ft): `pe_types` lets adopters rebuild VPE state
    // for a dead group's PEs; `on_failover` lets the platform mirror the
    // membership changes a quorum leader decrees mid-run.
    // node -> tile type. Read-only, one list for the whole platform.
    std::shared_ptr<const std::vector<PeType>> pe_types;
    // Invoked by a quorum leader with the decreed takeover plan, so the
    // platform mirrors exactly what the kernels applied (no recompute).
    std::function<void(KernelId dead, uint64_t epoch, const std::vector<TakeoverAssignment>&)>
        on_failover;
  };

  explicit Kernel(Config config);

  // --- Program interface ---
  void Start() override;

  // --- Platform/admin interface (boot-time wiring and tests) ---

  // Registers a VPE running on `node` with this kernel. Must happen before
  // the VPE issues system calls.
  void AdminCreateVpe(NodeId node, bool is_service);

  // Installs a root memory capability (selector returned) for `vpe`,
  // covering [base, base+size) on memory tile `mem_node`. Used at boot to
  // give services their filesystem image region.
  CapSel AdminGrantMem(VpeId vpe, NodeId mem_node, uint64_t base, uint64_t size, uint32_t perms);

  // Kills a VPE: marks it dead and revokes every capability it holds.
  // `done` fires when all revocations completed.
  void AdminKillVpe(VpeId vpe, InlineFn done);

  // Migrates the PE (and its VPE + capability partition) from this kernel
  // to `dst`: freezes the VPE, quiesces in-flight operations on the moving
  // partition, transfers the state with a MIGRATE_VPE IKC, retargets the
  // PE's syscall endpoint, and broadcasts the membership change as an
  // epoch-versioned EPOCH_UPDATE. `done` fires with kOk once every peer
  // acknowledged the new epoch (no more forwarding needed), with an error
  // if the migration could not start, or with kAborted (the VPE unfrozen
  // where it was) if the partition did not quiesce within
  // kMaxQuiescePolls polls: a party that never answers an ask holds it.
  void AdminMigratePe(NodeId pe, KernelId dst, Callback<void(ErrCode)> done);

  // Graceful shutdown (IKC functional group 1, paper §4.1): kills every
  // VPE of this group (revoking all their capabilities, including remote
  // copies), refuses further system calls, and notifies all peer kernels.
  // `done` fires when the teardown settled.
  void AdminShutdown(InlineFn done);
  bool shutting_down() const { return shutting_down_; }

  // --- Fault tolerance (src/ft) ---

  // Simulated crash: freezes this kernel's state mid-flight and powers the
  // node off at the interconnect (no announcement, unlike AdminShutdown —
  // peers only observe silence). Driven by Platform::KillKernelAt.
  void AdminKill();
  bool dead() const { return dead_; }

  // Arms the failure detector: heartbeats every live peer each
  // `ft.heartbeat_period` cycles until `ft.monitor_until` (absolute time).
  // A peer silent for `ft.heartbeat_timeout` is suspected; suspicion votes
  // flow to the lowest-id unsuspected kernel, which applies and broadcasts
  // the failure verdict once a majority of all configured kernels concurs.
  void AdminStartFailureDetector(const FtConfig& ft);

  // This kernel's current verdict about `peer`.
  FtVerdict ft_verdict(KernelId peer) const;
  // When the last failure verdict was applied / the last recovery finished
  // (all orphaned subtrees revoked and pending IKCs unwedged) here; 0 if
  // never. Workloads use these for detection/recovery latency.
  Cycles ft_verdict_at() const { return ft_verdict_at_; }
  Cycles ft_recovered_at() const { return ft_recovered_at_; }
  bool ft_recovery_done() const { return ft_pending_recovery_ == 0 && ft_recovered_at_ != 0; }

  // --- Introspection ---
  // Human-readable dump of this kernel's capability forest (per VPE:
  // selector, type, DDL key, parent and child edges). Cross-kernel edges
  // are marked with the owning kernel id.
  std::string DumpCaps() const;

  KernelId id() const { return config_.id; }
  const KernelStats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  bool booted() const { return booted_; }
  const VpeState* FindVpe(VpeId vpe) const;
  Capability* FindCap(DdlKey key) const { return caps_.Find(key); }
  const CapSpace& caps() const { return caps_; }
  // Read-only view of every VPE this kernel manages (src/audit walks it).
  const VpeTable& vpes() const { return vpes_; }
  Capability* CapOf(VpeId vpe, CapSel sel) const;
  size_t PendingOps() const {
    return obtains_.size() + delegates_.size() + revoke_tasks_.size() + parked_delegates_.size() +
           asks_.size() + ikcs_.size() + migrate_tasks_.size();
  }
  // Per-class counts of the suspended operations behind PendingOps(), for
  // diagnostics ("what exactly is wedged"): obtains, delegates, revokes,
  // parked delegates, asks, in-flight IKCs, migrations.
  std::string PendingOpsBreakdown() const {
    std::string s;
    auto add = [&s](const char* name, size_t n) {
      if (n != 0) {
        s += s.empty() ? "" : ", ";
        s += std::to_string(n) + " " + name;
      }
    };
    add("obtains", obtains_.size());
    add("delegates", delegates_.size());
    add("revokes", revoke_tasks_.size());
    add("parked delegates", parked_delegates_.size());
    add("asks", asks_.size());
    add("ikcs", ikcs_.size());
    add("migrations", migrate_tasks_.size());
    return s;
  }
  uint32_t ThreadPoolSize() const;  // Eq. 1: V_group + K_max * M_inflight
  uint32_t PeerCount() const { return static_cast<uint32_t>(config_.kernel_nodes.size()) - 1; }

  // Called by the platform once all programs configured their endpoints;
  // downgrades every user DTU in the group (NoC-level isolation).
  void FinishBoot(const std::vector<ProcessingElement*>& group_pes);

  // Frees the storage the boot handshake left behind: parked operation
  // records, and the index tables and queues that hold nothing. The
  // platform calls it once boot settled (base/flat.h).
  void Trim();

 private:
  // ===== Pending distributed operations (suspended kernel threads) =====
  // Operation records (see the file comment): each lives in a RecordPool
  // from the moment the operation starts until it completes.

  using AskCallback = Callback<void(const AskReply&)>;
  using IkcCallback = Callback<void(const IkcReply&)>;

  // An obtain, open-session or session exchange. On the obtainer's kernel
  // `sc` is the syscall; a group-spanning one is also indexed in obtains_
  // while its IKC is out. On the owner's kernel of a spanning obtain `sc`
  // is null and `ikc_msg` is the request to answer. The result travels in
  // the record to the reply.
  struct ObtainOp {
    uint64_t token = 0;
    SyscallRec* sc = nullptr;
    DdlKey child_key;        // key proposed for the new capability
    VpeId client = kInvalidVpe;
    bool open_session = false;
    NodeId service_node = kInvalidNode;  // for session EP setup
    // Owner side: the ask and the capability it anchors at.
    AskOp ask_op = AskOp::kObtain;
    VpeId owner_vpe = kInvalidVpe;
    // Owner side of a spanning obtain: the IKC request to answer.
    Message ikc_msg;
    // Result, carried to the syscall reply.
    CapSel sel = kInvalidSel;
    CapPayload payload;
    MsgRef opaque;
    uint32_t pool_slot = 0;
  };

  // A delegate. On the delegator's kernel `sc` is the syscall (indexed in
  // delegates_ while a spanning request is out); on the receiver's kernel
  // of a spanning delegate `ikc_msg` is the request to answer and the rest
  // describes the offered capability.
  struct DelegateOp {
    uint64_t token = 0;
    SyscallRec* sc = nullptr;
    DdlKey cap;  // the delegated (parent) capability, owned locally
    VpeId client = kInvalidVpe;
    VpeId peer = kInvalidVpe;
    Message ikc_msg;
    CapPayload payload;
    uint32_t pool_slot = 0;
  };

  // A completion that waits for several others: a VPE kill and a failover
  // recovery for their revocations, a revoke batch for its keys, a
  // shutdown for its kills and the peers' acknowledgements. `pending`
  // counts the open waits plus one the opener drops (Arrive) once it
  // registered them all.
  struct Countdown {
    uint32_t pending = 1;
    InlineFn done;
    uint32_t pool_slot = 0;
  };

  // Receiver-side parked delegate (two-way handshake, waiting for the ACK).
  struct ParkedDelegate {
    DdlKey child_key;
    DdlKey parent_key;
    VpeId receiver = kInvalidVpe;
    CapPayload payload;
    uint32_t pool_slot = 0;
  };

  // Ask sent to a party/service, waiting for the AskReply. Carries the
  // asked node so migration quiesce can tell whether an exchange-ask still
  // targets the moving partition (one index, one entry per ask), and so a
  // reply from any other PE is dropped.
  struct PendingAsk {
    uint64_t token = 0;
    NodeId node = kInvalidNode;
    AskCallback cb;
    // Observability: the open kAsk span (round trip to the party). Its trace
    // and parent are the context restored before `cb` runs, so spans caused
    // by the continuation stay linked to the request.
    obs::Span span;
    uint32_t pool_slot = 0;
  };

  // IKC request awaiting its reply. Carries the addressed peer so a failure
  // recovery can complete every call wedged on a dead kernel. When the
  // request was relayed onward by a stale-epoch forwarder, kRelayNotice
  // re-keys `peer` to the hop's destination; `relay_hops` orders those
  // re-keys (notices from different forwarders are not FIFO relative to
  // each other — the latest hop must win).
  struct PendingIkc {
    uint64_t token = 0;
    KernelId peer = kInvalidKernel;
    uint32_t relay_hops = 0;
    IkcCallback cb;
    // Observability: the open kIkcRtt span (request out -> reply callback).
    // Its id travels as the request's trace_parent, so everything the remote
    // kernel does on this call's behalf nests under the round trip.
    obs::Span span;
    uint32_t pool_slot = 0;
  };

  // Everything this kernel keeps about one peer kernel.
  struct Peer {
    // IKC flow control (§4.1).
    uint32_t credits = 0;
    Ring<std::shared_ptr<IkcMsg>> queue;
    bool down = false;  // announced its shutdown: no further IKC traffic
    // Failure detector (src/ft).
    bool suspected = false;  // local heartbeat timeout expired
    bool failed = false;     // quorum-confirmed dead
    bool refused = false;    // verdict refused (no quorum)
    Cycles hb_last_seen = 0;  // last heartbeat ack
    uint64_t vote_bits = 0;   // bitmask of suspicion voters (<= 64 kernels)
  };

  // ===== Observability (src/obs) =====
  // The causal trace context of the operation currently executing on this
  // kernel: `trace` names the request, `parent` the enclosing span. Set at
  // every dispatch point (syscall, IKC request/reply, ask reply) and
  // stashed into the pending-operation objects across suspensions, so
  // messages sent by asynchronous continuations stay linked.
  struct TraceCtx {
    uint64_t trace = 0;
    uint64_t parent = 0;
  };
  obs::Tracer* tracer() const { return pe_ != nullptr ? pe_->tracer() : nullptr; }

  // ===== Message handlers =====
  void OnSyscall(EpId ep, const Message& msg);
  void OnIkc(EpId ep, const Message& msg);
  // The request dispatch half of OnIkc, also re-entered when a request
  // parked during a migration transfer is released. An IKC request is
  // answered from its message alone: the IkcMsg body names the token.
  void DispatchIkcRequest(const Message& msg);
  void OnAskReply(const Message& msg);

  // ===== System call implementations =====
  void SysNoop(SyscallRec* sc, const SyscallMsg& req);
  void SysOpenSession(SyscallRec* sc, const SyscallMsg& req);
  void SysExchange(SyscallRec* sc, const SyscallMsg& req);
  void SysObtain(SyscallRec* sc, const SyscallMsg& req);
  void SysDelegate(SyscallRec* sc, const SyscallMsg& req);
  void SysRevoke(SyscallRec* sc, const SyscallMsg& req);
  void SysActivate(SyscallRec* sc, const SyscallMsg& req);
  void SysDeriveMem(SyscallRec* sc, const SyscallMsg& req);
  void SysRegisterService(SyscallRec* sc, const SyscallMsg& req);
  // The caller's capability `sel`, of `type` unless that is kNone. Answers
  // the syscall (kNoSuchCap, kInvalidCapType, or kCapRevoked for a marked
  // capability: a Pointless denial) and returns null when there is none.
  Capability* CallerCap(SyscallRec* sc, CapSel sel, CapType type);

  // ===== Obtain path (also used for open-session and session exchange) =====
  // The obtainer-side record of syscall `sc`; draws the operation's token,
  // then the key proposed for the new capability.
  ObtainOp* NewObtain(SyscallRec* sc, CapType child_type);
  // Group-spanning: forwards `msg` (op-specific fields set) to the owner's
  // kernel `owner`, whose DDL lookup costs `decode` (Figure 3, sequence B).
  void ForwardObtain(ObtainOp* op, KernelId owner, Cycles decode, std::shared_ptr<IkcMsg> msg);
  // Owner-side: ask the party, link the proposed child (op->child_key, for
  // op->client) under the shared capability, and hand its description to
  // OwnerObtainDone.
  void OwnerSideObtain(ObtainOp* op, AskOp ask_op, DdlKey owner_cap, VpeId owner_vpe,
                       CapSel owner_sel, MsgRef opaque, uint64_t session);
  void OwnerObtainAsked(ObtainOp* op, const AskReply& reply);
  // Owner-side outcome: completes a local obtain (FinishObtain) or answers
  // the spanning obtain's IKC.
  void OwnerObtainDone(ObtainOp* op, ErrCode err, DdlKey parent, const CapPayload& payload,
                       MsgRef opaque, uint64_t session);
  void FinishObtain(ObtainOp* op, ErrCode err, DdlKey parent, const CapPayload& payload,
                    MsgRef opaque);
  // Sends the obtainer's syscall reply from the record, then frees it.
  void ReplyObtain(ObtainOp* op, ErrCode err);
  void ObtainIkcReplied(ObtainOp* op, const IkcReply& reply);

  // ===== Delegate path =====
  void OwnerSideDelegate(const Message& msg, const IkcMsg& req);
  void OwnerDelegateAsked(DelegateOp* op, const AskReply& reply);
  void FinishDelegate(DelegateOp* op, ErrCode err, DdlKey child_key);
  void ReplyDelegate(DelegateOp* op, ErrCode err);
  // Applies a delegate ACK against the parked child and returns the
  // outcome; used both by the IKC handler and for local delivery when the
  // receiver's partition migrated onto the delegator's kernel
  // mid-handshake.
  ErrCode ApplyDelegateAck(bool abort, DdlKey child_key);
  // Removes `child` from `parent`'s children list, wherever the parent
  // currently lives: locally when this kernel owns the parent's partition,
  // via CHILD_DROP / ORPHAN_NOTIFY IKC otherwise. If the parent's partition
  // is mid-transfer (snapshot already packed), the unlink is deferred until
  // the handoff resolves so it cannot be lost to the stale snapshot.
  void UnlinkChildAtParent(DdlKey parent, DdlKey child, bool orphan);

  // ===== Revocation (Algorithm 1) =====
  // The one start of every revocation (revoke syscall, REVOKE_REQ, revoke
  // batch, VPE kill, failover orphan): creates the task for the unmarked
  // `cap` with its completion `done`, runs the marking pass and sends the
  // REVOKE_REQs it collected. Returns that cost; the caller charges it and
  // then calls CheckRevokeComplete(cap->task()). With `unlink` the root
  // leaves its parent's children once the subtree is gone.
  Cycles StartRevoke(Capability* cap, bool unlink, InlineFn done);
  // Phase 1: returns the extra kernel-cycle cost of the marking pass.
  Cycles MarkPass(Capability* cap, RevokeTask* task);
  // Sends the REVOKE_REQs collected by the marking pass (per child, or per
  // peer kernel with batching). Returns the send cost.
  Cycles FlushRevokeRequests(RevokeTask* task);
  // VPE kill and failover orphan recovery: revokes the subtree of every
  // root still present, each at the revoke entry cost, and runs `done`
  // once all of them are gone. Returns the number of revocations started.
  uint32_t RevokeRoots(const std::vector<DdlKey>& roots, bool unlink, InlineFn done);
  // A REVOKE_REQ or revoke batch arrived: runs the single or the batch
  // handler in the trace context its dispatch set.
  void OnRevokeReq(const Message& msg);
  void ProcessRevokeReq(const Message& msg, const IkcMsg& req);
  void ProcessRevokeBatch(const Message& msg, const IkcMsg& req);
  void RevokeDependencyDone(uint64_t task_id);
  void CheckRevokeComplete(RevokeTask* task);
  // Phase 2: deletes this task's marked subtree; returns its cost.
  Cycles SweepPass(DdlKey key, RevokeTask* task);
  void CompleteRevokeTask(RevokeTask* task);

  // ===== PE migration (dynamic membership) =====
  // True while any in-flight operation still touches partition `pe`.
  bool MigrationBlocked(NodeId pe) const;
  void PollMigrateQuiesce(uint64_t task_id);
  void StartMigrateTransfer(uint64_t task_id);
  void FinishMigrateTransfer(uint64_t task_id, const IkcReply& reply);
  void CompleteMigration(uint64_t task_id, ErrCode err);
  void OnMigrateVpe(const Message& msg, const IkcMsg& req);
  // Updates the membership table and fixes up service-directory routing.
  void ApplyMembershipUpdate(NodeId pe, KernelId new_owner, uint64_t epoch);
  // Destination kernel of an in-progress transfer of partition `pe`, or
  // kInvalidKernel. Used to re-route REVOKE_REQs for moving subtrees.
  KernelId MigratingTo(NodeId pe) const;
  // The DDL partition an IKC request routes by, or kInvalidNode for ops
  // that are not capability-targeted (hello, announce, epoch update, ...).
  static NodeId RoutingPartition(const IkcMsg& req);
  // Parks (during a transfer) or forwards (stale sender epoch) a request
  // for a partition this kernel no longer owns. Returns true if handled.
  bool MaybeForwardIkc(const Message& msg);

  // ===== Fault tolerance (src/ft) =====
  void OnHeartbeat(EpId ep, const Message& msg);
  // Periodic detector work: ping live peers, time out silent ones, re-send
  // suspicion votes until a verdict lands.
  void HeartbeatTick();
  void RaiseSuspicion(KernelId peer);
  // Lowest-id kernel this kernel does not currently suspect — where votes go.
  KernelId FtLeader() const;
  void SendSuspectVotes();
  // Leader-side tally; a new vote may push `dead` over the quorum (verdict)
  // or complete coverage below it (refusal).
  void RecordSuspectVote(KernelId dead, KernelId voter);
  void StartFailover(KernelId dead);
  // PlanTakeover of `dead`'s range over the peers not failed here.
  std::vector<TakeoverAssignment> TakeoverPlan(KernelId dead) const;
  // Survivor-side recovery: apply the takeover plan under `epoch`, adopt
  // assigned PEs, prune edges into the dead range, revoke orphaned
  // subtrees, and unwedge pending IKCs to the dead kernel. Idempotent.
  void RecoverFromFailure(KernelId dead, uint64_t epoch);
  // Rebuilds VPE state for an adopted PE and retargets its syscall EP.
  void AdoptPe(NodeId pe);
  // Completes every pending IKC addressed to `dead` with kUnreachable.
  void AbortPendingIkcsTo(KernelId dead);
  // The one continuation point of an IKC call: closes `pending`'s round-trip
  // span and runs its callback with `reply` (the peer's, or kUnreachable
  // when aborted) in the call's trace context. `pending` is already out of
  // the index; its record is freed.
  void CompleteIkc(PendingIkc* pending, const IkcReply& reply);
  void FtRecoveryStepDone();

  // ===== Capability helpers =====
  DdlKey AllocKey(VpeId creator, CapType type);
  Capability* CreateCap(VpeState* vpe, CapType type, const CapPayload& payload, DdlKey parent);

  // ===== IKC engine =====
  KernelId KernelOf(DdlKey key) const { return config_.membership.KernelOfKey(key); }
  KernelId KernelOfVpe(VpeId vpe) const { return config_.membership.KernelOf(vpe); }
  bool IsLocalVpe(VpeId vpe) const { return KernelOfVpe(vpe) == config_.id; }
  // Whether `pe` names a PE of the platform: peer ids in syscalls come from
  // untrusted user PEs and must pass this before any routing lookup.
  bool KnownPe(VpeId pe) const { return pe < config_.membership.PeCount(); }
  void SendIkc(KernelId peer, std::shared_ptr<IkcMsg> msg, IkcCallback cb);
  // Sends the peer's queued requests while it has credits.
  void DispatchIkc(KernelId peer);
  // Spends one of the peer's credits on `msg` and sends it.
  void TransmitIkc(KernelId peer, std::shared_ptr<IkcMsg> msg);
  // Sends `reply` to the request `msg`, under the request's token.
  void ReplyIkc(const Message& msg, std::shared_ptr<IkcReply> reply);
  // Charges `cost`, then answers the request `msg` with `err` alone.
  void AnswerIkc(Cycles cost, const Message& msg, ErrCode err);
  void BroadcastHello();
  // Sends `msg` at once if the peer has a credit and nothing waits for
  // one; otherwise appends it to the peer's flow-controlled FIFO.
  void EnqueueIkc(KernelId peer, std::shared_ptr<IkcMsg> msg);
  // Relayed forward of a stale-epoch request: preserves the origin's
  // src_kernel/token and registers no pending entry (the final owner
  // replies to the origin directly).
  void SendIkcRelay(KernelId peer, std::shared_ptr<IkcMsg> msg);
  // Applies a kRelayNotice at the origin: learned-owner membership hint and
  // the hop-ordered re-key of the pending request's addressed peer (aborts
  // it if the new hop's kernel already failed). Also called directly when a
  // walk loops back through its own origin (a kernel cannot IKC itself).
  void ApplyRelayNotice(const IkcMsg& notice);
  // Modeled cost of decoding `key`: remote keys probe the epoch-validated
  // DDL cache (hit: t_.ddl_cache_hit); local keys pay the full
  // t_.ddl_decode.
  Cycles DdlDecodeCost(DdlKey key);
  // Same, for paths that route by a peer VPE rather than a concrete key:
  // probes with the partition's canonical VPE key.
  Cycles DdlDecodeCostVpe(VpeId vpe);

  // ===== Party asks =====
  void AskParty(NodeId node, std::shared_ptr<AskMsg> ask, AskCallback cb);

  // ===== Service directory =====
  struct ServiceEntry {
    std::string name;
    KernelId kernel = kInvalidKernel;
    DdlKey cap;  // the service capability (owned by `kernel`)
    NodeId node = kInvalidNode;
    VpeId vpe = kInvalidVpe;
  };
  const ServiceEntry* PickService(const std::string& name, VpeId client) const;

  // ===== Replies & cost accounting =====
  // Replies to the syscall and frees its record.
  void ReplySyscall(SyscallRec* sc, ErrCode err, CapSel sel = kInvalidSel,
                    const CapPayload& payload = {}, MsgRef opaque = nullptr);
  // Answers the syscall with `err` alone, at the dispatch + reply cost.
  void AnswerSyscall(SyscallRec* sc, ErrCode err);
  // Charges `cost` on the kernel core, then runs `effects` (sends replies).
  // The closure is built once, in its event slot.
  template <typename F>
  void Finish(Cycles cost, F&& effects) {
    pe_->exec().Post(cost, std::forward<F>(effects));
  }
  // Charges `cost` and returns the completion time (for Emit below).
  Cycles Charge(Cycles cost);

  // ===== Kernel-to-kernel egress sequencer =====
  // State mutations happen when a handler runs; the messages announcing
  // them may only leave after the handler's charged cost. To uphold the
  // pairwise FIFO precondition of §4.3.1 *between* operations (e.g. an
  // obtain reply that links a child must reach the peer before a later
  // revocation's REVOKE_REQ for that child), every kernel-to-kernel message
  // is enqueued here at mutation time and released strictly in that order,
  // each no earlier than its `ready` (charge-completion) time. The closure
  // is built once, in its egress slot.
  template <typename F>
  void Emit(Cycles ready, F&& send) {
    EgressMsg& slot = egress_.emplace_back();
    slot.ready = ready;
    slot.send.Emplace(std::forward<F>(send));
    DrainEgress();
  }
  void DrainEgress();

  Countdown* NewCountdown(InlineFn done);
  // One wait finished; the last one runs `done` and frees the record.
  void Arrive(Countdown* countdown);

  // Thread-pool accounting (Eq. 1). CHECK-fails if the statically sized
  // pool would be exceeded — the sizing argument of §4.2 guarantees it
  // never is, and tests rely on that.
  void AcquireThread();
  void ReleaseThread();

  Config config_;
  TimingModel t_;
  KernelStats stats_;
  bool booted_ = false;
  bool shutting_down_ = false;

  // ===== Fault-tolerance state (src/ft) =====
  bool dead_ = false;  // this kernel crashed (fault injection)
  FtConfig ft_;        // active detector parameters (enabled once armed)
  Cycles ft_verdict_at_ = 0;
  Cycles ft_recovered_at_ = 0;
  // Recoveries whose orphan-subtree revocations are still running;
  // recovery is done when this drains back to zero.
  uint32_t ft_pending_recovery_ = 0;

  VpeTable vpes_;
  CapSpace caps_;
  uint64_t next_obj_ = 1;
  uint64_t next_token_ = 1;

  // ===== Observability state =====
  TraceCtx cur_trace_;
  // The open kIkc handler span of each IKC request in service, keyed by
  // (requester node, token): opened at dispatch, closed centrally in
  // ReplyIkc, which also stamps the reply's trace context. Relays rewrite
  // the Message's src_node to the walk's origin before dispatch, so the key
  // is stable from dispatch to (possibly long-deferred) reply.
  std::map<std::pair<NodeId, uint64_t>, obs::Span> ikc_handling_;
  // Failover recovery span: opened when the first verdict is applied here,
  // closed when ft_pending_recovery_ drains back to zero.
  obs::Span ft_span_;

  // Operation records and the indexes that find them by token (DDL key for
  // parked delegates). Spanning obtains/delegates are indexed while their
  // IKC is out; local ones are reached only through their continuations.
  RecordPool<SyscallRec> syscall_recs_;
  RecordPool<ObtainOp> obtain_recs_;
  RecordPool<DelegateOp> delegate_recs_;
  RecordPool<ParkedDelegate> parked_recs_;
  RecordPool<PendingAsk> ask_recs_;
  RecordPool<PendingIkc> ikc_recs_;
  RecordPool<RevokeTask> revoke_recs_;
  RecordPool<Countdown> countdown_recs_;
  FlatIndex<ObtainOp> obtains_;
  FlatIndex<DelegateOp> delegates_;
  FlatIndex<ParkedDelegate> parked_delegates_;
  FlatIndex<PendingAsk> asks_;
  FlatIndex<PendingIkc> ikcs_;
  FlatIndex<RevokeTask> revoke_tasks_;
  std::map<uint64_t, std::unique_ptr<MigrateTask>> migrate_tasks_;
  // PEs this kernel handed off, with their new owner. Syscalls from a
  // migrated VPE still land here until its send endpoint was retargeted;
  // they get the retryable kVpeMigrating so the retry reaches the new
  // kernel instead of a misleading kNoSuchVpe.
  std::map<NodeId, KernelId> migrated_away_;

  // Indexed by kernel id (the self entry is unused) — SendIkc/DispatchIkc
  // touch this on every kernel-to-kernel message.
  std::vector<Peer> peers_;
  // Epoch-invalidated cache of hot remote-DDL lookups.
  DdlCache ddl_cache_;
  std::map<std::string, std::vector<ServiceEntry>> services_;

  // Kernel-to-kernel egress (see Emit).
  struct EgressMsg {
    Cycles ready = 0;
    InlineFn send;
  };
  Ring<EgressMsg> egress_;
  bool egress_scheduled_ = false;

  // Kernel -> service ask flow control.
  struct AskWindow {
    uint32_t inflight = 0;
    Ring<std::shared_ptr<AskMsg>> queue;  // asks waiting for a window slot
  };
  std::map<NodeId, AskWindow> ask_windows_;

  uint32_t hello_replies_ = 0;
};

}  // namespace semperos

#endif  // SEMPEROS_CORE_KERNEL_H_
