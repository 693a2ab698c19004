// Data Transfer Unit (DTU) model.
//
// The DTU is M3's per-PE hardware component and "the only possibility for a
// core to interact with other components" (paper §2.2). It provides a fixed
// number of endpoints, each configurable as:
//   * send endpoint    — targets a (node, endpoint) pair, holds credits;
//   * receive endpoint — holds a fixed number of message slots; messages
//                        arriving with no free slot are LOST (real hardware
//                        behaviour; the kernels' flow-control protocol must
//                        prevent this — tests assert zero drops);
//   * memory endpoint  — grants access to a byte range of another PE's or a
//                        memory tile's memory (remote read/write).
//
// Only a privileged DTU may configure endpoints. All DTUs boot privileged and
// the kernel downgrades every user PE during boot, keeping only kernel PEs
// privileged (paper §2.2). In the simulator the kernel configures remote
// endpoints through Dtu::ConfigureRemote*, which models the privileged
// NoC-level configuration packet.
//
// Platform parameters follow paper §5.1: 16 endpoints, 32 message slots each.
// The endpoint registers live inside the Dtu (32 bytes each, 512 per PE):
// every PE of the largest platform has one.
//
// Every message packet leaves through one routine, Dtu::Transmit, which
// stamps the source node, sizes the packet and hands the NoC one delivery
// closure (return the sender's credit, then deliver).
//
// A program answers a request by naming its receive endpoint and slot, as
// on M3's DTU. Deliver files the routing header of every request it
// accepts (sender node, credit endpoint, reply endpoint, label) in a table
// the DTU owns, and Reply and Ack route by that filed header alone. Every
// id Transmit routes by thus comes from the DTU's own registers, its own
// table, or a privileged kernel.
//
// The program on a user PE is untrusted. A command it issues that names an
// endpoint the DTU does not have, a reply endpoint that is not one of its
// receive endpoints, a slot its receive endpoint does not hold (never
// filed, filed on another endpoint, or already answered), or a privileged
// command on its downgraded DTU (endpoint configuration, local or remote,
// SendTo, and a deferred reply: only kernels answer late) is refused
// (kInvalidArgs where the command returns a Status), changes nothing, and
// is counted in DtuStats::cmds_refused.
#ifndef SEMPEROS_DTU_DTU_H_
#define SEMPEROS_DTU_DTU_H_

#include <array>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "dtu/message.h"
#include "noc/noc.h"
#include "sim/inline_fn.h"
#include "sim/simulation.h"

namespace semperos {

class Dtu;

namespace obs {
class Tracer;
}  // namespace obs

// Maps NodeId -> Dtu for message delivery; owned by the platform.
class DtuFabric {
 public:
  explicit DtuFabric(Noc* noc) : noc_(noc), dtus_(noc->NodeCount(), nullptr) {}

  void Register(NodeId node, Dtu* dtu) { dtus_.at(node) = dtu; }
  Dtu* At(NodeId node) const { return dtus_.at(node); }
  Noc* noc() const { return noc_; }

  // Observability (src/obs): when attached, every DTU records a wire-transit
  // span per delivered traced message. Null = tracing off (the default);
  // the per-message cost is then one pointer test.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  Noc* noc_;
  std::vector<Dtu*> dtus_;
  obs::Tracer* tracer_ = nullptr;
};

struct MemPerms {
  bool read = false;
  bool write = false;
};

struct DtuStats {
  uint64_t msgs_sent = 0;
  uint64_t msgs_received = 0;
  uint64_t msgs_dropped = 0;  // arrived with no free slot (protocol bug!)
  uint64_t msgs_lost_dead = 0;  // swallowed by a killed node (fault injection)
  uint64_t sends_denied = 0;  // no credits / not a send endpoint
  // Commands refused as malformed (see the file comment): an endpoint id
  // past kNumEps, a reply endpoint that is not a receive endpoint, a reply
  // or ack naming a slot its endpoint does not hold, a privileged command
  // on a downgraded DTU.
  uint64_t cmds_refused = 0;
  uint64_t mem_reads = 0;
  uint64_t mem_writes = 0;
  uint64_t mem_bytes = 0;
};

class Dtu {
 public:
  static constexpr uint32_t kNumEps = 16;        // paper §5.1
  static constexpr uint32_t kDefaultSlots = 32;  // paper §5.1
  // Extra cycles a remote DTU needs to apply a configuration packet. Public
  // because it is also a cross-shard lookahead bound for the parallel
  // engine: the `done` continuation of a ConfigureRemote* call is scheduled
  // this many cycles after delivery, back on the caller's shard.
  static constexpr Cycles kConfigApplyCycles = 8;

  // A receive endpoint's handler. Every library handler captures only its
  // owner (`this`), which 8 bytes hold in place; a larger capture (a test's
  // lambda) goes to the heap.
  using MsgHandler = InlineFunction<void(EpId ep, const Message& msg), 8>;

  Dtu(Simulation* sim, DtuFabric* fabric, NodeId node);

  NodeId node() const { return node_; }
  bool privileged() const { return privileged_; }

  // Local (privileged) endpoint configuration. Refused on a downgraded DTU
  // — the kernel must use ConfigureRemote* for user PEs.
  void ConfigureSend(EpId ep, NodeId dst_node, EpId dst_ep, uint32_t credits,
                     uint64_t label = 0);
  void ConfigureRecv(EpId ep, uint32_t slots, MsgHandler handler);
  void ConfigureMem(EpId ep, NodeId dst_node, uint64_t base, uint64_t size, MemPerms perms);

  // Strips the privileged bit (kernel does this to user PEs at boot).
  void Downgrade() { privileged_ = false; }

  // Fault injection (src/ft): powers the node off at the interconnect. Every
  // delivery to this DTU is swallowed (counted in msgs_lost_dead, NOT in
  // msgs_dropped — the zero-drop flow-control invariant holds for the live
  // system) and every outgoing send, reply, credit return, and remote
  // endpoint configuration becomes a silent no-op. Peers observe pure loss,
  // exactly like a crashed kernel whose NoC links went dark.
  void Kill() { dead_ = true; }
  bool dead() const { return dead_; }

  // Privileged remote configuration: models the kernel writing another DTU's
  // endpoint registers over the NoC. `done` (may be null) fires when the
  // config packet has been applied at the remote DTU; it travels inside the
  // packet's delivery closure and then moves into the completion event.
  // Refused on a downgraded DTU (`done` never fires).
  void ConfigureRemoteSend(NodeId target, EpId ep, NodeId dst_node, EpId dst_ep, uint32_t credits,
                           uint64_t label, Callback<void()> done);
  void ConfigureRemoteMem(NodeId target, EpId ep, NodeId dst_node, uint64_t base, uint64_t size,
                          MemPerms perms, Callback<void()> done);
  void InvalidateRemoteEp(NodeId target, EpId ep, Callback<void()> done);

  // Sends a message through send endpoint `ep`. Consumes one credit; the
  // credit returns when the receiver replies (or acks with credit return).
  // `reply_ep` is one of this DTU's receive endpoints or kNoReplyEp;
  // anything else is refused.
  Status Send(EpId ep, MsgRef body, EpId reply_ep = kNoReplyEp);

  // Privileged raw send to an arbitrary (node, endpoint). Models the M3
  // kernel's ability to retarget its send endpoint per message; flow control
  // for this path lives in the kernel (IKC credits), not in the DTU.
  // Refused on a downgraded DTU.
  Status SendTo(NodeId dst_node, EpId dst_ep, MsgRef body, EpId reply_ep = kNoReplyEp,
                uint64_t label = 0);

  // Replies to the request in `slot` (Message::slot) of receive endpoint
  // `recv_ep`: frees the slot, returns the sender's credit, and delivers
  // `body` to the reply endpoint the sender named. Refused, freeing
  // nothing, unless `recv_ep` holds `slot`; an answered slot is no longer
  // held.
  Status Reply(EpId recv_ep, uint32_t slot, MsgRef body);

  // Frees `slot` of `recv_ep` without sending a payload back. Still returns
  // the sender's credit (models M3's ACK). Refused like Reply.
  Status Ack(EpId recv_ep, uint32_t slot);

  // Sends `body` as a reply-typed message to the sender of `msg` without
  // touching slot accounting. Used for deferred replies after the slot was
  // already freed with Ack() — the receiver reserved reply context when it
  // sent the request, so reply delivery never competes for request slots.
  // Kernels only: a downgraded DTU is refused. The kernel keeps `msg`, so
  // the header is the kernel's own (a relayed IKC rewrites it to the
  // walk's origin).
  Status SendDeferredReply(const Message& msg, MsgRef body);

  // Remote memory access through a memory endpoint. Timing only — data is
  // not moved. Deliberately uncontended (paper §5.3.1 excludes memory
  // contention). `done` fires on completion; it is built
  // once, in its event slot, and dropped if the access is refused.
  template <typename F>
  Status Read(EpId mem_ep, uint64_t offset, uint64_t bytes, F&& done) {
    return MemAccess(mem_ep, offset, bytes, /*write=*/false, std::forward<F>(done));
  }
  template <typename F>
  Status Write(EpId mem_ep, uint64_t offset, uint64_t bytes, F&& done) {
    return MemAccess(mem_ep, offset, bytes, /*write=*/true, std::forward<F>(done));
  }

  // Introspection for tests.
  uint32_t Credits(EpId ep) const;
  uint32_t FreeSlots(EpId ep) const;
  bool EpValid(EpId ep) const;
  const DtuStats& stats() const { return stats_; }

 private:
  // An endpoint holds the registers of its type only; std::monostate is an
  // unconfigured (or invalidated) endpoint.
  struct SendEp {
    NodeId dst_node = kInvalidNode;
    EpId dst_ep = 0;
    uint32_t credits = 0;
    uint32_t max_credits = 0;
    uint64_t label = 0;
  };
  struct RecvEp {
    uint32_t slots = 0;
    uint32_t occupied = 0;
    MsgHandler handler;
  };
  struct MemEp {
    NodeId dst_node = kInvalidNode;
    MemPerms perms;
    uint64_t base = 0;
    uint64_t size = 0;
  };
  using Endpoint = std::variant<std::monostate, SendEp, RecvEp, MemEp>;
  static_assert(sizeof(Endpoint) <= 32);

  // The routing header of a request a receive endpoint holds, filed by
  // Deliver under the request's slot id. While the entry is free, `ep` is
  // kNoReplyEp and `src_node` links the next free slot id (kNoSlot ends
  // the list).
  struct Filed {
    EpId ep = kNoReplyEp;  // receive endpoint holding the request
    NodeId src_node = kInvalidNode;
    EpId credit_ep = kNoReplyEp;  // sender's send endpoint
    EpId reply_ep = kNoReplyEp;
    uint64_t label = 0;
  };

  // The one wire path of every message packet: stamps `msg` and puts it on
  // the NoC. At the destination the packet returns the credit of send
  // endpoint `credit_ep`, then delivers `msg` to `dst_ep` (each step
  // skipped for kNoReplyEp). Every id comes from this DTU's registers, its
  // filed headers or a privileged kernel, so a bad one is a DTU or kernel
  // bug and fails a CHECK.
  Status Transmit(NodeId dst_node, EpId dst_ep, EpId credit_ep, Message msg);
  // Called by a delivery closure when a packet arrives at this DTU. The ids
  // are checked by the sender's Transmit.
  void Deliver(EpId ep, Message msg);
  void ReturnCredit(EpId send_ep);
  // The header filed under `slot` if receive endpoint `ep` holds it, else
  // null.
  const Filed* HeldOn(EpId ep, uint32_t slot) const;
  // Frees `slot`, which endpoint `ep` holds.
  void Release(EpId ep, uint32_t slot);
  // Privileged local configuration: refused on a downgraded DTU.
  void ConfigureLocal(EpId ep, Endpoint value);
  // Writes endpoint `ep`'s registers. The requests a receive endpoint held
  // go with it, their slots freed unanswered, as a reconfigured M3
  // endpoint drops its buffer.
  void SetEp(EpId ep, Endpoint value);
  // The privileged configuration packet: writes `reg` into endpoint `ep`
  // of the DTU at `target`; `done` fires once it is applied.
  template <typename Reg>
  void WriteRemoteEp(NodeId target, EpId ep, Reg reg, Callback<void()> done);
  // Counts a malformed command and returns its refusal.
  Status Refuse() {
    stats_.cmds_refused++;
    return Status(ErrCode::kInvalidArgs);
  }

  // Observability hooks. Stamp: record when a traced message hits the wire;
  // RecordTransit: close the wire-transit span at delivery, on the receiving
  // entity (race-free under the parallel engine — delivery runs on the
  // destination's shard). Both are no-ops without an attached tracer.
  void StampTrace(Message& msg) const;
  void RecordTransit(const Message& msg);

  template <typename F>
  Status MemAccess(EpId mem_ep, uint64_t offset, uint64_t bytes, bool write, F&& done) {
    Cycles latency = 0;
    Status st = StartMemAccess(mem_ep, offset, bytes, write, &latency);
    if (st.ok()) {
      sim_->Schedule(latency, std::forward<F>(done));
    }
    return st;
  }
  // Validates a memory access, counts it, and returns its latency.
  Status StartMemAccess(EpId mem_ep, uint64_t offset, uint64_t bytes, bool write,
                        Cycles* latency);

  Simulation* sim_;
  DtuFabric* fabric_;
  NodeId node_;
  bool privileged_ = true;
  bool dead_ = false;  // fault injection: node powered off (see Kill)
  uint32_t free_slot_ = kNoSlot;  // head of the free list through filed_
  std::array<Endpoint, kNumEps> eps_;
  // Headers of the requests this DTU holds, by slot id. Grows to the most
  // it held at once, not to the slots its endpoints configured.
  std::vector<Filed> filed_;
  DtuStats stats_;
};

}  // namespace semperos

#endif  // SEMPEROS_DTU_DTU_H_
