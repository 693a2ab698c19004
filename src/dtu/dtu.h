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
// closure (return the sender's credit, then deliver). Reply and Ack route
// by the header the program hands back, so Transmit checks every id it
// routes by before anything leaves the PE.
//
// The program on a user PE is untrusted. A command it issues that names an
// endpoint the DTU does not have, a reply endpoint it does not have, a
// reply or ack with no received message to answer, a header naming a node
// outside the mesh or an endpoint past kNumEps, or a privileged command on
// its downgraded DTU (endpoint configuration, local or remote, SendTo, and
// a deferred reply: only kernels answer late) is refused (kInvalidArgs
// where the command returns a Status), changes nothing, and is counted in
// DtuStats::cmds_refused.
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
  // Commands refused as malformed (see the file comment): an endpoint or
  // reply-endpoint id past kNumEps, a reply or ack on an endpoint with no
  // message to answer, a header that routes outside the mesh or past
  // kNumEps, a deferred reply from a downgraded DTU.
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
  // `reply_ep` is one of this DTU's endpoints or kNoReplyEp; anything else
  // is refused.
  Status Send(EpId ep, MsgRef body, EpId reply_ep = kNoReplyEp);

  // Privileged raw send to an arbitrary (node, endpoint). Models the M3
  // kernel's ability to retarget its send endpoint per message; flow control
  // for this path lives in the kernel (IKC credits), not in the DTU.
  // Refused on a downgraded DTU.
  Status SendTo(NodeId dst_node, EpId dst_ep, MsgRef body, EpId reply_ep = kNoReplyEp,
                uint64_t label = 0);

  // Replies to a received message: frees the slot, returns the sender's
  // credit, and delivers `body` to the sender's reply endpoint. Refused if
  // `recv_ep` holds no received message (a second reply to one message) or
  // if `msg`'s header does not route (see Transmit); the slot stays held.
  Status Reply(EpId recv_ep, const Message& msg, MsgRef body);

  // Frees the slot of a received message without sending a payload back.
  // Still returns the sender's credit (models M3's ACK). Ignored, and
  // counted in cmds_refused, if `recv_ep` holds no received message or the
  // header does not route.
  void Ack(EpId recv_ep, const Message& msg);

  // Sends `body` as a reply-typed message to the sender of `msg` without
  // touching slot accounting. Used for deferred replies after the slot was
  // already freed with Ack() — the receiver reserved reply context when it
  // sent the request, so reply delivery never competes for request slots.
  // Kernels only: a downgraded DTU is refused.
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

  // The one wire path of every message packet. Refuses (kInvalidArgs) a
  // `dst_node` outside the mesh or without a DTU, and a `dst_ep` or
  // `credit_ep` that is neither below kNumEps nor kNoReplyEp; otherwise
  // stamps `msg` and puts it on the NoC. At the destination the packet
  // returns the credit of send endpoint `credit_ep`, then delivers `msg` to
  // `dst_ep` (each step skipped for kNoReplyEp).
  Status Transmit(NodeId dst_node, EpId dst_ep, EpId credit_ep, Message msg);
  // Called by a delivery closure when a packet arrives at this DTU. The ids
  // are checked by the sender's Transmit.
  void Deliver(EpId ep, Message msg);
  void ReturnCredit(EpId send_ep);
  // The receive endpoint `ep` if it holds a message to answer, else null
  // after counting the refused command.
  RecvEp* AnswerableRecv(EpId ep);
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
  std::array<Endpoint, kNumEps> eps_;
  DtuStats stats_;
};

}  // namespace semperos

#endif  // SEMPEROS_DTU_DTU_H_
