#include "dtu/dtu.h"

#include <utility>

#include "base/log.h"
#include "obs/trace.h"

namespace semperos {

namespace {
// Wire size of an endpoint-configuration packet (a few register writes).
constexpr uint32_t kConfigPacketBytes = 32;
// See Dtu::kConfigApplyCycles (dtu.h) — shared with the parallel engine.
constexpr Cycles kConfigApplyCycles = Dtu::kConfigApplyCycles;
// Fixed DRAM-style access latency charged per memory request.
constexpr Cycles kMemAccessLatency = 60;

// A message header as a DTU command sets it; Transmit stamps the source.
Message Header(EpId src_send_ep, EpId reply_ep, uint64_t label, bool is_reply, MsgRef body) {
  Message msg;
  msg.src_send_ep = src_send_ep;
  msg.reply_ep = reply_ep;
  msg.label = label;
  msg.is_reply = is_reply;
  msg.body = std::move(body);
  return msg;
}
}  // namespace

Dtu::Dtu(Simulation* sim, DtuFabric* fabric, NodeId node)
    : sim_(sim), fabric_(fabric), node_(node) {
  fabric_->Register(node, this);
}

void Dtu::ConfigureSend(EpId ep, NodeId dst_node, EpId dst_ep, uint32_t credits, uint64_t label) {
  ConfigureLocal(ep, SendEp{dst_node, dst_ep, credits, credits, label});
}

void Dtu::ConfigureRecv(EpId ep, uint32_t slots, MsgHandler handler) {
  ConfigureLocal(ep, RecvEp{slots, 0, std::move(handler)});
}

void Dtu::ConfigureMem(EpId ep, NodeId dst_node, uint64_t base, uint64_t size, MemPerms perms) {
  ConfigureLocal(ep, MemEp{dst_node, perms, base, size});
}

void Dtu::ConfigureLocal(EpId ep, Endpoint value) {
  if (!privileged_) {
    Refuse();
    return;
  }
  CHECK_LT(ep, kNumEps);  // privileged callers only: no user PE reaches it
  SetEp(ep, std::move(value));
}

void Dtu::SetEp(EpId ep, Endpoint value) {
  if (std::holds_alternative<RecvEp>(eps_[ep])) {
    for (uint32_t slot = 0; slot < filed_.size(); ++slot) {
      if (filed_[slot].ep == ep) {
        Release(ep, slot);
      }
    }
  }
  eps_[ep] = std::move(value);
}

// Only kernels get past the privilege check, with ids of their own
// (SysActivate refuses a user PE's endpoint first): no user PE's command or
// message content reaches these CHECKs. The closure fits an event slot.
template <typename Reg>
void Dtu::WriteRemoteEp(NodeId target, EpId ep, Reg reg, Callback<void()> done) {
  if (!privileged_) {
    Refuse();
    return;
  }
  if (dead_) {
    stats_.msgs_lost_dead++;
    return;  // crashed kernel: the config packet never leaves (done never fires)
  }
  CHECK(fabric_->At(target) != nullptr);
  CHECK_LT(ep, kNumEps);
  fabric_->noc()->Send(node_, target, kConfigPacketBytes,
                       [this, target, ep, reg, done = std::move(done)]() mutable {
                         // Privileged config bypasses the downgrade check.
                         fabric_->At(target)->SetEp(ep, reg);
                         if (done) {
                           sim_->Schedule(kConfigApplyCycles, std::move(done));
                         }
                       });
}

void Dtu::ConfigureRemoteSend(NodeId target, EpId ep, NodeId dst_node, EpId dst_ep,
                              uint32_t credits, uint64_t label, Callback<void()> done) {
  WriteRemoteEp(target, ep, SendEp{dst_node, dst_ep, credits, credits, label}, std::move(done));
}

void Dtu::ConfigureRemoteMem(NodeId target, EpId ep, NodeId dst_node, uint64_t base, uint64_t size,
                             MemPerms perms, Callback<void()> done) {
  WriteRemoteEp(target, ep, MemEp{dst_node, perms, base, size}, std::move(done));
}

void Dtu::InvalidateRemoteEp(NodeId target, EpId ep, Callback<void()> done) {
  WriteRemoteEp(target, ep, std::monostate{}, std::move(done));
}

Status Dtu::Send(EpId ep, MsgRef body, EpId reply_ep) {
  // The reply comes back to reply_ep: anything but one of this DTU's
  // receive endpoints would only fail at delivery, where the reply is
  // dropped.
  if (ep >= kNumEps ||
      (reply_ep != kNoReplyEp &&
       (reply_ep >= kNumEps || !std::holds_alternative<RecvEp>(eps_[reply_ep])))) {
    return Refuse();
  }
  SendEp* e = std::get_if<SendEp>(&eps_[ep]);
  if (e == nullptr) {
    stats_.sends_denied++;
    return Status(ErrCode::kInvalidArgs);
  }
  if (e->credits == 0) {
    stats_.sends_denied++;
    return Status(ErrCode::kNoCredits);
  }
  Status st = Transmit(e->dst_node, e->dst_ep, kNoReplyEp,
                       Header(ep, reply_ep, e->label, /*is_reply=*/false, std::move(body)));
  if (st.ok()) {
    e->credits--;
    stats_.msgs_sent++;
  }
  return st;
}

Status Dtu::SendTo(NodeId dst_node, EpId dst_ep, MsgRef body, EpId reply_ep, uint64_t label) {
  if (!privileged_) {
    return Refuse();
  }
  // No DTU-level credit to return: the kernel's IKC credits cover this path.
  Status st = Transmit(dst_node, dst_ep, kNoReplyEp,
                       Header(kNoReplyEp, reply_ep, label, /*is_reply=*/false, std::move(body)));
  if (st.ok()) {
    stats_.msgs_sent++;
  }
  return st;
}

const Dtu::Filed* Dtu::HeldOn(EpId ep, uint32_t slot) const {
  // A free entry's ep is kNoReplyEp, which no receive endpoint is.
  return ep < kNumEps && slot < filed_.size() && filed_[slot].ep == ep ? &filed_[slot] : nullptr;
}

void Dtu::Release(EpId ep, uint32_t slot) {
  std::get_if<RecvEp>(&eps_[ep])->occupied--;  // SetEp frees a replaced endpoint's slots
  filed_[slot].ep = kNoReplyEp;
  filed_[slot].src_node = free_slot_;
  free_slot_ = slot;
}

// Reply and Ack route by the header Deliver filed, never by anything the
// program hands back: a slot its endpoint does not hold is refused.
Status Dtu::Reply(EpId recv_ep, uint32_t slot, MsgRef body) {
  const Filed* f = HeldOn(recv_ep, slot);
  if (f == nullptr) {
    return Refuse();
  }
  Status st = Transmit(f->src_node, f->reply_ep, f->credit_ep,
                       Header(kNoReplyEp, kNoReplyEp, f->label, /*is_reply=*/true,
                              std::move(body)));
  Release(recv_ep, slot);
  return st;
}

Status Dtu::SendDeferredReply(const Message& msg, MsgRef body) {
  if (!privileged_) {
    return Refuse();
  }
  if (msg.reply_ep == kNoReplyEp) {
    return Status(ErrCode::kInvalidArgs);
  }
  return Transmit(msg.src_node, msg.reply_ep, kNoReplyEp,
                  Header(kNoReplyEp, kNoReplyEp, msg.label, /*is_reply=*/true, std::move(body)));
}

Status Dtu::Ack(EpId recv_ep, uint32_t slot) {
  const Filed* f = HeldOn(recv_ep, slot);
  if (f == nullptr) {
    return Refuse();
  }
  // Return the credit to the sender with a tiny control packet.
  Status st = f->credit_ep != kNoReplyEp
                  ? Transmit(f->src_node, kNoReplyEp, f->credit_ep, Message{})
                  : Status::Ok();
  Release(recv_ep, slot);
  return st;
}

Status Dtu::Transmit(NodeId dst_node, EpId dst_ep, EpId credit_ep, Message msg) {
  // Ids come from send endpoint registers, kernel calls or filed headers
  // (whose reply endpoint Send checked): no user PE reaches these CHECKs.
  Dtu* remote = fabric_->At(dst_node);
  CHECK(remote != nullptr) << "node " << dst_node << " has no DTU";
  CHECK(dst_ep < kNumEps || dst_ep == kNoReplyEp) << "endpoint " << dst_ep;
  CHECK(credit_ep < kNumEps || credit_ep == kNoReplyEp) << "credit endpoint " << credit_ep;
  if (dead_) {
    stats_.msgs_lost_dead++;
    return Status(ErrCode::kUnreachable);
  }
  msg.src_node = node_;
  StampTrace(msg);
  uint32_t bytes = msg.body ? msg.body->WireSize() : 16;
  fabric_->noc()->Send(node_, dst_node, bytes,
                       [remote, dst_ep, credit_ep, msg = std::move(msg)]() mutable {
                         if (credit_ep != kNoReplyEp) {
                           remote->ReturnCredit(credit_ep);
                         }
                         if (dst_ep != kNoReplyEp) {
                           remote->Deliver(dst_ep, std::move(msg));
                         }
                       });
  return Status::Ok();
}

void Dtu::Deliver(EpId ep, Message msg) {
  if (dead_) {
    // Fault injection: the node is powered off — arriving packets vanish
    // without touching slot accounting. Peers observe silence, which is
    // what the failure detector is built to notice.
    stats_.msgs_lost_dead++;
    return;
  }
  RecvEp* e = std::get_if<RecvEp>(&eps_[ep]);
  if (msg.is_reply) {
    // Replies are received into the context the sender reserved when it
    // issued the request (M3 associates a reply slot with every send), so
    // they never compete for request slots and cannot be dropped.
    if (e != nullptr && e->handler) {
      stats_.msgs_received++;
      RecordTransit(msg);
      e->handler(ep, msg);
    } else {
      stats_.msgs_dropped++;
      LOG_WARN("dtu") << "node " << node_ << ": reply to unconfigured EP " << ep << " dropped";
    }
    return;
  }
  if (e == nullptr) {
    // Message to an unconfigured endpoint disappears (hardware drops it).
    stats_.msgs_dropped++;
    LOG_WARN("dtu") << "node " << node_ << ": message to non-recv EP " << ep << " dropped";
    return;
  }
  if (e->occupied >= e->slots) {
    // Out of message slots: "If this limit is exceeded then the messages
    // will be lost" (paper §4.1). The kernel flow-control protocol must make
    // this unreachable; tests assert msgs_dropped == 0.
    stats_.msgs_dropped++;
    LOG_ERROR("dtu") << "node " << node_ << ": EP " << ep << " out of slots, message LOST";
    return;
  }
  e->occupied++;
  // File the routing header; the program answers by the slot id alone.
  uint32_t slot = free_slot_;
  if (slot == kNoSlot) {
    slot = static_cast<uint32_t>(filed_.size());
    filed_.emplace_back();
  } else {
    free_slot_ = filed_[slot].src_node;
  }
  filed_[slot] = Filed{ep, msg.src_node, msg.src_send_ep, msg.reply_ep, msg.label};
  msg.slot = slot;
  stats_.msgs_received++;
  RecordTransit(msg);
  // Only a privileged ConfigureRecv installs a receive endpoint.
  CHECK(e->handler) << "recv EP " << ep << " on node " << node_ << " has no handler";
  e->handler(ep, msg);
}

void Dtu::StampTrace(Message& msg) const {
  if (fabric_->tracer() == nullptr || msg.body == nullptr || msg.body->trace_id == 0) {
    return;
  }
  msg.trace_sent = sim_->Now();
}

void Dtu::RecordTransit(const Message& msg) {
  obs::Tracer* tracer = fabric_->tracer();
  if (tracer == nullptr || msg.body == nullptr || msg.body->trace_id == 0) {
    return;
  }
  tracer->Close(tracer->Open(node_, msg.body->trace_id, msg.body->trace_parent, msg.trace_sent,
                             obs::SpanKind::kTransit, static_cast<uint16_t>(msg.body->kind())),
                sim_->Now());
}

void Dtu::ReturnCredit(EpId send_ep) {
  SendEp* e = std::get_if<SendEp>(&eps_[send_ep]);
  if (e == nullptr) {
    return;  // endpoint was reconfigured while the credit was in flight
  }
  if (e->credits < e->max_credits) {
    e->credits++;
  }
}

Status Dtu::StartMemAccess(EpId mem_ep, uint64_t offset, uint64_t bytes, bool write,
                           Cycles* latency) {
  if (mem_ep >= kNumEps) {
    return Refuse();
  }
  if (dead_) {
    stats_.msgs_lost_dead++;
    return Status(ErrCode::kUnreachable);  // done never fires
  }
  const MemEp* e = std::get_if<MemEp>(&eps_[mem_ep]);
  if (e == nullptr) {
    return Status(ErrCode::kInvalidArgs);
  }
  if (write ? !e->perms.write : !e->perms.read) {
    return Status(ErrCode::kNoPerm);
  }
  // Compared without the sum, which a hostile offset can wrap past 2^64.
  if (bytes > e->size || offset > e->size - bytes) {
    return Status(ErrCode::kOutOfRange);
  }
  // Timing: request packet there, data back (or data there, ack back),
  // plus a fixed memory latency. Uncontended by design — the paper's own
  // methodology excludes memory contention (§5.3.1).
  Noc* noc = fabric_->noc();
  Cycles there = noc->UnloadedLatency(node_, e->dst_node, 16);
  Cycles back = noc->UnloadedLatency(e->dst_node, node_, static_cast<uint32_t>(
                                                            bytes > 0xffffffffull ? 0xffffffffull
                                                                                  : bytes));
  *latency = there + kMemAccessLatency + back;
  if (write) {
    stats_.mem_writes++;
  } else {
    stats_.mem_reads++;
  }
  stats_.mem_bytes += bytes;
  return Status::Ok();
}

// Not DTU commands: tests and failover's leak check pass ids of their own.
uint32_t Dtu::Credits(EpId ep) const {
  CHECK_LT(ep, kNumEps);
  const SendEp* e = std::get_if<SendEp>(&eps_[ep]);
  return e != nullptr ? e->credits : 0;
}

uint32_t Dtu::FreeSlots(EpId ep) const {
  CHECK_LT(ep, kNumEps);
  const RecvEp* e = std::get_if<RecvEp>(&eps_[ep]);
  return e != nullptr ? e->slots - e->occupied : 0;
}

bool Dtu::EpValid(EpId ep) const {
  CHECK_LT(ep, kNumEps);
  return !std::holds_alternative<std::monostate>(eps_[ep]);
}

}  // namespace semperos
