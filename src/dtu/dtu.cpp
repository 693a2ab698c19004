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
}  // namespace

Dtu::Dtu(Simulation* sim, DtuFabric* fabric, NodeId node)
    : sim_(sim), fabric_(fabric), node_(node), eps_(kNumEps) {
  fabric_->Register(node, this);
}

void Dtu::ConfigureSend(EpId ep, NodeId dst_node, EpId dst_ep, uint32_t credits, uint64_t label) {
  CHECK(privileged_) << "send EP config on downgraded DTU " << node_;
  CHECK_LT(ep, kNumEps);
  Endpoint& e = eps_[ep];
  e = Endpoint{};
  e.type = EpType::kSend;
  e.dst_node = dst_node;
  e.dst_ep = dst_ep;
  e.credits = credits;
  e.max_credits = credits;
  e.label = label;
}

void Dtu::ConfigureRecv(EpId ep, uint32_t slots, MsgHandler handler) {
  CHECK(privileged_) << "recv EP config on downgraded DTU " << node_;
  CHECK_LT(ep, kNumEps);
  Endpoint& e = eps_[ep];
  e = Endpoint{};
  e.type = EpType::kReceive;
  e.slots = slots;
  e.occupied = 0;
  e.handler = std::move(handler);
}

void Dtu::ConfigureMem(EpId ep, NodeId dst_node, uint64_t base, uint64_t size, MemPerms perms) {
  CHECK(privileged_) << "mem EP config on downgraded DTU " << node_;
  CHECK_LT(ep, kNumEps);
  Endpoint& e = eps_[ep];
  e = Endpoint{};
  e.type = EpType::kMemory;
  e.dst_node = dst_node;
  e.mem_base = base;
  e.mem_size = size;
  e.perms = perms;
}

void Dtu::InvalidateEp(EpId ep) {
  CHECK(privileged_);
  CHECK_LT(ep, kNumEps);
  eps_[ep] = Endpoint{};
}

// The delivery closures below capture the target's id rather than its
// Dtu*, so each one, done callback included, fits an event slot.
void Dtu::ConfigureRemoteSend(NodeId target, EpId ep, NodeId dst_node, EpId dst_ep,
                              uint32_t credits, uint64_t label, Callback<void()> done) {
  CHECK(privileged_) << "remote config from unprivileged DTU " << node_;
  if (dead_) {
    stats_.msgs_lost_dead++;
    return;  // crashed kernel: the config packet never leaves (done never fires)
  }
  CHECK(fabric_->At(target) != nullptr);
  fabric_->noc()->Send(node_, target, kConfigPacketBytes,
                       [this, label, target, ep, dst_node, dst_ep, credits,
                        done = std::move(done)]() mutable {
                         // Privileged config bypasses the downgrade check.
                         Endpoint& e = fabric_->At(target)->eps_.at(ep);
                         e = Endpoint{};
                         e.type = EpType::kSend;
                         e.dst_node = dst_node;
                         e.dst_ep = dst_ep;
                         e.credits = credits;
                         e.max_credits = credits;
                         e.label = label;
                         if (done) {
                           sim_->Schedule(kConfigApplyCycles, std::move(done));
                         }
                       });
}

void Dtu::ConfigureRemoteMem(NodeId target, EpId ep, NodeId dst_node, uint64_t base, uint64_t size,
                             MemPerms perms, Callback<void()> done) {
  CHECK(privileged_) << "remote config from unprivileged DTU " << node_;
  if (dead_) {
    stats_.msgs_lost_dead++;
    return;
  }
  CHECK(fabric_->At(target) != nullptr);
  fabric_->noc()->Send(node_, target, kConfigPacketBytes,
                       [this, base, size, target, ep, dst_node, perms,
                        done = std::move(done)]() mutable {
                         Endpoint& e = fabric_->At(target)->eps_.at(ep);
                         e = Endpoint{};
                         e.type = EpType::kMemory;
                         e.dst_node = dst_node;
                         e.mem_base = base;
                         e.mem_size = size;
                         e.perms = perms;
                         if (done) {
                           sim_->Schedule(kConfigApplyCycles, std::move(done));
                         }
                       });
}

void Dtu::InvalidateRemoteEp(NodeId target, EpId ep, Callback<void()> done) {
  CHECK(privileged_) << "remote config from unprivileged DTU " << node_;
  if (dead_) {
    stats_.msgs_lost_dead++;
    return;
  }
  CHECK(fabric_->At(target) != nullptr);
  fabric_->noc()->Send(node_, target, kConfigPacketBytes,
                       [this, target, ep, done = std::move(done)]() mutable {
                         fabric_->At(target)->eps_.at(ep) = Endpoint{};
                         if (done) {
                           sim_->Schedule(kConfigApplyCycles, std::move(done));
                         }
                       });
}

Status Dtu::Send(EpId ep, MsgRef body, EpId reply_ep) {
  CHECK_LT(ep, kNumEps);
  Endpoint& e = eps_[ep];
  if (e.type != EpType::kSend) {
    stats_.sends_denied++;
    return Status(ErrCode::kInvalidArgs);
  }
  if (e.credits == 0) {
    stats_.sends_denied++;
    return Status(ErrCode::kNoCredits);
  }
  if (dead_) {
    stats_.msgs_lost_dead++;
    return Status(ErrCode::kUnreachable);
  }
  e.credits--;
  stats_.msgs_sent++;

  Message msg;
  msg.src_node = node_;
  msg.src_send_ep = ep;
  msg.reply_ep = reply_ep;
  msg.label = e.label;
  msg.is_reply = false;
  msg.body = std::move(body);
  StampTrace(msg);

  uint32_t bytes = msg.body ? msg.body->WireSize() : 16;
  NodeId dst_node = e.dst_node;
  EpId dst_ep = e.dst_ep;
  Dtu* remote = fabric_->At(dst_node);
  CHECK(remote != nullptr);
  fabric_->noc()->Send(node_, dst_node, bytes, [remote, dst_ep, msg = std::move(msg)]() mutable {
    remote->Deliver(dst_ep, std::move(msg));
  });
  return Status::Ok();
}

Status Dtu::SendTo(NodeId dst_node, EpId dst_ep, MsgRef body, EpId reply_ep, uint64_t label) {
  CHECK(privileged_) << "SendTo from unprivileged DTU " << node_;
  if (dead_) {
    stats_.msgs_lost_dead++;
    return Status(ErrCode::kUnreachable);
  }
  stats_.msgs_sent++;

  Message msg;
  msg.src_node = node_;
  msg.src_send_ep = kNoReplyEp;  // no DTU-level credit to return
  msg.reply_ep = reply_ep;
  msg.label = label;
  msg.is_reply = false;
  msg.body = std::move(body);
  StampTrace(msg);

  uint32_t bytes = msg.body ? msg.body->WireSize() : 16;
  Dtu* remote = fabric_->At(dst_node);
  CHECK(remote != nullptr);
  fabric_->noc()->Send(node_, dst_node, bytes, [remote, dst_ep, msg = std::move(msg)]() mutable {
    remote->Deliver(dst_ep, std::move(msg));
  });
  return Status::Ok();
}

Status Dtu::Reply(EpId recv_ep, const Message& msg, MsgRef body) {
  CHECK_LT(recv_ep, kNumEps);
  Endpoint& e = eps_[recv_ep];
  if (e.type != EpType::kReceive) {
    return Status(ErrCode::kInvalidArgs);
  }
  CHECK_GT(e.occupied, 0u);
  e.occupied--;
  if (dead_) {
    stats_.msgs_lost_dead++;
    return Status(ErrCode::kUnreachable);
  }

  Message reply;
  reply.src_node = node_;
  reply.src_send_ep = kNoReplyEp;
  reply.reply_ep = kNoReplyEp;
  reply.label = msg.label;
  reply.is_reply = true;
  reply.body = std::move(body);
  StampTrace(reply);

  NodeId dst_node = msg.src_node;
  EpId credit_ep = msg.src_send_ep;
  EpId dst_ep = msg.reply_ep;
  Dtu* remote = fabric_->At(dst_node);
  CHECK(remote != nullptr);
  uint32_t bytes = reply.body ? reply.body->WireSize() : 16;
  fabric_->noc()->Send(node_, dst_node, bytes,
                       [remote, credit_ep, dst_ep, reply = std::move(reply)]() mutable {
                         if (credit_ep != kNoReplyEp) {
                           remote->ReturnCredit(credit_ep);
                         }
                         if (dst_ep != kNoReplyEp) {
                           remote->Deliver(dst_ep, std::move(reply));
                         }
                       });
  return Status::Ok();
}

Status Dtu::SendDeferredReply(const Message& msg, MsgRef body) {
  if (msg.reply_ep == kNoReplyEp) {
    return Status(ErrCode::kInvalidArgs);
  }
  if (dead_) {
    stats_.msgs_lost_dead++;
    return Status(ErrCode::kUnreachable);
  }
  Message reply;
  reply.src_node = node_;
  reply.src_send_ep = kNoReplyEp;
  reply.reply_ep = kNoReplyEp;
  reply.label = msg.label;
  reply.is_reply = true;
  reply.body = std::move(body);
  StampTrace(reply);

  NodeId dst_node = msg.src_node;
  EpId dst_ep = msg.reply_ep;
  Dtu* remote = fabric_->At(dst_node);
  CHECK(remote != nullptr);
  uint32_t bytes = reply.body ? reply.body->WireSize() : 16;
  fabric_->noc()->Send(node_, dst_node, bytes,
                       [remote, dst_ep, reply = std::move(reply)]() mutable {
                         remote->Deliver(dst_ep, std::move(reply));
                       });
  return Status::Ok();
}

void Dtu::Ack(EpId recv_ep, const Message& msg) {
  CHECK_LT(recv_ep, kNumEps);
  Endpoint& e = eps_[recv_ep];
  CHECK(e.type == EpType::kReceive);
  CHECK_GT(e.occupied, 0u);
  e.occupied--;
  // Return the credit to the sender with a tiny control packet.
  NodeId dst_node = msg.src_node;
  EpId credit_ep = msg.src_send_ep;
  if (credit_ep == kNoReplyEp || dead_) {
    return;
  }
  Dtu* remote = fabric_->At(dst_node);
  CHECK(remote != nullptr);
  fabric_->noc()->Send(node_, dst_node, 16,
                       [remote, credit_ep] { remote->ReturnCredit(credit_ep); });
}

void Dtu::Deliver(EpId ep, Message msg) {
  CHECK_LT(ep, kNumEps);
  if (dead_) {
    // Fault injection: the node is powered off — arriving packets vanish
    // without touching slot accounting. Peers observe silence, which is
    // what the failure detector is built to notice.
    stats_.msgs_lost_dead++;
    return;
  }
  Endpoint& e = eps_[ep];
  if (msg.is_reply) {
    // Replies are received into the context the sender reserved when it
    // issued the request (M3 associates a reply slot with every send), so
    // they never compete for request slots and cannot be dropped.
    if (e.type == EpType::kReceive && e.handler) {
      stats_.msgs_received++;
      RecordTransit(msg);
      e.handler(ep, msg);
    } else {
      stats_.msgs_dropped++;
      LOG_WARN("dtu") << "node " << node_ << ": reply to unconfigured EP " << ep << " dropped";
    }
    return;
  }
  if (e.type != EpType::kReceive) {
    // Message to an unconfigured endpoint disappears (hardware drops it).
    stats_.msgs_dropped++;
    LOG_WARN("dtu") << "node " << node_ << ": message to non-recv EP " << ep << " dropped";
    return;
  }
  if (e.occupied >= e.slots) {
    // Out of message slots: "If this limit is exceeded then the messages
    // will be lost" (paper §4.1). The kernel flow-control protocol must make
    // this unreachable; tests assert msgs_dropped == 0.
    stats_.msgs_dropped++;
    LOG_ERROR("dtu") << "node " << node_ << ": EP " << ep << " out of slots, message LOST";
    return;
  }
  e.occupied++;
  stats_.msgs_received++;
  RecordTransit(msg);
  CHECK(e.handler) << "recv EP " << ep << " on node " << node_ << " has no handler";
  e.handler(ep, msg);
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
  CHECK_LT(send_ep, kNumEps);
  Endpoint& e = eps_[send_ep];
  if (e.type != EpType::kSend) {
    return;  // endpoint was reconfigured while the credit was in flight
  }
  if (e.credits < e.max_credits) {
    e.credits++;
  }
}

Status Dtu::StartMemAccess(EpId mem_ep, uint64_t offset, uint64_t bytes, bool write,
                           Cycles* latency) {
  CHECK_LT(mem_ep, kNumEps);
  if (dead_) {
    stats_.msgs_lost_dead++;
    return Status(ErrCode::kUnreachable);  // done never fires
  }
  Endpoint& e = eps_[mem_ep];
  if (e.type != EpType::kMemory) {
    return Status(ErrCode::kInvalidArgs);
  }
  if (write ? !e.perms.write : !e.perms.read) {
    return Status(ErrCode::kNoPerm);
  }
  // Compared without the sum, which a hostile offset can wrap past 2^64.
  if (bytes > e.mem_size || offset > e.mem_size - bytes) {
    return Status(ErrCode::kOutOfRange);
  }
  // Timing: request packet there, data back (or data there, ack back),
  // plus a fixed memory latency. Uncontended by design — the paper's own
  // methodology excludes memory contention (§5.3.1).
  Noc* noc = fabric_->noc();
  Cycles there = noc->UnloadedLatency(node_, e.dst_node, 16);
  Cycles back = noc->UnloadedLatency(e.dst_node, node_, static_cast<uint32_t>(
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

uint32_t Dtu::Credits(EpId ep) const {
  CHECK_LT(ep, kNumEps);
  return eps_[ep].credits;
}

uint32_t Dtu::FreeSlots(EpId ep) const {
  CHECK_LT(ep, kNumEps);
  const Endpoint& e = eps_[ep];
  return e.slots - e.occupied;
}

bool Dtu::EpValid(EpId ep) const {
  CHECK_LT(ep, kNumEps);
  return eps_[ep].type != EpType::kInvalid;
}

}  // namespace semperos
