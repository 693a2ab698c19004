#include "core/kernel.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"
#include "obs/trace.h"

namespace semperos {

namespace {

const char* kTag = "kernel";

// What an IKC call completes with when its peer kernel is dead.
IkcReply UnreachableReply(uint64_t token) {
  IkcReply reply;
  reply.token = token;
  reply.err = ErrCode::kUnreachable;
  return reply;
}

}  // namespace

const char* CapTypeName(CapType type) {
  switch (type) {
    case CapType::kNone:
      return "none";
    case CapType::kVpe:
      return "vpe";
    case CapType::kMem:
      return "mem";
    case CapType::kSendGate:
      return "sgate";
    case CapType::kRecvGate:
      return "rgate";
    case CapType::kService:
      return "service";
    case CapType::kSession:
      return "session";
    case CapType::kKernel:
      return "kernel";
  }
  return "?";
}

const char* IkcOpName(IkcOp op) {
  switch (op) {
    case IkcOp::kHello:
      return "hello";
    case IkcOp::kShutdown:
      return "shutdown";
    case IkcOp::kServiceAnnounce:
      return "service_announce";
    case IkcOp::kOpenSessionReq:
      return "open_session_req";
    case IkcOp::kObtainReq:
      return "obtain_req";
    case IkcOp::kDelegateReq:
      return "delegate_req";
    case IkcOp::kDelegateAck:
      return "delegate_ack";
    case IkcOp::kRevokeReq:
      return "revoke_req";
    case IkcOp::kRevokeBatchReq:
      return "revoke_batch_req";
    case IkcOp::kOrphanNotify:
      return "orphan_notify";
    case IkcOp::kChildDrop:
      return "child_drop";
    case IkcOp::kMigrateVpe:
      return "migrate_vpe";
    case IkcOp::kEpochUpdate:
      return "epoch_update";
    case IkcOp::kSuspectKernel:
      return "suspect_kernel";
    case IkcOp::kFailoverDecree:
      return "failover_decree";
    case IkcOp::kRelayNotice:
      return "relay_notice";
  }
  return "?";
}

Kernel::Kernel(Config config) : config_(std::move(config)), t_(config_.timing) {
  CHECK_LE(config_.kernel_nodes.size(), size_t{kMaxKernels});
  peers_.resize(config_.kernel_nodes.size());
  for (KernelId k = 0; k < config_.kernel_nodes.size(); ++k) {
    if (k != config_.id) {
      peers_[k].credits = config_.max_inflight;
    }
  }
}

uint32_t Kernel::ThreadPoolSize() const {
  // Eq. 1: V_group + K_max * M_inflight.
  return static_cast<uint32_t>(vpes_.size()) +
         static_cast<uint32_t>(config_.kernel_nodes.size()) * config_.max_inflight;
}

void Kernel::AcquireThread() {
  stats_.threads_in_use++;
  stats_.threads_in_use_max = std::max(stats_.threads_in_use_max, stats_.threads_in_use);
  // Eq. 1 (V_group + K_max * M_inflight) is the paper's static sizing and
  // holds for every evaluated workload. With the in-flight window covering
  // send->dispatch (necessary for revocation liveness, see OnIkc), the
  // *provable* bound on concurrently held threads is one per local VPE plus
  // one per remote client VPE that can target this kernel; we guard against
  // leaks with that hard bound.
  CHECK_LE(stats_.threads_in_use, vpes_.size() + config_.membership.PeCount())
      << "kernel " << config_.id << " leaked operation threads";
}

void Kernel::ReleaseThread() {
  CHECK_GT(stats_.threads_in_use, 0u);
  stats_.threads_in_use--;
}

Cycles Kernel::Charge(Cycles cost) { return pe_->exec().Occupy(cost); }

void Kernel::DrainEgress() {
  if (egress_scheduled_ || egress_.empty()) {
    return;
  }
  Cycles now = pe_->sim()->Now();
  Cycles when = egress_.front().ready > now ? egress_.front().ready : now;
  egress_scheduled_ = true;
  pe_->sim()->ScheduleAt(when, [this] {
    egress_scheduled_ = false;
    CHECK(!egress_.empty());
    InlineFn send = std::move(egress_.front().send);
    egress_.pop_front();
    send.Fire();
    DrainEgress();
  });
}

// ---------------------------------------------------------------------------
// Boot
// ---------------------------------------------------------------------------

void Kernel::Start() {
  Dtu& dtu = pe_->dtu();
  dtu.ConfigureRecv(kEpAskReply, 64, [this](EpId, const Message& msg) { OnAskReply(msg); });
  dtu.ConfigureRecv(kEpHeartbeat, Dtu::kDefaultSlots,
                    [this](EpId ep, const Message& msg) { OnHeartbeat(ep, msg); });
  for (uint32_t i = 0; i < kNumSyscallEps; ++i) {
    dtu.ConfigureRecv(kEpSyscall0 + i, Dtu::kDefaultSlots,
                      [this](EpId ep, const Message& msg) { OnSyscall(ep, msg); });
  }
  for (uint32_t i = 0; i < kNumKernelEps; ++i) {
    dtu.ConfigureRecv(kEpKernel0 + i, Dtu::kDefaultSlots,
                      [this](EpId ep, const Message& msg) { OnIkc(ep, msg); });
  }
  BroadcastHello();
}

void Kernel::BroadcastHello() {
  if (PeerCount() == 0) {
    booted_ = true;
    return;
  }
  for (KernelId peer = 0; peer < config_.kernel_nodes.size(); ++peer) {
    if (peer == config_.id) {
      continue;
    }
    auto msg = NewMsg<IkcMsg>();
    msg->op = IkcOp::kHello;
    SendIkc(peer, msg, [this](const IkcReply&) {
      hello_replies_++;
      if (hello_replies_ == PeerCount()) {
        booted_ = true;
        LOG_INFO(kTag) << "kernel " << config_.id << " booted";
      }
    });
  }
}

void Kernel::FinishBoot(const std::vector<ProcessingElement*>& group_pes) {
  for (ProcessingElement* pe : group_pes) {
    if (pe->type() == PeType::kUser || pe->type() == PeType::kService ||
        pe->type() == PeType::kLoadGen) {
      pe->dtu().Downgrade();  // NoC-level isolation from here on
    }
  }
}

void Kernel::Trim() {
  syscall_recs_.Trim();
  obtain_recs_.Trim();
  delegate_recs_.Trim();
  parked_recs_.Trim();
  ask_recs_.Trim();
  ikc_recs_.Trim();
  revoke_recs_.Trim();
  countdown_recs_.Trim();
  obtains_.Trim();
  delegates_.Trim();
  parked_delegates_.Trim();
  asks_.Trim();
  ikcs_.Trim();
  revoke_tasks_.Trim();
  for (Peer& peer : peers_) {
    peer.queue.Trim();
  }
  egress_.Trim();
}

void Kernel::AdminCreateVpe(NodeId node, bool is_service) {
  CHECK_EQ(config_.membership.KernelOf(node), config_.id);
  CHECK_LT(vpes_.size(), kMaxVpesPerKernel)
      << "kernel " << config_.id << " exceeds 192 VPEs (6 syscall EPs x 32 slots)";
  VpeState vpe;
  vpe.id = node;
  vpe.node = node;
  vpe.is_service = is_service;
  VpeState* v = vpes_.Insert(std::move(vpe));
  CHECK(v != nullptr);
  // Every VPE starts with a capability for itself (selector 0).
  CapPayload payload;
  payload.type = CapType::kVpe;
  CreateCap(v, CapType::kVpe, payload, DdlKey());
}

CapSel Kernel::AdminGrantMem(VpeId vpe_id, NodeId mem_node, uint64_t base, uint64_t size,
                             uint32_t perms) {
  VpeState* v = vpes_.Find(vpe_id);
  CHECK(v != nullptr);
  CapPayload payload;
  payload.type = CapType::kMem;
  payload.mem_node = mem_node;
  payload.mem_base = base;
  payload.mem_size = size;
  payload.perms = perms;
  Capability* cap = CreateCap(v, CapType::kMem, payload, DdlKey());
  return cap->sel();
}

const VpeState* Kernel::FindVpe(VpeId vpe) const { return vpes_.Find(vpe); }

std::string Kernel::DumpCaps() const {
  std::ostringstream os;
  os << "kernel " << config_.id << ": " << vpes_.size() << " VPEs, " << caps_.size()
     << " capabilities\n";
  vpes_.ForEach([&](const VpeState& vpe) {
    os << "  vpe " << vpe.id << (vpe.alive ? "" : " (dead)") << (vpe.is_service ? " (service)" : "")
       << ": " << vpe.table.size() << " caps\n";
    vpe.table.ForEach([&](CapSel sel, DdlKey key) {
      const Capability* cap = caps_.Find(key);
      if (cap == nullptr) {
        os << "    sel " << sel << ": <missing " << key.raw() << ">\n";
        return;
      }
      os << "    sel " << sel << ": " << CapTypeName(cap->type()) << " key=" << key.raw();
      if (!cap->parent().IsNull()) {
        os << " parent@k" << config_.membership.KernelOfKey(cap->parent());
      }
      if (!cap->children().empty()) {
        os << " children=[";
        bool first = true;
        for (DdlKey child : cap->children()) {
          os << (first ? "" : " ") << "k" << config_.membership.KernelOfKey(child);
          first = false;
        }
        os << "]";
      }
      if (cap->marked()) {
        os << " MARKED";
      }
      if (cap->activated()) {
        os << " ep" << cap->activated_ep();
      }
      os << "\n";
    });
  });
  return os.str();
}

Capability* Kernel::CapOf(VpeId vpe, CapSel sel) const {
  const VpeState* v = vpes_.Find(vpe);
  if (v == nullptr) {
    return nullptr;
  }
  DdlKey key = v->table.Find(sel);
  return key.IsNull() ? nullptr : caps_.Find(key);
}

// ---------------------------------------------------------------------------
// Capability helpers
// ---------------------------------------------------------------------------

DdlKey Kernel::AllocKey(VpeId creator, CapType type) {
  // The creator's PE id selects the key partition, so any kernel can map the
  // key back to this kernel through the membership table (paper §3.2).
  return DdlKey::Make(creator, creator, type, next_obj_++);
}

Capability* Kernel::CreateCap(VpeState* vpe, CapType type, const CapPayload& payload,
                              DdlKey parent) {
  CapSel sel = vpe->AllocSel();
  DdlKey key = AllocKey(vpe->id, type);
  Capability* cap = caps_.Create(key, type, vpe->id, sel);
  cap->payload() = payload;
  cap->payload().type = type;
  cap->set_parent(parent);
  vpe->table.Set(sel, key);
  stats_.caps_created++;
  return cap;
}

void Kernel::UnlinkChildAtParent(DdlKey parent, DdlKey child, bool orphan) {
  if (KernelOf(parent) == config_.id) {
    // The parent's partition may be mid-transfer: its snapshot (including
    // the children list) was packed when the transfer started, so a local
    // unlink now would be silently undone when the destination installs
    // the stale copy. Defer and re-route once the handoff resolves.
    for (auto& [id, task] : migrate_tasks_) {
      (void)id;
      if (task->phase == MigrateTask::Phase::kTransfer && task->pe == parent.pe()) {
        task->deferred_unlinks.emplace_back(
            [this, parent, child, orphan] { UnlinkChildAtParent(parent, child, orphan); });
        return;
      }
    }
    Capability* p = caps_.Find(parent);
    if (p != nullptr) {
      p->RemoveChild(child);
    }
    return;
  }
  // Remote parent: notify its kernel asynchronously. If the parent is being
  // revoked itself, the receiver simply finds the key already gone.
  auto msg = NewMsg<IkcMsg>();
  msg->op = orphan ? IkcOp::kOrphanNotify : IkcOp::kChildDrop;
  msg->parent = parent;
  msg->child = child;
  SendIkc(KernelOf(parent), msg, [](const IkcReply&) {});
}

// ---------------------------------------------------------------------------
// System call entry
// ---------------------------------------------------------------------------

void Kernel::OnSyscall(EpId ep, const Message& msg) {
  const SyscallMsg* req = msg.As<SyscallMsg>();
  if (req == nullptr) {
    // Any other body on a syscall gate comes from an untrusted user PE:
    // free its slot, which returns the sender's credit, and answer nothing.
    stats_.user_msgs_dropped++;
    pe_->dtu().Ack(ep, msg.slot);
    return;
  }
  stats_.syscalls++;
  AcquireThread();

  SyscallRec* sc = syscall_recs_.New();
  // The caller is the PE the DTU says the message came from (a VPE's id is
  // its PE's node id): a user PE cannot name another VPE as the caller.
  sc->vpe = msg.src_node;
  sc->recv_ep = ep;
  sc->msg = msg;
  if (obs::Tracer* tr = tracer(); tr != nullptr && msg.body->trace_id != 0) {
    sc->span = tr->Open(pe_->node(), msg.body->trace_id, msg.body->trace_parent,
                        pe_->sim()->Now(), obs::SpanKind::kSyscall, static_cast<uint16_t>(req->op));
  }

  if (shutting_down_) {
    AnswerSyscall(sc, ErrCode::kAborted);
    return;
  }
  VpeState* v = vpes_.Find(sc->vpe);
  if (v == nullptr || !v->alive) {
    // A migrated-away VPE may race its endpoint retarget: its retry must
    // get the retryable kVpeMigrating, not a terminal kNoSuchVpe.
    bool migrated = migrated_away_.count(sc->vpe) > 0;
    if (migrated) {
      stats_.syscalls_frozen++;
    }
    AnswerSyscall(sc, migrated ? ErrCode::kVpeMigrating : ErrCode::kNoSuchVpe);
    return;
  }
  if (v->migrating) {
    // Frozen for migration: the user-level runtime retries transparently;
    // by then the syscall endpoint points at the new kernel.
    stats_.syscalls_frozen++;
    AnswerSyscall(sc, ErrCode::kVpeMigrating);
    return;
  }

  // Messages the handler sends on this call's behalf nest under its span.
  cur_trace_ = TraceCtx{sc->span.trace_id, sc->span.span_id};
  switch (req->op) {
    case SyscallOp::kNoop:
      SysNoop(sc, *req);
      break;
    case SyscallOp::kOpenSession:
      SysOpenSession(sc, *req);
      break;
    case SyscallOp::kExchange:
      SysExchange(sc, *req);
      break;
    case SyscallOp::kObtain:
      SysObtain(sc, *req);
      break;
    case SyscallOp::kDelegate:
      SysDelegate(sc, *req);
      break;
    case SyscallOp::kRevoke:
      SysRevoke(sc, *req);
      break;
    case SyscallOp::kActivate:
      SysActivate(sc, *req);
      break;
    case SyscallOp::kDeriveMem:
      SysDeriveMem(sc, *req);
      break;
    case SyscallOp::kRegisterService:
      SysRegisterService(sc, *req);
      break;
  }
  cur_trace_ = TraceCtx{};
}

void Kernel::ReplySyscall(SyscallRec* sc, ErrCode err, CapSel sel, const CapPayload& payload,
                          MsgRef opaque) {
  ReleaseThread();
  const SyscallMsg* req = sc->msg.As<SyscallMsg>();
  const VpeState* v = vpes_.Find(sc->vpe);
  bool reachable = (v != nullptr && v->alive) || migrated_away_.count(sc->vpe) > 0;
  if (!reachable) {
    // The caller died while the operation was in flight; just free the slot.
    // (Migrated-away VPEs are alive elsewhere and must still get their
    // kVpeMigrating answer, or their retry loop would hang.)
    pe_->dtu().Ack(sc->recv_ep, sc->msg.slot);
    syscall_recs_.Delete(sc);
    return;
  }
  auto reply = NewMsg<SyscallReply>();
  reply->token = req->token;
  reply->err = err;
  reply->sel = sel;
  reply->cap = payload;
  reply->payload = std::move(opaque);
  if (sc->span.span_id != 0) {
    // The reply's transit span hangs under the syscall span.
    reply->trace_id = sc->span.trace_id;
    reply->trace_parent = sc->span.span_id;
    tracer()->Close(sc->span, pe_->sim()->Now());
  }
  pe_->dtu().Reply(sc->recv_ep, sc->msg.slot, reply);
  syscall_recs_.Delete(sc);
}

void Kernel::AnswerSyscall(SyscallRec* sc, ErrCode err) {
  Finish(t_.syscall_dispatch + t_.syscall_reply, [this, sc, err] { ReplySyscall(sc, err); });
}

Capability* Kernel::CallerCap(SyscallRec* sc, CapSel sel, CapType type) {
  Capability* cap = CapOf(sc->vpe, sel);
  if (cap == nullptr || (type != CapType::kNone && cap->type() != type)) {
    AnswerSyscall(sc, cap == nullptr ? ErrCode::kNoSuchCap : ErrCode::kInvalidCapType);
    return nullptr;
  }
  if (cap->marked()) {
    // "we immediately deny exchanges of capabilities that are in
    // revocation, which prevents pointless capability exchanges" (§4.3.3).
    stats_.pointless_denials++;
    AnswerSyscall(sc, ErrCode::kCapRevoked);
    return nullptr;
  }
  return cap;
}

void Kernel::SysNoop(SyscallRec* sc, const SyscallMsg& req) {
  (void)req;
  AnswerSyscall(sc, ErrCode::kOk);
}

// ---------------------------------------------------------------------------
// Obtain path — local and group-spanning (paper §4.3.2, Figure 3)
// ---------------------------------------------------------------------------

void Kernel::OwnerSideObtain(ObtainOp* op, AskOp ask_op, DdlKey owner_cap, VpeId owner_vpe,
                             CapSel owner_sel, MsgRef opaque, uint64_t session) {
  VpeState* owner = vpes_.Find(owner_vpe);
  if (owner == nullptr || !owner->alive) {
    OwnerObtainDone(op, ErrCode::kVpeGone, DdlKey(), CapPayload(), nullptr, 0);
    return;
  }
  if (owner->migrating) {
    // The owner's partition is being handed off; like the Pointless denial
    // this is rejected immediately, but with a retryable code — the retry
    // routes to the new kernel through the updated membership table.
    OwnerObtainDone(op, ErrCode::kVpeMigrating, DdlKey(), CapPayload(), nullptr, 0);
    return;
  }

  // Resolve the capability that anchors this exchange (except for session
  // exchanges, where the service names the shared capability in its reply).
  Capability* anchor = nullptr;
  if (ask_op != AskOp::kExchange) {
    anchor = owner_cap.IsNull() ? CapOf(owner_vpe, owner_sel) : caps_.Find(owner_cap);
    if (anchor == nullptr) {
      OwnerObtainDone(op, ErrCode::kNoSuchCap, DdlKey(), CapPayload(), nullptr, 0);
      return;
    }
    if (anchor->marked()) {
      // "we immediately deny exchanges of capabilities that are in
      // revocation, which prevents pointless capability exchanges" (§4.3.3).
      stats_.pointless_denials++;
      OwnerObtainDone(op, ErrCode::kCapRevoked, DdlKey(), CapPayload(), nullptr, 0);
      return;
    }
  }

  auto ask = NewMsg<AskMsg>();
  ask->op = ask_op;
  ask->client = op->client;
  ask->sel = owner_sel;
  ask->session = session;
  ask->payload = std::move(opaque);

  op->ask_op = ask_op;
  op->owner_vpe = owner_vpe;
  AskParty(owner->node, ask, [this, op](const AskReply& reply) { OwnerObtainAsked(op, reply); });
}

void Kernel::OwnerObtainAsked(ObtainOp* op, const AskReply& reply) {
  if (reply.err != ErrCode::kOk) {
    OwnerObtainDone(op, reply.err, DdlKey(), CapPayload(), reply.payload, reply.session);
    return;
  }
  // Re-resolve: the capability may have been revoked while we were waiting
  // for the party.
  Capability* parent = CapOf(op->owner_vpe, reply.share_sel);
  if (parent == nullptr) {
    OwnerObtainDone(op, ErrCode::kNoSuchCap, DdlKey(), CapPayload(), reply.payload, reply.session);
    return;
  }
  if (parent->marked()) {
    stats_.pointless_denials++;
    OwnerObtainDone(op, ErrCode::kCapRevoked, DdlKey(), CapPayload(), reply.payload,
                    reply.session);
    return;
  }
  // Link the proposed child into the mapping database. If the obtainer dies
  // before materializing it, this entry is the "orphaned capability" of
  // §4.3.2, cleaned up via notification.
  Charge(t_.tree_insert + t_.ddl_decode);
  parent->AddChild(op->child_key);
  CapPayload payload = parent->payload();
  if (op->ask_op == AskOp::kOpenSession) {
    payload.type = CapType::kSession;
    payload.session = reply.session;
    payload.service = parent->key();
  }
  OwnerObtainDone(op, ErrCode::kOk, parent->key(), payload, reply.payload, reply.session);
}

void Kernel::OwnerObtainDone(ObtainOp* op, ErrCode err, DdlKey parent, const CapPayload& payload,
                             MsgRef opaque, uint64_t session) {
  if (op->sc != nullptr) {
    FinishObtain(op, err, parent, payload, std::move(opaque));
    return;
  }
  // Owner side of a group-spanning obtain: answer the obtainer's kernel.
  auto reply = NewMsg<IkcReply>();
  reply->err = err;
  reply->cap = parent;
  reply->payload = payload;
  reply->payload.session = session != 0 ? session : reply->payload.session;
  reply->opaque = std::move(opaque);
  Message msg = std::move(op->ikc_msg);
  obtain_recs_.Delete(op);
  Emit(Charge(t_.ikc_send), [this, msg, reply] { ReplyIkc(msg, reply); });
  ReleaseThread();
}

void Kernel::FinishObtain(ObtainOp* op, ErrCode err, DdlKey parent, const CapPayload& payload,
                          MsgRef opaque) {
  op->opaque = std::move(opaque);
  if (err != ErrCode::kOk) {
    Finish(t_.syscall_reply, [this, op, err] { ReplyObtain(op, err); });
    return;
  }
  VpeState* client = vpes_.Find(op->client);
  if (client == nullptr || !client->alive) {
    // Obtainer died while the exchange was in flight: the owner now tracks
    // an orphaned child. Notify its kernel for quick removal (§4.3.2).
    stats_.orphans_cleaned++;
    UnlinkChildAtParent(parent, op->child_key, /*orphan=*/true);
    ReleaseThread();
    pe_->dtu().Ack(op->sc->recv_ep, op->sc->msg.slot);
    syscall_recs_.Delete(op->sc);
    obtain_recs_.Delete(op);
    return;
  }

  CapSel sel = client->AllocSel();
  Capability* cap = caps_.Create(op->child_key, payload.type, op->client, sel);
  cap->payload() = payload;
  cap->set_parent(parent);
  client->table.Set(sel, op->child_key);
  stats_.caps_created++;
  stats_.obtains++;

  op->sel = sel;
  op->payload = payload;
  if (op->open_session) {
    stats_.sessions_opened++;
    // Configure the client's session send gate (the channel of Figure 3
    // that afterwards works without the kernel).
    Charge(t_.cap_create + t_.ddl_decode + t_.ep_config);
    pe_->dtu().ConfigureRemoteSend(
        client->node, user_ep::kServiceSend, op->service_node, user_ep::kServiceRecv,
        /*credits=*/1, /*label=*/payload.session, [this, op] {
          Finish(t_.syscall_reply, [this, op] { ReplyObtain(op, ErrCode::kOk); });
        });
    return;
  }
  Finish(t_.cap_create + t_.ddl_decode + t_.syscall_reply,
         [this, op] { ReplyObtain(op, ErrCode::kOk); });
}

void Kernel::ReplyObtain(ObtainOp* op, ErrCode err) {
  ReplySyscall(op->sc, err, op->sel, op->payload, std::move(op->opaque));
  obtain_recs_.Delete(op);
}

void Kernel::ObtainIkcReplied(ObtainOp* op, const IkcReply& reply) {
  CHECK(obtains_.Erase(op->token) == op);
  Charge(t_.ikc_reply_handle);
  FinishObtain(op, reply.err, reply.cap, reply.payload, reply.opaque);
}

Kernel::ObtainOp* Kernel::NewObtain(SyscallRec* sc, CapType child_type) {
  ObtainOp* op = obtain_recs_.New();
  op->token = next_token_++;
  op->sc = sc;
  op->client = sc->vpe;
  op->child_key = AllocKey(sc->vpe, child_type);
  return op;
}

void Kernel::ForwardObtain(ObtainOp* op, KernelId owner, Cycles decode,
                           std::shared_ptr<IkcMsg> msg) {
  stats_.spanning_obtains++;
  obtains_.Insert(op->token, op);
  Charge(t_.syscall_dispatch + decode + t_.ikc_send);
  msg->vpe = op->client;
  msg->child = op->child_key;
  SendIkc(owner, std::move(msg),
          [this, op](const IkcReply& reply) { ObtainIkcReplied(op, reply); });
}

void Kernel::SysObtain(SyscallRec* sc, const SyscallMsg& req) {
  if (!KnownPe(req.peer)) {
    AnswerSyscall(sc, ErrCode::kNoSuchVpe);
    return;
  }
  ObtainOp* op = NewObtain(sc, CapType::kNone);
  if (IsLocalVpe(req.peer)) {
    Charge(t_.syscall_dispatch + t_.exchange_validate + t_.ddl_decode);
    OwnerSideObtain(op, AskOp::kObtain, DdlKey(), req.peer, req.sel, nullptr, 0);
    return;
  }
  auto msg = NewMsg<IkcMsg>();
  msg->op = IkcOp::kObtainReq;
  msg->peer = req.peer;
  // Reuse the syscall's selector as the owner-side selector.
  msg->payload.session = req.sel;
  ForwardObtain(op, KernelOfVpe(req.peer), DdlDecodeCostVpe(req.peer), msg);
}

// ---------------------------------------------------------------------------
// Sessions and session exchanges (service-mediated obtains)
// ---------------------------------------------------------------------------

const Kernel::ServiceEntry* Kernel::PickService(const std::string& name, VpeId client) const {
  auto it = services_.find(name);
  if (it == services_.end() || it->second.empty()) {
    return nullptr;
  }
  const std::vector<ServiceEntry>& entries = it->second;
  // Kernels "prefer to connect their applications to the service in their PE
  // group over a service in another PE group" (paper §5.3.2).
  const ServiceEntry* local_pick = nullptr;
  uint32_t locals = 0;
  for (const ServiceEntry& e : entries) {
    if (e.kernel == config_.id) {
      locals++;
    }
  }
  if (locals > 0) {
    uint32_t idx = client % locals;
    for (const ServiceEntry& e : entries) {
      if (e.kernel == config_.id) {
        if (idx == 0) {
          local_pick = &e;
          break;
        }
        idx--;
      }
    }
    return local_pick;
  }
  return &entries[client % entries.size()];
}

void Kernel::SysOpenSession(SyscallRec* sc, const SyscallMsg& req) {
  const ServiceEntry* svc = PickService(req.name, sc->vpe);
  if (svc == nullptr) {
    AnswerSyscall(sc, ErrCode::kNoSuchService);
    return;
  }
  ObtainOp* op = NewObtain(sc, CapType::kSession);
  op->open_session = true;
  op->service_node = svc->node;
  if (svc->kernel == config_.id) {
    Charge(t_.syscall_dispatch + t_.exchange_validate + t_.ddl_decode + t_.session_exchange_extra);
    OwnerSideObtain(op, AskOp::kOpenSession, svc->cap, svc->vpe, kInvalidSel, nullptr, 0);
    return;
  }
  auto msg = NewMsg<IkcMsg>();
  msg->op = IkcOp::kOpenSessionReq;
  msg->cap = svc->cap;
  ForwardObtain(op, svc->kernel, DdlDecodeCost(svc->cap), msg);
}

void Kernel::SysExchange(SyscallRec* sc, const SyscallMsg& req) {
  Capability* session = CallerCap(sc, req.sel, CapType::kSession);
  if (session == nullptr) {
    return;
  }
  DdlKey service_cap = session->payload().service;
  uint64_t session_id = session->payload().session;
  KernelId owner_kernel = KernelOf(service_cap);
  ObtainOp* op = NewObtain(sc, CapType::kNone);
  if (owner_kernel == config_.id) {
    Capability* svc_cap = caps_.Find(service_cap);
    if (svc_cap == nullptr) {
      obtain_recs_.Delete(op);
      AnswerSyscall(sc, ErrCode::kNoSuchCap);
      return;
    }
    Charge(t_.syscall_dispatch + t_.exchange_validate + t_.ddl_decode + t_.session_exchange_extra);
    OwnerSideObtain(op, AskOp::kExchange, service_cap, svc_cap->holder(), kInvalidSel,
                    req.payload, session_id);
    return;
  }
  auto msg = NewMsg<IkcMsg>();
  msg->op = IkcOp::kObtainReq;
  msg->cap = service_cap;
  msg->opaque = req.payload;
  msg->payload.session = session_id;
  ForwardObtain(op, owner_kernel, DdlDecodeCost(service_cap), msg);
}

// ---------------------------------------------------------------------------
// Delegate path — two-way handshake (paper §4.3.2)
// ---------------------------------------------------------------------------

void Kernel::SysDelegate(SyscallRec* sc, const SyscallMsg& req) {
  if (!KnownPe(req.peer)) {
    AnswerSyscall(sc, ErrCode::kNoSuchVpe);
    return;
  }
  Capability* cap = CallerCap(sc, req.sel, CapType::kNone);
  if (cap == nullptr) {
    return;
  }

  uint64_t token = next_token_++;

  if (IsLocalVpe(req.peer)) {
    // Group-internal delegate: no handshake needed, one kernel owns both.
    VpeState* peer_vpe = vpes_.Find(req.peer);
    if (peer_vpe == nullptr || !peer_vpe->alive) {
      AnswerSyscall(sc, ErrCode::kVpeGone);
      return;
    }
    if (peer_vpe->migrating) {
      AnswerSyscall(sc, ErrCode::kVpeMigrating);
      return;
    }
    DelegateOp* op = delegate_recs_.New();
    op->token = token;
    op->sc = sc;
    op->cap = cap->key();
    op->client = sc->vpe;
    op->peer = req.peer;
    Charge(t_.syscall_dispatch + t_.exchange_validate + t_.ddl_decode);
    auto ask = NewMsg<AskMsg>();
    ask->op = AskOp::kDelegate;
    ask->client = sc->vpe;
    ask->offered = cap->payload();
    AskParty(peer_vpe->node, ask, [this, op](const AskReply& reply) {
      if (reply.err != ErrCode::kOk) {
        Finish(t_.syscall_reply, [this, op, err = reply.err] { ReplyDelegate(op, err); });
        return;
      }
      Capability* parent = caps_.Find(op->cap);
      if (parent == nullptr || parent->marked()) {
        stats_.pointless_denials += (parent != nullptr);
        Finish(t_.syscall_reply, [this, op] { ReplyDelegate(op, ErrCode::kCapRevoked); });
        return;
      }
      VpeState* receiver = vpes_.Find(op->peer);
      if (receiver == nullptr || !receiver->alive) {
        Finish(t_.syscall_reply, [this, op] { ReplyDelegate(op, ErrCode::kVpeGone); });
        return;
      }
      Capability* child = CreateCap(receiver, parent->type(), parent->payload(),
                                    parent->key());
      parent->AddChild(child->key());
      stats_.delegates++;
      Finish(t_.cap_create + t_.tree_insert + 2 * t_.ddl_decode + t_.syscall_reply,
             [this, op] { ReplyDelegate(op, ErrCode::kOk); });
    });
    return;
  }

  // Group-spanning delegate.
  DelegateOp* op = delegate_recs_.New();
  op->token = token;
  op->sc = sc;
  op->cap = cap->key();
  op->client = sc->vpe;
  op->peer = req.peer;
  stats_.spanning_delegates++;
  delegates_.Insert(op->token, op);
  Charge(t_.syscall_dispatch + t_.exchange_validate + DdlDecodeCostVpe(req.peer) +
         t_.ikc_send);
  auto msg = NewMsg<IkcMsg>();
  msg->op = IkcOp::kDelegateReq;
  msg->vpe = sc->vpe;
  msg->peer = req.peer;
  msg->cap = cap->key();
  msg->payload = cap->payload();
  SendIkc(KernelOfVpe(req.peer), msg, [this, op](const IkcReply& reply) {
    CHECK(delegates_.Erase(op->token) == op);
    Charge(t_.ikc_reply_handle);
    FinishDelegate(op, reply.err, reply.child);
  });
}

void Kernel::ReplyDelegate(DelegateOp* op, ErrCode err) {
  ReplySyscall(op->sc, err);
  delegate_recs_.Delete(op);
}

void Kernel::FinishDelegate(DelegateOp* op, ErrCode err, DdlKey child_key) {
  if (err != ErrCode::kOk) {
    Finish(t_.syscall_reply, [this, op, err] { ReplyDelegate(op, err); });
    return;
  }
  // Second leg of the handshake: only if the delegated capability still
  // exists do we link the child and tell the peer kernel to materialize it.
  // "if the delegator is killed while waiting... the delegated capability
  // stays valid at the receiving VPE" — prevented here (§4.3.2, "Invalid").
  Capability* parent = caps_.Find(op->cap);
  bool ok = parent != nullptr && !parent->marked();
  auto ack = NewMsg<IkcMsg>();
  ack->op = IkcOp::kDelegateAck;
  ack->child = child_key;
  ack->cap = op->cap;
  KernelId peer_kernel = KernelOfVpe(op->peer);
  if (ok) {
    parent->AddChild(child_key);
    stats_.delegates++;
    Charge(t_.tree_insert + t_.ddl_decode + t_.ikc_send);
  } else {
    stats_.invalid_prevented++;
    Charge(t_.ikc_send);
  }
  ack->payload.session = ok ? 0 : 1;  // non-zero session field = abort
  if (peer_kernel == config_.id) {
    // The receiver's partition migrated onto this kernel mid-handshake
    // (the request reached its old owner, which forwarded it here, so the
    // parked child sits in our own table): deliver the ACK locally.
    ApplyDelegateAck(!ok, child_key);
  } else {
    SendIkc(peer_kernel, ack, [](const IkcReply&) {});
  }
  Finish(t_.syscall_reply,
         [this, op, ok] { ReplyDelegate(op, ok ? ErrCode::kOk : ErrCode::kCapRevoked); });
}

ErrCode Kernel::ApplyDelegateAck(bool abort, DdlKey child_key) {
  ParkedDelegate* parked = parked_delegates_.Erase(child_key.raw());
  CHECK(parked != nullptr) << "delegate ack for unknown parked child";
  ErrCode err = ErrCode::kOk;
  if (!abort) {
    VpeState* receiver = vpes_.Find(parked->receiver);
    if (receiver != nullptr && receiver->alive) {
      CapSel sel = receiver->AllocSel();
      Capability* cap =
          caps_.Create(parked->child_key, parked->payload.type, parked->receiver, sel);
      cap->payload() = parked->payload;
      cap->set_parent(parked->parent_key);
      receiver->table.Set(sel, parked->child_key);
      stats_.caps_created++;
      Charge(t_.ikc_reply_handle + t_.tree_insert + t_.ddl_decode);
    } else {
      // Receiver died while waiting for the ACK: unlink the orphaned child
      // entry at the parent capability's kernel (§4.3.2). Route by the
      // parent's key, not the request's source — a forwarded delegate
      // carries the forwarder as source, and the parent's partition itself
      // may have migrated since the child was parked.
      stats_.orphans_cleaned++;
      UnlinkChildAtParent(parked->parent_key, parked->child_key, /*orphan=*/true);
      err = ErrCode::kVpeGone;
      Charge(t_.ikc_reply_handle);
    }
  } else {
    Charge(t_.ikc_reply_handle);
  }
  parked_recs_.Delete(parked);
  return err;
}

void Kernel::OwnerSideDelegate(const Message& msg, const IkcMsg& req) {
  VpeState* receiver = vpes_.Find(req.peer);
  if (receiver == nullptr || !receiver->alive || receiver->migrating) {
    AnswerIkc(t_.ikc_send, msg,
              (receiver != nullptr && receiver->migrating) ? ErrCode::kVpeMigrating
                                                           : ErrCode::kVpeGone);
    return;
  }
  auto ask = NewMsg<AskMsg>();
  ask->op = AskOp::kDelegate;
  ask->client = req.vpe;
  ask->offered = req.payload;
  DelegateOp* op = delegate_recs_.New();
  op->cap = req.cap;
  op->payload = req.payload;
  op->peer = req.peer;
  op->ikc_msg = msg;
  AskParty(receiver->node, ask,
           [this, op](const AskReply& areply) { OwnerDelegateAsked(op, areply); });
}

void Kernel::OwnerDelegateAsked(DelegateOp* op, const AskReply& areply) {
  Message msg = std::move(op->ikc_msg);
  if (areply.err != ErrCode::kOk) {
    delegate_recs_.Delete(op);
    AnswerIkc(t_.ikc_send, msg, areply.err);
    return;
  }
  // Create the child capability but do NOT insert it into the receiver's
  // capability tree yet — that happens on the ACK (two-way handshake,
  // §4.3.2).
  DdlKey child_key = AllocKey(op->peer, op->payload.type);
  ParkedDelegate* parked = parked_recs_.New();
  parked->child_key = child_key;
  parked->parent_key = op->cap;
  parked->receiver = op->peer;
  parked->payload = op->payload;
  parked_delegates_.Insert(child_key.raw(), parked);
  delegate_recs_.Delete(op);
  auto reply = NewMsg<IkcReply>();
  reply->child = child_key;
  Emit(Charge(t_.cap_create + t_.ddl_decode + t_.ikc_send),
       [this, msg, reply] { ReplyIkc(msg, reply); });
}

// ---------------------------------------------------------------------------
// Revocation — two-phase mark-and-sweep (paper §4.3.3, Algorithm 1)
// ---------------------------------------------------------------------------

Cycles Kernel::StartRevoke(Capability* cap, bool unlink, InlineFn done) {
  RevokeTask* task = revoke_recs_.New();
  task->id = next_token_++;
  task->root = cap->key();
  if (unlink) {
    task->parent_unlink = cap->parent();
  }
  task->done = std::move(done);
  revoke_tasks_.Insert(task->id, task);
  Cycles cost = MarkPass(cap, task);
  return cost + FlushRevokeRequests(task);
}

Cycles Kernel::MarkPass(Capability* cap, RevokeTask* task) {
  // Phase 1 of Algorithm 1 (`revoke_children`): mark the local subtree,
  // fan out REVOKE_REQs for remote children, and register dependencies on
  // overlapping revocations.
  cap->Mark(task);
  Cycles cost = t_.revoke_mark_per_cap + t_.ddl_decode;
  for (DdlKey child_key : cap->children()) {
    cost += DdlDecodeCost(child_key);  // decode the edge to find the owning kernel
    KernelId transfer_dst = MigratingTo(child_key.pe());
    if (transfer_dst != kInvalidKernel) {
      // The child's partition is in flight to another kernel. Marking the
      // local copy now would revoke state the destination is about to
      // resurrect; instead treat the child as remote and send the
      // REVOKE_REQ to the destination — pairwise FIFO guarantees the
      // MIGRATE_VPE snapshot arrives there first.
      stats_.spanning_revokes++;
      task->remote_children.push_back({transfer_dst, child_key});
      continue;
    }
    if (KernelOf(child_key) == config_.id) {
      Capability* child = caps_.Find(child_key);
      if (child == nullptr) {
        continue;  // already deleted by a completed overlapping revoke
      }
      if (child->marked()) {
        // Overlapping revocation: wait for the other task instead of
        // double-marking ("wait for the already outstanding kernel
        // replies", §4.3.3).
        task->outstanding++;
        uint64_t id = task->id;
        child->task()->on_complete.emplace_back([this, id] { RevokeDependencyDone(id); });
        continue;
      }
      cost += MarkPass(child, task);
    } else {
      stats_.spanning_revokes++;
      task->remote_children.push_back({KernelOf(child_key), child_key});
    }
  }
  return cost;
}

Cycles Kernel::FlushRevokeRequests(RevokeTask* task) {
  // Group by owning kernel, ascending, keeping discovery order within each
  // kernel (a stable insertion sort: the lists are short, and it sorts in
  // place without a scratch buffer).
  std::vector<RevokeTask::RemoteChild>& children = task->remote_children;
  for (size_t i = 1; i < children.size(); ++i) {
    for (size_t j = i; j > 0 && children[j - 1].kernel > children[j].kernel; --j) {
      std::swap(children[j - 1], children[j]);
    }
  }
  Cycles cost = 0;
  uint64_t id = task->id;
  for (size_t begin = 0; begin < children.size();) {
    KernelId peer = children[begin].kernel;
    size_t end = begin;
    while (end < children.size() && children[end].kernel == peer) {
      ++end;
    }
    if (config_.revoke_batching) {
      // One message per peer kernel carrying every child key (§5.2 future
      // work); the peer replies once when its whole share is gone.
      size_t count = end - begin;
      task->outstanding++;
      stats_.ikc_batches_sent++;
      stats_.ikc_batched_ops += count;
      cost += t_.ikc_send + static_cast<Cycles>(count) * 30;
      auto msg = NewMsg<IkcMsg>();
      msg->op = IkcOp::kRevokeBatchReq;
      for (size_t i = begin; i < end; ++i) {
        msg->caps.push_back(children[i].key);
      }
      SendIkc(peer, msg, [this, id](const IkcReply&) {
        Charge(t_.ikc_reply_handle);
        RevokeDependencyDone(id);
      });
    } else {
      // "the kernel managing the root capability sends out one message for
      // each child capability" (paper §5.2).
      for (size_t i = begin; i < end; ++i) {
        task->outstanding++;
        cost += t_.ikc_send;
        auto msg = NewMsg<IkcMsg>();
        msg->op = IkcOp::kRevokeReq;
        msg->cap = children[i].key;
        SendIkc(peer, msg, [this, id](const IkcReply&) {
          Charge(t_.ikc_reply_handle);
          RevokeDependencyDone(id);
        });
      }
    }
    begin = end;
  }
  children.clear();
  return cost;
}

void Kernel::RevokeDependencyDone(uint64_t task_id) {
  RevokeTask* task = revoke_tasks_.Find(task_id);
  CHECK(task != nullptr);
  CHECK_GT(task->outstanding, 0u);
  task->outstanding--;
  CheckRevokeComplete(task);
}

void Kernel::CheckRevokeComplete(RevokeTask* task) {
  if (task->outstanding > 0) {
    return;  // the kernel thread stays suspended (paper §4.2)
  }
  // Phase 2: every remote child confirmed; delete the local subtree. The
  // sweep cost must be charged before the completion reply is posted —
  // acknowledgements only go out once the deletion work is done.
  Charge(SweepPass(task->root, task));
  CompleteRevokeTask(task);
}

Cycles Kernel::SweepPass(DdlKey key, RevokeTask* task) {
  Capability* cap = caps_.Find(key);
  if (cap == nullptr || cap->task() != task) {
    return 0;  // remote child, or owned by an overlapping task
  }
  Cycles cost = 0;
  for (DdlKey child : cap->children()) {
    cost += SweepPass(child, task);
  }
  cost += t_.revoke_sweep_per_cap + t_.ddl_decode;
  if (cap->type() == CapType::kSession) {
    // The client's connection is gone; tell the service so it can drop the
    // session state (m3fs frees open-file bookkeeping).
    auto ask = NewMsg<AskMsg>();
    ask->op = AskOp::kCloseSession;
    ask->session = cap->payload().session;
    AskParty(cap->payload().dst_node, ask, [](const AskReply&) {});
  }
  if (cap->activated()) {
    // Enforce the revocation: invalidate the DTU endpoint this capability
    // was bound to (NoC-level isolation makes this sufficient).
    cost += t_.ep_invalidate;
    VpeState* h = vpes_.Find(cap->holder());
    if (h != nullptr) {
      pe_->dtu().InvalidateRemoteEp(h->node, cap->activated_ep(), nullptr);
    }
  }
  VpeState* holder = vpes_.Find(cap->holder());
  if (holder != nullptr) {
    holder->table.Erase(cap->sel());
  }
  caps_.Erase(key);
  stats_.caps_deleted++;
  return cost;
}

void Kernel::CompleteRevokeTask(RevokeTask* task) {
  // Unlink the root from its (possibly remote) parent, unless that parent
  // is being revoked by the kernel that asked us (the usual recursive case).
  if (!task->parent_unlink.IsNull()) {
    UnlinkChildAtParent(task->parent_unlink, task->root, /*orphan=*/false);
  }
  if (task->suspended) {
    Charge(t_.revoke_resume);  // the paused starting thread wakes up
  }
  // Answer only now that the whole subtree, including everything below
  // remote children, is gone: a revoke is never acknowledged incomplete
  // (§4.3.1 "Incomplete").
  task->done();
  for (InlineFn& hook : task->on_complete) {
    hook();
  }
  CHECK(revoke_tasks_.Erase(task->id) == task);
  revoke_recs_.Delete(task);
}

void Kernel::SysRevoke(SyscallRec* sc, const SyscallMsg& req) {
  Capability* cap = CapOf(sc->vpe, req.sel);
  if (cap == nullptr) {
    AnswerSyscall(sc, ErrCode::kNoSuchCap);
    return;
  }
  auto reply = [this, sc] {
    Finish(t_.revoke_finish + t_.syscall_reply, [this, sc] { ReplySyscall(sc, ErrCode::kOk); });
  };
  if (cap->marked()) {
    // An overlapping revoke already covers this capability; wait for it so
    // our acknowledgement is never early (§4.3.3).
    cap->task()->on_complete.emplace_back(reply);
    return;
  }

  Cycles cost = t_.syscall_dispatch + t_.revoke_entry +
                StartRevoke(cap, /*unlink=*/true, [this, reply] {
                  stats_.revokes++;
                  reply();
                });
  RevokeTask* task = cap->task();
  if (task->outstanding > 0) {
    // The syscall thread pauses at its preemption point until every remote
    // reply arrived ("wait_for_remote_children", Algorithm 1 / §4.2).
    task->suspended = true;
    cost += t_.revoke_suspend;
  }
  Charge(cost);
  CheckRevokeComplete(task);
}

void Kernel::OnRevokeReq(const Message& msg) {
  // As in Algorithm 1, the handler holds its thread only for the marking
  // pass and is NOT paused while waiting for remote replies; completion is
  // driven by the reply counters. This keeps deep alternating chains
  // deadlock-free (§4.3.3).
  const IkcMsg& req = *msg.As<IkcMsg>();
  if (req.op == IkcOp::kRevokeBatchReq) {
    ProcessRevokeBatch(msg, req);
  } else {
    ProcessRevokeReq(msg, req);
  }
}

void Kernel::ProcessRevokeReq(const Message& msg, const IkcMsg& req) {
  Capability* cap = caps_.Find(req.cap);
  if (cap == nullptr) {
    // Already revoked by an overlapping operation — the subtree is gone.
    AnswerIkc(t_.ikc_dispatch + t_.ikc_send, msg, ErrCode::kOk);
    return;
  }
  InlineFn answer = [this, msg] { AnswerIkc(t_.ikc_send, msg, ErrCode::kOk); };
  if (cap->marked()) {
    // A running revocation covers this capability; reply when it finished.
    cap->task()->on_complete.push_back(std::move(answer));
    Charge(t_.ikc_dispatch);
    return;
  }
  Charge(t_.ikc_dispatch + StartRevoke(cap, /*unlink=*/false, std::move(answer)));
  CheckRevokeComplete(cap->task());
}

void Kernel::ProcessRevokeBatch(const Message& msg, const IkcMsg& req) {
  // Batched variant: revoke every key, reply once when all of them —
  // including their remote subtrees — are gone. Each key is its own task
  // feeding one countdown; their local sweeps run before the batch's
  // marking cost is charged.
  Countdown* batch = NewCountdown([this, msg] { AnswerIkc(t_.ikc_send, msg, ErrCode::kOk); });
  Cycles cost = t_.ikc_dispatch;
  for (DdlKey key : req.caps) {
    Capability* cap = caps_.Find(key);
    KernelId owner = KernelOf(key);
    if (cap == nullptr && owner == config_.id) {
      continue;  // already gone with an overlapping revocation
    }
    batch->pending++;
    if (cap == nullptr) {
      // This key's partition migrated away after the batch was assembled:
      // relay a single REVOKE_REQ to the current owner and fold its
      // completion into the batch countdown.
      stats_.ikc_forwarded++;
      auto fwd = NewMsg<IkcMsg>();
      fwd->op = IkcOp::kRevokeReq;
      fwd->cap = key;
      cost += DdlDecodeCost(key) + t_.ikc_send;
      SendIkc(owner, fwd, [this, batch](const IkcReply&) { Arrive(batch); });
    } else if (cap->marked()) {
      cap->task()->on_complete.emplace_back([this, batch] { Arrive(batch); });
    } else {
      cost += StartRevoke(cap, /*unlink=*/false, [this, batch] {
        Finish(t_.revoke_finish, [this, batch] { Arrive(batch); });
      });
      CheckRevokeComplete(cap->task());
    }
  }
  Charge(cost);
  Arrive(batch);
}

// ---------------------------------------------------------------------------
// Revoking many roots: VPE kill (admin) and failover orphans
// ---------------------------------------------------------------------------

uint32_t Kernel::RevokeRoots(const std::vector<DdlKey>& roots, bool unlink, InlineFn done) {
  Countdown* all = NewCountdown(std::move(done));
  uint32_t started = 0;
  for (DdlKey key : roots) {
    Capability* cap = caps_.Find(key);
    if (cap == nullptr) {
      continue;  // already gone with an overlapping revocation
    }
    all->pending++;
    if (cap->marked()) {
      // An in-flight revocation already covers this subtree; it is gone
      // once that one finished.
      cap->task()->on_complete.emplace_back([this, all] { Arrive(all); });
      continue;
    }
    started++;
    Charge(t_.revoke_entry + StartRevoke(cap, unlink, [this, all] {
             Finish(t_.revoke_finish, [this, all] { Arrive(all); });
           }));
    CheckRevokeComplete(cap->task());
  }
  Arrive(all);
  return started;
}

Kernel::Countdown* Kernel::NewCountdown(InlineFn done) {
  Countdown* countdown = countdown_recs_.New();
  countdown->done = std::move(done);
  return countdown;
}

void Kernel::Arrive(Countdown* countdown) {
  if (--countdown->pending > 0) {
    return;
  }
  InlineFn done = std::move(countdown->done);
  countdown_recs_.Delete(countdown);
  if (done) {
    done();
  }
}

void Kernel::AdminKillVpe(VpeId vpe, InlineFn done) {
  VpeState* v = vpes_.Find(vpe);
  CHECK(v != nullptr);
  CHECK(!v->migrating) << "cannot kill VPE " << vpe << " while it is migrating";
  v->alive = false;

  // Snapshot the selectors: revocations mutate the table.
  std::vector<DdlKey> roots;
  roots.reserve(v->table.size());
  v->table.ForEach([&roots](CapSel, DdlKey key) { roots.push_back(key); });
  RevokeRoots(roots, /*unlink=*/true, std::move(done));
}

// ---------------------------------------------------------------------------
// PE migration — dynamic PE-group membership (beyond the paper)
//
// The handoff has three phases (see MigrateTask in kernel.h). Correctness
// across the handoff leans on two existing invariants: the Pointless/mark
// machinery (frozen VPEs deny exchanges with a retryable error, in-flight
// revocations are drained before packing) and pairwise-FIFO kernel channels
// (a REVOKE_REQ re-routed at the destination can never overtake the
// MIGRATE_VPE snapshot, and once a peer acknowledged EPOCH_UPDATE no stale
// request from it can still be in flight).
// ---------------------------------------------------------------------------

KernelId Kernel::MigratingTo(NodeId pe) const {
  for (const auto& [id, task] : migrate_tasks_) {
    if (task->pe == pe && task->phase == MigrateTask::Phase::kTransfer) {
      return task->dst;
    }
  }
  return kInvalidKernel;
}

NodeId Kernel::RoutingPartition(const IkcMsg& req) {
  switch (req.op) {
    case IkcOp::kObtainReq:
      return req.cap.IsNull() ? req.peer : req.cap.pe();
    case IkcOp::kOpenSessionReq:
      return req.cap.pe();
    case IkcOp::kDelegateReq:
      return req.peer;
    case IkcOp::kDelegateAck:
      return req.child.pe();
    case IkcOp::kRevokeReq:
      return req.cap.pe();
    case IkcOp::kOrphanNotify:
    case IkcOp::kChildDrop:
      return req.parent.pe();
    default:
      // Not capability-targeted (hello, shutdown, announce, migration
      // control traffic) — or per-key routed (revoke batches).
      return kInvalidNode;
  }
}

bool Kernel::MaybeForwardIkc(const Message& msg) {
  const IkcMsg& req = *msg.As<IkcMsg>();
  NodeId part = RoutingPartition(req);
  // Requests for a partition whose snapshot is in flight park at the source
  // and re-dispatch once the destination confirmed the takeover.
  for (auto& [id, task] : migrate_tasks_) {
    (void)id;
    if (task->phase != MigrateTask::Phase::kTransfer) {
      continue;
    }
    bool hit = part == task->pe;
    if (req.op == IkcOp::kRevokeBatchReq) {
      for (DdlKey key : req.caps) {
        hit = hit || key.pe() == task->pe;
      }
    }
    if (hit) {
      task->parked.push_back(msg);
      return true;
    }
  }
  if (part == kInvalidNode) {
    return false;
  }
  KernelId owner = config_.membership.KernelOf(part);
  if (owner == config_.id) {
    return false;
  }
  // The sender's membership view is one epoch behind: the request must
  // reach the partition's current owner, so stale lookups stay correct for
  // the settle round.
  stats_.ikc_forwarded++;
  // Pipelined ancestry walk: relay the request onward with the origin's
  // token and reply address intact — the final owner answers the origin
  // directly, cutting one NoC round trip per stale hop. A fire-and-forget
  // kRelayNotice tells the origin where its request went, so fault
  // tolerance still covers the re-keyed hop.
  if (peers_.at(owner).failed) {
    // The current owner is quorum-confirmed dead: short-circuit with the
    // same kUnreachable a recovery abort at the origin would produce.
    // `msg` is relay-rewritten for multi-hop walks, so this reaches the
    // origin, not the previous hop.
    AnswerIkc(t_.ikc_send, msg, ErrCode::kUnreachable);
    return true;
  }
  stats_.ikc_relays_pipelined++;
  auto fwd = NewMsg<IkcMsg>(req);
  if (fwd->relay_node == kInvalidNode) {
    // First hop: record the origin's reply address once; later hops keep it.
    fwd->relay_node = msg.src_node;
    fwd->relay_ep = msg.reply_ep;
  }
  fwd->relay_hops++;
  auto notice = NewMsg<IkcMsg>();
  notice->op = IkcOp::kRelayNotice;
  notice->node = part;
  notice->new_owner = owner;
  notice->epoch = config_.membership.PeEpoch(part);
  notice->relay_token = req.token;
  notice->relay_hops = fwd->relay_hops;
  bool self_notice = req.src_kernel == config_.id;
  Cycles cost = DdlDecodeCostVpe(part) + t_.ikc_send;
  if (!self_notice && !peers_.at(req.src_kernel).failed) {
    cost += t_.ikc_send;
  }
  Charge(cost);
  SendIkcRelay(owner, fwd);
  if (self_notice) {
    // The walk looped back through its own origin (this kernel's view of
    // the partition is newer than the forwarder's): a kernel cannot IKC
    // itself, so apply the notice directly.
    ApplyRelayNotice(*notice);
  } else if (!peers_.at(req.src_kernel).failed) {
    SendIkc(req.src_kernel, notice, [](const IkcReply&) {});
  }
  return true;
}

void Kernel::ApplyRelayNotice(const IkcMsg& notice) {
  // Learned-owner hint ahead of the settle broadcast; epoch-gated (ddl.h
  // Apply), so a stale notice can never roll the membership back.
  ApplyMembershipUpdate(notice.node, notice.new_owner, notice.epoch);
  PendingIkc* found = ikcs_.Find(notice.relay_token);
  if (found == nullptr) {
    return;  // the direct reply already arrived, or recovery aborted it
  }
  PendingIkc& pending = *found;
  if (notice.relay_hops <= pending.relay_hops) {
    // Notices from different forwarders are not FIFO relative to each
    // other; hop counts order them — a late notice from an earlier hop
    // must not re-key the pending away from the newest known location.
    return;
  }
  pending.relay_hops = notice.relay_hops;
  pending.peer = notice.new_owner;
  if (peers_.at(notice.new_owner).failed) {
    // Re-keyed onto a kernel that already failed here: the relayed request
    // died with it. Complete the call exactly like a recovery abort; if
    // the request was in fact dispatched before the crash, the direct
    // reply is tolerated as a late reply (see OnIkc).
    ikcs_.Erase(notice.relay_token);
    stats_.ft_ikcs_aborted++;
    CompleteIkc(found, UnreachableReply(notice.relay_token));
  }
}

bool Kernel::MigrationBlocked(NodeId pe) const {
  bool blocked = false;
  obtains_.ForEach([&](uint64_t, const ObtainOp* op) { blocked = blocked || op->client == pe; });
  delegates_.ForEach(
      [&](uint64_t, const DelegateOp* op) { blocked = blocked || op->client == pe; });
  parked_delegates_.ForEach([&](uint64_t raw, const ParkedDelegate* parked) {
    blocked = blocked || parked->receiver == pe || DdlKey(raw).pe() == pe;
  });
  // An exchange-ask to the PE still outstanding.
  asks_.ForEach([&](uint64_t, const PendingAsk* ask) { blocked = blocked || ask->node == pe; });
  if (blocked) {
    return true;
  }
  const VpeState& vpe = vpes_.At(pe);
  // An in-flight revocation holding part of the subtree blocks the handoff.
  return vpe.table.Any([&](CapSel, DdlKey key) {
    const Capability* cap = caps_.Find(key);
    return cap != nullptr && cap->marked();
  });
}

void Kernel::AdminMigratePe(NodeId pe, KernelId dst, Callback<void(ErrCode)> done) {
  VpeState* v = vpes_.Find(pe);
  CHECK(v != nullptr) << "kernel " << config_.id << " does not manage PE " << pe;
  if (shutting_down_ || !v->alive) {
    if (done) {
      done(ErrCode::kAborted);
    }
    return;
  }
  if (v->migrating || dst == config_.id || dst >= config_.kernel_nodes.size() ||
      peers_.at(dst).down || peers_.at(dst).failed) {
    if (done) {
      done(ErrCode::kInvalidArgs);
    }
    return;
  }

  v->migrating = true;
  auto task = std::make_unique<MigrateTask>();
  task->id = next_token_++;
  task->pe = pe;
  task->dst = dst;
  task->done = std::move(done);
  if (obs::Tracer* tr = tracer(); tr != nullptr) {
    // Migrations are platform-initiated: they root their own trace.
    task->span = tr->Open(pe_->node(), tr->NewTraceId(pe_->node()), /*parent=*/0,
                          pe_->sim()->Now(), obs::SpanKind::kMigration, static_cast<uint16_t>(pe));
  }
  uint64_t id = task->id;
  migrate_tasks_[id] = std::move(task);
  // Freeze bookkeeping, then poll until the moving partition quiesced.
  Charge(t_.migrate_freeze);
  pe_->sim()->Schedule(t_.migrate_quiesce_poll, [this, id] { PollMigrateQuiesce(id); });
}

void Kernel::PollMigrateQuiesce(uint64_t task_id) {
  auto it = migrate_tasks_.find(task_id);
  CHECK(it != migrate_tasks_.end());
  MigrateTask* task = it->second.get();
  if (MigrationBlocked(task->pe)) {
    if (++task->quiesce_polls == kMaxQuiescePolls) {
      // A party PE that never answers an ask holds its partition for good
      // (asks have no timeout): refuse the migration and unfreeze the VPE.
      vpes_.At(task->pe).migrating = false;
      CompleteMigration(task_id, ErrCode::kAborted);
      return;
    }
    pe_->sim()->Schedule(t_.migrate_quiesce_poll,
                         [this, task_id] { PollMigrateQuiesce(task_id); });
    return;
  }
  StartMigrateTransfer(task_id);
}

void Kernel::StartMigrateTransfer(uint64_t task_id) {
  auto it = migrate_tasks_.find(task_id);
  CHECK(it != migrate_tasks_.end());
  MigrateTask* task = it->second.get();
  task->phase = MigrateTask::Phase::kTransfer;
  // The transfer IKC (and, via the pending restore, the settle round's
  // EPOCH_UPDATEs) nest under the migration span.
  cur_trace_ = TraceCtx{task->span.trace_id, task->span.span_id};

  VpeState& vpe = vpes_.At(task->pe);
  auto payload = std::make_shared<MigratePayload>();
  payload->vpe = vpe.id;
  payload->node = vpe.node;
  payload->alive = vpe.alive;
  payload->is_service = vpe.is_service;
  payload->next_sel = vpe.next_sel;
  payload->next_obj = next_obj_;
  payload->caps.reserve(vpe.table.size());
  vpe.table.ForEach([&](CapSel sel, DdlKey key) {
    Capability* cap = caps_.Find(key);
    CHECK(cap != nullptr);
    CHECK(!cap->marked()) << "quiesce left a marked capability in the partition";
    MigratedCap record;
    record.key = key;
    record.type = cap->type();
    record.sel = sel;
    record.parent = cap->parent();
    record.children = cap->children();
    record.payload = cap->payload();
    record.activated = cap->activated();
    record.activated_ep = cap->activated_ep();
    payload->caps.push_back(std::move(record));
  });
  stats_.caps_migrated += payload->caps.size();
  // Mint the handoff's epoch now, apply it in FinishMigrateTransfer once
  // the destination confirmed (a refused transfer must not bump anything).
  // Strictly greater than this partition's last applied epoch, so per-PE
  // gating at every peer makes the newest owner win (see ddl.h Apply).
  task->epoch = config_.membership.Epoch() + 1;

  auto msg = NewMsg<IkcMsg>();
  msg->op = IkcOp::kMigrateVpe;
  msg->node = task->pe;
  msg->new_owner = task->dst;
  msg->epoch = task->epoch;
  msg->migrate = payload;
  Charge(static_cast<Cycles>(payload->caps.size()) * t_.migrate_pack_per_cap + t_.ikc_send);
  SendIkc(task->dst, msg,
          [this, task_id](const IkcReply& reply) { FinishMigrateTransfer(task_id, reply); });
  cur_trace_ = TraceCtx{};
}

void Kernel::OnMigrateVpe(const Message& msg, const IkcMsg& req) {
  CHECK(req.migrate != nullptr);
  CHECK_EQ(req.new_owner, config_.id);
  const MigratePayload& mp = *req.migrate;
  if (shutting_down_ || vpes_.size() >= kMaxVpesPerKernel) {
    AnswerIkc(t_.ikc_dispatch + t_.ikc_send, msg,
              shutting_down_ ? ErrCode::kAborted : ErrCode::kInvalidArgs);
    return;
  }

  VpeState vpe;
  vpe.id = mp.vpe;
  vpe.node = mp.node;
  vpe.alive = mp.alive;
  vpe.is_service = mp.is_service;
  vpe.migrating = false;
  vpe.next_sel = mp.next_sel;
  VpeState* v = vpes_.Insert(std::move(vpe));
  CHECK(v != nullptr) << "kernel " << config_.id << " already manages PE " << mp.vpe;
  // The PE may have been migrated away from here earlier and is now coming
  // back; it is no longer "away", and a later death must report kNoSuchVpe
  // instead of the retryable kVpeMigrating.
  migrated_away_.erase(mp.vpe);
  for (const MigratedCap& record : mp.caps) {
    Capability* cap = caps_.Create(record.key, record.type, mp.vpe, record.sel);
    cap->payload() = record.payload;
    cap->set_parent(record.parent);
    for (DdlKey child : record.children) {
      cap->AddChild(child);
    }
    if (record.activated) {
      cap->SetActivated(record.activated_ep);
    }
    v->table.Set(record.sel, record.key);
  }
  // Keep allocating collision-free object ids in the moved partition.
  next_obj_ = std::max(next_obj_, mp.next_obj);
  stats_.caps_migrated += mp.caps.size();
  // This kernel owns the partition from here on; the source and the other
  // kernels converge on the same epoch through the settle broadcast.
  ApplyMembershipUpdate(mp.node, config_.id, req.epoch);

  Charge(t_.ikc_dispatch + static_cast<Cycles>(mp.caps.size()) * t_.migrate_install_per_cap +
             t_.epoch_apply + t_.ep_config);
  // Retarget the PE's syscall send endpoint at this kernel, then confirm
  // the takeover — the moved VPE's retried syscalls land here from now on.
  EpId syscall_ep = kEpSyscall0 + (mp.vpe % kNumSyscallEps);
  pe_->dtu().ConfigureRemoteSend(
      mp.node, user_ep::kSyscallSend, pe_->node(), syscall_ep, /*credits=*/1, /*label=*/0,
      [this, msg] { AnswerIkc(t_.ikc_send, msg, ErrCode::kOk); });
}

void Kernel::FinishMigrateTransfer(uint64_t task_id, const IkcReply& reply) {
  auto it = migrate_tasks_.find(task_id);
  CHECK(it != migrate_tasks_.end());
  MigrateTask* task = it->second.get();
  if (reply.err != ErrCode::kOk) {
    // The destination refused; unfreeze and report. Nothing moved, so the
    // deferred unlinks now apply to the retained local copies.
    vpes_.At(task->pe).migrating = false;
    task->phase = MigrateTask::Phase::kQuiesce;
    std::vector<InlineFn> unlinks = std::move(task->deferred_unlinks);
    task->deferred_unlinks.clear();
    for (InlineFn& fn : unlinks) {
      fn();
    }
    for (const Message& parked : task->parked) {
      DispatchIkcRequest(parked);
    }
    task->parked.clear();
    CompleteMigration(task_id, reply.err);
    return;
  }

  // The destination owns the partition now: drop the local copy. The
  // records moved; the capability tree itself did not change, so no
  // parent/child unlinking happens here.
  VpeState& vpe = vpes_.At(task->pe);
  vpe.table.ForEach([this](CapSel, DdlKey key) { caps_.Erase(key); });
  vpes_.Erase(task->pe);
  migrated_away_[task->pe] = task->dst;
  ApplyMembershipUpdate(task->pe, task->dst, task->epoch);
  Charge(t_.ikc_reply_handle + t_.epoch_apply);

  // Leave kTransfer before releasing the parked requests — MaybeForwardIkc
  // parks for in-transfer partitions, and these must forward now instead.
  task->phase = MigrateTask::Phase::kSettle;

  // Unlinks deferred during the transfer re-route to the new owner (the
  // membership update above makes KernelOf resolve to the destination).
  std::vector<InlineFn> unlinks = std::move(task->deferred_unlinks);
  task->deferred_unlinks.clear();
  for (InlineFn& fn : unlinks) {
    fn();
  }

  // Release requests parked during the transfer; the updated membership
  // forwards them to the new owner.
  std::vector<Message> parked = std::move(task->parked);
  task->parked.clear();
  for (const Message& request : parked) {
    if (!MaybeForwardIkc(request)) {
      DispatchIkcRequest(request);
    }
  }

  // Settle round: broadcast the epoch so every kernel re-routes directly.
  for (KernelId peer = 0; peer < config_.kernel_nodes.size(); ++peer) {
    if (peer == config_.id || peers_.at(peer).down) {
      continue;
    }
    task->outstanding++;
    auto update = NewMsg<IkcMsg>();
    update->op = IkcOp::kEpochUpdate;
    update->node = task->pe;
    update->new_owner = task->dst;
    update->epoch = task->epoch;
    Charge(t_.ikc_send);
    SendIkc(peer, update, [this, task_id](const IkcReply&) {
      auto tit = migrate_tasks_.find(task_id);
      CHECK(tit != migrate_tasks_.end());
      MigrateTask* t = tit->second.get();
      CHECK_GT(t->outstanding, 0u);
      if (--t->outstanding == 0) {
        CompleteMigration(task_id, ErrCode::kOk);
      }
    });
  }
  if (task->outstanding == 0) {
    CompleteMigration(task_id, ErrCode::kOk);
  }
}

void Kernel::CompleteMigration(uint64_t task_id, ErrCode err) {
  auto it = migrate_tasks_.find(task_id);
  CHECK(it != migrate_tasks_.end());
  MigrateTask* task = it->second.get();
  if (err == ErrCode::kOk) {
    stats_.migrations++;
    LOG_INFO(kTag) << "kernel " << config_.id << " migrated PE " << task->pe << " to kernel "
                   << task->dst << " (epoch " << task->epoch << ")";
  }
  if (task->span.span_id != 0) {
    tracer()->Close(task->span, pe_->sim()->Now());
  }
  auto done = std::move(task->done);
  migrate_tasks_.erase(it);
  if (done) {
    done(err);
  }
}

void Kernel::ApplyMembershipUpdate(NodeId pe, KernelId new_owner, uint64_t epoch) {
  config_.membership.Apply(pe, new_owner, epoch);
  // Ownership changed (or at least may have): drop the remote-DDL cache.
  // The epoch guard inside the cache covers table-wide bumps; this covers
  // learned-owner hints applied without one visible here.
  ddl_cache_.Invalidate();
  // Sessions already connected to a service on the moved PE keep working
  // (the PE itself did not move); new OPEN_SESSION requests must route to
  // the kernel that now manages it.
  for (auto& [name, entries] : services_) {
    (void)name;
    for (ServiceEntry& entry : entries) {
      if (entry.node == pe) {
        entry.kernel = new_owner;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shutdown (IKC functional group 1)
// ---------------------------------------------------------------------------

void Kernel::AdminShutdown(InlineFn done) {
  CHECK(!shutting_down_);
  shutting_down_ = true;

  // Tear down every VPE of the group; their capabilities — including copies
  // delegated into other groups — are revoked recursively.
  std::vector<VpeId> ids;
  vpes_.ForEach([&ids](const VpeState& vpe) {
    if (vpe.alive) {
      ids.push_back(vpe.id);
    }
  });
  Countdown* teardown = NewCountdown(std::move(done));
  for (VpeId id : ids) {
    teardown->pending++;
    AdminKillVpe(id, [this, teardown] { Arrive(teardown); });
  }
  // Announce the shutdown so peers stop routing requests to this group.
  for (KernelId peer = 0; peer < config_.kernel_nodes.size(); ++peer) {
    if (peer == config_.id) {
      continue;
    }
    teardown->pending++;
    auto msg = NewMsg<IkcMsg>();
    msg->op = IkcOp::kShutdown;
    SendIkc(peer, msg, [this, teardown](const IkcReply&) { Arrive(teardown); });
  }
  Arrive(teardown);
}

// ---------------------------------------------------------------------------
// Fault tolerance (src/ft) — injection, heartbeat detection, quorum verdict,
// and distributed capability-tree recovery
// ---------------------------------------------------------------------------

void Kernel::AdminKill() {
  CHECK(!dead_) << "kernel " << config_.id << " killed twice";
  dead_ = true;
  pe_->dtu().Kill();
  LOG_INFO(kTag) << "kernel " << config_.id << " KILLED (fault injection)";
}

void Kernel::AdminStartFailureDetector(const FtConfig& ft) {
  CHECK(!dead_);
  CHECK_GE(ft.heartbeat_timeout, ft.heartbeat_period);
  // A monitor window that ends before the second tick can never time a
  // peer out — catch the forgotten-monitor_until misuse loudly instead of
  // silently never detecting anything.
  CHECK_GT(ft.monitor_until, pe_->sim()->Now() + ft.heartbeat_period)
      << "failure detector armed with an already-expired monitor window";
  ft_ = ft;
  ft_.enabled = true;
  Cycles now = pe_->sim()->Now();
  for (Peer& peer : peers_) {
    peer.hb_last_seen = now;
  }
  pe_->sim()->Schedule(ft_.heartbeat_period, [this] { HeartbeatTick(); });
}

FtVerdict Kernel::ft_verdict(KernelId peer) const {
  if (peers_.at(peer).failed) {
    return FtVerdict::kFailed;
  }
  if (peers_.at(peer).refused) {
    return FtVerdict::kNoQuorum;
  }
  if (peers_.at(peer).suspected) {
    return FtVerdict::kSuspected;
  }
  return FtVerdict::kAlive;
}

void Kernel::OnHeartbeat(EpId ep, const Message& msg) {
  const HeartbeatMsg* hb = msg.As<HeartbeatMsg>();
  CHECK(hb != nullptr) << "non-heartbeat message on heartbeat EP";
  if (!msg.is_reply) {
    // Ping: free the slot and answer immediately. The reply needs no slot
    // (deferred-reply path) and no IKC credit, so even a kernel whose flow
    // window towards us is exhausted still proves its liveness.
    pe_->dtu().Ack(ep, msg.slot);
    Charge(t_.hb_process);
    auto ack = NewMsg<HeartbeatMsg>();
    ack->from = config_.id;
    ack->ack = true;
    pe_->dtu().SendDeferredReply(msg, ack);
    return;
  }
  stats_.hb_acked++;
  peers_.at(hb->from).hb_last_seen = pe_->sim()->Now();
}

void Kernel::HeartbeatTick() {
  if (dead_ || shutting_down_ || !ft_.enabled) {
    return;  // a crashed kernel's detector dies with it
  }
  Cycles now = pe_->sim()->Now();
  for (KernelId p = 0; p < config_.kernel_nodes.size(); ++p) {
    if (p == config_.id || peers_[p].failed || peers_[p].down) {
      continue;
    }
    if (!peers_[p].suspected && now - peers_[p].hb_last_seen > ft_.heartbeat_timeout) {
      RaiseSuspicion(p);
    }
    if (peers_[p].suspected) {
      continue;  // no point pinging a peer we already consider silent
    }
    stats_.hb_sent++;
    Charge(t_.hb_process);
    auto ping = NewMsg<HeartbeatMsg>();
    ping->from = config_.id;
    pe_->dtu().SendTo(config_.kernel_nodes.at(p), kEpHeartbeat, ping, kEpHeartbeat);
  }
  SendSuspectVotes();
  if (now + ft_.heartbeat_period <= ft_.monitor_until) {
    pe_->sim()->Schedule(ft_.heartbeat_period, [this] { HeartbeatTick(); });
  }
}

void Kernel::RaiseSuspicion(KernelId peer) {
  if (peers_.at(peer).suspected) {
    return;
  }
  peers_[peer].suspected = true;
  stats_.ft_suspicions++;
  Charge(t_.ft_suspect);
  LOG_INFO(kTag) << "kernel " << config_.id << " suspects kernel " << peer << " (silent for > "
                 << ft_.heartbeat_timeout << " cycles)";
}

KernelId Kernel::FtLeader() const {
  for (KernelId k = 0; k < config_.kernel_nodes.size(); ++k) {
    if (!peers_[k].suspected && !peers_[k].failed && !peers_[k].down) {
      return k;
    }
  }
  return config_.id;  // everyone else is unreachable; we answer to ourselves
}

void Kernel::SendSuspectVotes() {
  // Votes are re-sent every tick until a verdict (or refusal) lands: the
  // leader's identity can shift while suspicion spreads, and the tally side
  // deduplicates by voter bit, so repetition is cheap and loss-tolerant.
  for (KernelId d = 0; d < config_.kernel_nodes.size(); ++d) {
    if (!peers_[d].suspected || peers_[d].failed || peers_[d].refused) {
      continue;
    }
    KernelId leader = FtLeader();
    if (leader == config_.id) {
      RecordSuspectVote(d, config_.id);
      continue;
    }
    Charge(t_.ikc_send);
    auto vote = NewMsg<IkcMsg>();
    vote->op = IkcOp::kSuspectKernel;
    vote->suspect = d;
    SendIkc(leader, vote, [](const IkcReply&) {});
  }
}

void Kernel::RecordSuspectVote(KernelId dead, KernelId voter) {
  if (dead >= peers_.size() || peers_[dead].failed) {
    return;  // verdict already applied
  }
  uint64_t bit = 1ull << voter;
  if ((peers_[dead].vote_bits & bit) == 0) {
    peers_[dead].vote_bits |= bit;
    stats_.ft_votes++;
  }
  uint32_t total = static_cast<uint32_t>(config_.kernel_nodes.size());
  uint32_t quorum = total / 2 + 1;
  uint32_t votes = static_cast<uint32_t>(std::popcount(peers_[dead].vote_bits));
  if (votes >= quorum) {
    StartFailover(dead);
    return;
  }
  // Refusal check: once every configured kernel has either voted or is
  // itself unreachable from here, no majority can ever be assembled —
  // a surviving minority must not guess (split-brain). Record the refusal
  // instead of recovering.
  uint64_t covered = peers_[dead].vote_bits;
  for (KernelId k = 0; k < total; ++k) {
    if (k == dead || peers_[k].suspected || peers_[k].failed || peers_[k].down) {
      covered |= 1ull << k;
    }
  }
  uint64_t all = total >= 64 ? ~0ull : (1ull << total) - 1;
  if (covered == all && !peers_[dead].refused) {
    peers_[dead].refused = true;
    stats_.ft_refusals++;
    LOG_WARN(kTag) << "kernel " << config_.id << " refuses recovery of kernel " << dead << ": "
                   << votes << " votes < quorum " << quorum << " of " << total << " kernels";
  }
}

std::vector<TakeoverAssignment> Kernel::TakeoverPlan(KernelId dead) const {
  return PlanTakeover(config_.membership, dead, static_cast<uint32_t>(peers_.size()),
                      [this](KernelId k) { return peers_[k].failed; });
}

void Kernel::StartFailover(KernelId dead) {
  if (peers_.at(dead).failed) {
    return;
  }
  // One new epoch covers every reassigned partition of the takeover plan;
  // per-PE epoch gating at the followers keeps late stale broadcasts from
  // rolling any of them back (see ddl.h).
  uint64_t epoch = config_.membership.Epoch() + 1;
  LOG_INFO(kTag) << "kernel " << config_.id << " declares kernel " << dead
                 << " FAILED (quorum reached), recovery epoch " << epoch;
  // Snapshot the plan this decree stands for before recovery rewrites the
  // membership (afterwards no partition maps to `dead` any more).
  std::vector<TakeoverAssignment> plan = TakeoverPlan(dead);
  RecoverFromFailure(dead, epoch);
  for (KernelId p = 0; p < config_.kernel_nodes.size(); ++p) {
    if (p == config_.id || peers_[p].failed || peers_[p].down) {
      continue;
    }
    Charge(t_.ikc_send);
    auto decree = NewMsg<IkcMsg>();
    decree->op = IkcOp::kFailoverDecree;
    decree->suspect = dead;
    decree->epoch = epoch;
    SendIkc(p, decree, [](const IkcReply&) {});
  }
  if (config_.on_failover) {
    config_.on_failover(dead, epoch, plan);
  }
}

void Kernel::RecoverFromFailure(KernelId dead, uint64_t epoch) {
  if (dead >= peers_.size() || peers_[dead].failed) {
    return;  // idempotent: decree may race a local quorum decision
  }
  Peer& peer = peers_[dead];
  peer.failed = true;
  peer.suspected = true;
  peer.down = true;
  stats_.ft_failovers++;
  ft_verdict_at_ = pe_->sim()->Now();
  TraceCtx saved_trace = cur_trace_;
  if (obs::Tracer* tr = tracer(); tr != nullptr) {
    if (ft_span_.span_id == 0) {
      // Recovery roots its own trace; spans until the pending counter
      // drains back to zero (FtRecoveryStepDone closes it).
      ft_span_ = tr->Open(pe_->node(), tr->NewTraceId(pe_->node()), /*parent=*/0,
                          pe_->sim()->Now(), obs::SpanKind::kFailover);
    }
    cur_trace_ = TraceCtx{ft_span_.trace_id, ft_span_.span_id};
  }
  // The takeover below reassigns every partition of the dead range; the
  // remote-DDL cache must not serve hits across that (the Apply calls here
  // bypass ApplyMembershipUpdate's invalidation).
  ddl_cache_.Invalidate();

  // The dead group's services are unreachable; stop routing sessions there.
  for (auto& [name, entries] : services_) {
    (void)name;
    std::erase_if(entries, [&](const ServiceEntry& e) { return e.kernel == dead; });
  }

  // 1. DDL range takeover: every survivor computes the identical plan from
  // its replicated membership table, so no negotiation is needed — the
  // quorum leader only minted the epoch.
  std::vector<TakeoverAssignment> plan = TakeoverPlan(dead);
  std::vector<uint8_t> dead_part(config_.membership.PeCount(), 0);
  Cycles cost = t_.ft_decree;
  for (const TakeoverAssignment& a : plan) {
    dead_part.at(a.pe) = 1;
    config_.membership.Apply(a.pe, a.new_owner, epoch);
    cost += t_.epoch_apply;
    if (a.new_owner == config_.id) {
      cost += t_.ft_takeover_per_pe;
      AdoptPe(a.pe);
    }
  }

  // 2. Reconstruct the capability tree from the surviving halves: this
  // kernel knows exactly which of its capabilities were obtained from or
  // delegated to the dead kernel — edges into the dead range. Child edges
  // are pruned (the children's records died with their kernel); a local
  // capability whose parent lived in the dead range roots an orphaned
  // subtree and is collected for revocation. Key-sorted order keeps the
  // recovery bit-identical across reruns and standard libraries.
  std::vector<Capability*> pruned;
  std::vector<DdlKey> orphan_roots;
  caps_.ForEach([&](DdlKey key, Capability* cap) {
    cost += t_.ft_scan_per_cap;
    for (DdlKey child : cap->children()) {
      if (child.pe() < dead_part.size() && dead_part[child.pe()] != 0) {
        pruned.push_back(cap);
        break;
      }
    }
    DdlKey parent = cap->parent();
    if (!parent.IsNull() && parent.pe() < dead_part.size() && dead_part[parent.pe()] != 0) {
      orphan_roots.push_back(key);
    }
  });
  std::sort(pruned.begin(), pruned.end(),
            [](const Capability* x, const Capability* y) { return x->key().raw() < y->key().raw(); });
  for (Capability* cap : pruned) {
    std::vector<DdlKey> dead_children;
    for (DdlKey child : cap->children()) {
      if (child.pe() < dead_part.size() && dead_part[child.pe()] != 0) {
        dead_children.push_back(child);
      }
    }
    for (DdlKey child : dead_children) {
      cap->RemoveChild(child);
      stats_.ft_edges_pruned++;
      cost += t_.ft_prune_per_edge;
    }
  }
  Charge(cost);

  // 3. Unwedge every in-flight call addressed to the dead kernel. For
  // REVOKE_REQs this is semantically exact: the dead kernel's share of the
  // subtree is gone with its kernel, so the revocation may complete.
  // Requests parked behind a migration transfer towards the dead kernel
  // unwind through the existing refused-transfer path.
  AbortPendingIkcsTo(dead);

  // A parked delegate's ACK comes from the kernel owning the parent
  // capability (the delegator's side of the handshake). If that partition
  // died, the ACK can never arrive: drop the parked record. The child was
  // never materialized, and the parent's record died with its kernel.
  std::vector<uint64_t> dead_parked;
  parked_delegates_.ForEach([&](uint64_t raw, const ParkedDelegate* parked) {
    NodeId ppe = parked->parent_key.pe();
    if (ppe < dead_part.size() && dead_part[ppe] != 0) {
      dead_parked.push_back(raw);
    }
  });
  for (uint64_t raw : dead_parked) {
    stats_.ft_ikcs_aborted++;
    parked_recs_.Delete(parked_delegates_.Erase(raw));
  }

  // 4. Recursively revoke the orphaned subtrees (deny-by-default: a
  // capability whose ancestry can no longer vouch for it must go). Remote
  // children at other survivors unwind through the normal REVOKE_REQ path;
  // activated DTU endpoints are invalidated by the sweep.
  if (ft_.bug_skip_orphan_revoke) {
    // Injected protocol bug (FtConfig::bug_skip_orphan_revoke): leave the
    // orphaned subtrees dangling so the auditor has something to catch.
    orphan_roots.clear();
  }
  std::sort(orphan_roots.begin(), orphan_roots.end(),
            [](DdlKey x, DdlKey y) { return x.raw() < y.raw(); });
  // Their parents died with their kernel: there is nothing to unlink from.
  ft_pending_recovery_++;
  stats_.ft_orphan_roots +=
      RevokeRoots(orphan_roots, /*unlink=*/false, [this] { FtRecoveryStepDone(); });
  cur_trace_ = saved_trace;
}

void Kernel::FtRecoveryStepDone() {
  CHECK_GT(ft_pending_recovery_, 0u);
  if (--ft_pending_recovery_ == 0) {
    ft_recovered_at_ = pe_->sim()->Now();
    if (ft_span_.span_id != 0) {
      tracer()->Close(ft_span_, pe_->sim()->Now());
      ft_span_ = obs::Span();
    }
    LOG_INFO(kTag) << "kernel " << config_.id << " recovery complete";
  }
}

void Kernel::AdoptPe(NodeId pe) {
  const std::vector<PeType>& pe_types = *config_.pe_types;
  PeType type = pe < pe_types.size() ? pe_types[pe] : PeType::kUser;
  if (type == PeType::kKernel || type == PeType::kMemory) {
    return;  // ownership-only takeover: nothing runs a VPE on those tiles
  }
  if (vpes_.Find(pe) != nullptr) {
    return;  // already ours (PE had migrated here before its kernel died)
  }
  stats_.ft_pes_adopted++;
  CHECK_LT(vpes_.size(), kMaxVpesPerKernel)
      << "kernel " << config_.id << " exceeds 192 VPEs adopting PE " << pe;
  // The VPE's kernel-side state died with its kernel; only a fresh identity
  // can be rebuilt. The program on the PE itself kept running — its old
  // capabilities are unrecoverable (orphan revocation at the survivors
  // removes every remaining trace), so it restarts from an empty table
  // plus the standard self capability. New keys minted here cannot clash
  // with stale edges into this partition: every survivor prunes those
  // edges when it applies the decree, before any exchange from the adopted
  // VPE can reach it.
  VpeState vpe_state;
  vpe_state.id = pe;
  vpe_state.node = pe;
  vpe_state.alive = true;
  vpe_state.is_service = type == PeType::kService;
  VpeState* v = vpes_.Insert(std::move(vpe_state));
  CHECK(v != nullptr);
  migrated_away_.erase(pe);
  CapPayload payload;
  payload.type = CapType::kVpe;
  CreateCap(v, CapType::kVpe, payload, DdlKey());
  // Retarget the PE's syscall send endpoint at this kernel: the endpoint
  // reset also restores the send credit its last (lost) syscall consumed,
  // so the user runtime's retry can actually leave the PE.
  Charge(t_.ep_config);
  EpId syscall_ep = kEpSyscall0 + (pe % kNumSyscallEps);
  pe_->dtu().ConfigureRemoteSend(pe, user_ep::kSyscallSend, pe_->node(), syscall_ep,
                                 /*credits=*/1, /*label=*/0, nullptr);
}

void Kernel::AbortPendingIkcsTo(KernelId dead) {
  // Flow-queued requests that never left: their tokens are pending too, so
  // dropping the queue first keeps the abort loop the single completion
  // point. (A relay queued for the dead kernel has no pending here; its
  // origin aborts via its own re-keyed entry.)
  peers_.at(dead).queue.clear();
  std::vector<uint64_t> tokens;
  ikcs_.ForEach([&](uint64_t token, const PendingIkc* pending) {
    if (pending->peer == dead) {
      tokens.push_back(token);
    }
  });
  std::sort(tokens.begin(), tokens.end());  // issue order: deterministic unwind
  for (uint64_t token : tokens) {
    PendingIkc* found = ikcs_.Erase(token);
    if (found == nullptr) {
      continue;  // unwound by an earlier abort's callback
    }
    stats_.ft_ikcs_aborted++;
    CompleteIkc(found, UnreachableReply(token));
  }
}

void Kernel::CompleteIkc(PendingIkc* pending, const IkcReply& reply) {
  IkcCallback cb = std::move(pending->cb);
  obs::Span span = pending->span;
  ikc_recs_.Delete(pending);
  TraceCtx saved_trace = cur_trace_;
  if (span.span_id != 0) {
    // The round trip ends here, also when aborted: the span closes so the
    // request's tree has no dangling parent link, and the continuation acts
    // for the enclosing operation again.
    tracer()->Close(span, pe_->sim()->Now());
    cur_trace_ = TraceCtx{span.trace_id, span.parent_id};
  }
  if (cb) {
    cb.Fire(reply);
  }
  cur_trace_ = saved_trace;
}

// ---------------------------------------------------------------------------
// Activate & derive
// ---------------------------------------------------------------------------

void Kernel::SysActivate(SyscallRec* sc, const SyscallMsg& req) {
  // A VPE binds capabilities to its memory endpoints only. The others
  // carry its syscall, ask and service channels, and an id past the DTU's
  // 16 names no endpoint at all.
  if (req.ep < user_ep::kMem0 || req.ep - user_ep::kMem0 >= user_ep::kNumMemEps) {
    AnswerSyscall(sc, ErrCode::kInvalidArgs);
    return;
  }
  Capability* cap = CallerCap(sc, req.sel, CapType::kNone);
  if (cap == nullptr) {
    return;
  }
  NodeId node = vpes_.At(sc->vpe).node;
  stats_.activates++;
  Charge(t_.syscall_dispatch + t_.exchange_validate + t_.ddl_decode + t_.ep_config);

  if (cap->type() == CapType::kMem) {
    cap->SetActivated(req.ep);
    const CapPayload& p = cap->payload();
    MemPerms perms{(p.perms & kPermR) != 0, (p.perms & kPermW) != 0};
    pe_->dtu().ConfigureRemoteMem(node, req.ep, p.mem_node, p.mem_base, p.mem_size, perms,
                                  [this, sc] {
                                    Finish(t_.syscall_reply,
                                           [this, sc] { ReplySyscall(sc, ErrCode::kOk); });
                                  });
    return;
  }
  if (cap->type() == CapType::kSession || cap->type() == CapType::kSendGate) {
    cap->SetActivated(req.ep);
    const CapPayload& p = cap->payload();
    pe_->dtu().ConfigureRemoteSend(node, req.ep, p.dst_node, p.dst_ep, /*credits=*/1,
                                   /*label=*/p.session, [this, sc] {
                                     Finish(t_.syscall_reply,
                                            [this, sc] { ReplySyscall(sc, ErrCode::kOk); });
                                   });
    return;
  }
  Finish(t_.syscall_reply, [this, sc] { ReplySyscall(sc, ErrCode::kInvalidCapType); });
}

void Kernel::SysDeriveMem(SyscallRec* sc, const SyscallMsg& req) {
  Capability* cap = CallerCap(sc, req.sel, CapType::kMem);
  if (cap == nullptr) {
    return;
  }
  const CapPayload& p = cap->payload();
  // [arg0, arg0 + arg1) must lie inside the parent; compared without the
  // sum, which a hostile caller can wrap past 2^64.
  if (req.arg1 > p.mem_size || req.arg0 > p.mem_size - req.arg1 ||
      (req.perms & ~p.perms) != 0) {
    AnswerSyscall(sc, ErrCode::kNoPerm);
    return;
  }
  CapPayload child_payload = p;
  child_payload.mem_base = p.mem_base + req.arg0;
  child_payload.mem_size = req.arg1;
  child_payload.perms = req.perms;
  Capability* child = CreateCap(&vpes_.At(sc->vpe), CapType::kMem, child_payload, cap->key());
  cap->AddChild(child->key());
  stats_.derives++;
  CapSel sel = child->sel();
  Finish(t_.syscall_dispatch + t_.exchange_validate + t_.cap_create + t_.tree_insert +
             3 * t_.ddl_decode + t_.syscall_reply,
         [this, sc, sel, child_payload] {
           ReplySyscall(sc, ErrCode::kOk, sel, child_payload);
         });
}

// ---------------------------------------------------------------------------
// Service registry
// ---------------------------------------------------------------------------

void Kernel::SysRegisterService(SyscallRec* sc, const SyscallMsg& req) {
  VpeState* vpe = &vpes_.At(sc->vpe);
  vpe->is_service = true;
  CapPayload payload;
  payload.type = CapType::kService;
  payload.dst_node = vpe->node;
  payload.dst_ep = user_ep::kServiceRecv;
  Capability* cap = CreateCap(vpe, CapType::kService, payload, DdlKey());

  ServiceEntry entry;
  entry.name = req.name;
  entry.kernel = config_.id;
  entry.cap = cap->key();
  entry.node = vpe->node;
  entry.vpe = vpe->id;
  services_[req.name].push_back(entry);

  // Announce to all peer kernels (IKC functional group 2, §4.1).
  for (KernelId peer = 0; peer < config_.kernel_nodes.size(); ++peer) {
    if (peer == config_.id) {
      continue;
    }
    auto msg = NewMsg<IkcMsg>();
    msg->op = IkcOp::kServiceAnnounce;
    msg->name = req.name;
    msg->cap = cap->key();
    msg->node = vpe->node;
    msg->vpe = vpe->id;
    SendIkc(peer, msg, [](const IkcReply&) {});
  }
  CapSel sel = cap->sel();
  Finish(t_.syscall_dispatch + t_.cap_create + t_.syscall_reply,
         [this, sc, sel] { ReplySyscall(sc, ErrCode::kOk, sel); });
}

// ---------------------------------------------------------------------------
// IKC engine — flow-controlled kernel-to-kernel messaging (paper §4.1)
// ---------------------------------------------------------------------------

void Kernel::SendIkc(KernelId peer, std::shared_ptr<IkcMsg> msg, IkcCallback cb) {
  CHECK_NE(peer, config_.id);
  msg->src_kernel = config_.id;
  if (msg->token == 0) {
    msg->token = next_token_++;
  }
  if (peers_.at(peer).failed) {
    // The peer is quorum-confirmed dead: fail fast with the same deferred
    // kUnreachable a recovery abort produces, instead of leaking a token
    // that waits on a reply that can never come.
    stats_.ft_ikcs_aborted++;
    uint64_t token = msg->token;
    pe_->sim()->Schedule(0, [cb = std::move(cb), token]() mutable {
      if (cb) {
        cb.Fire(UnreachableReply(token));
      }
    });
    return;
  }
  PendingIkc* pending = ikc_recs_.New();
  pending->token = msg->token;
  pending->peer = peer;
  pending->cb = std::move(cb);
  if (obs::Tracer* tr = tracer(); tr != nullptr && cur_trace_.trace != 0) {
    pending->span = tr->Open(pe_->node(), cur_trace_.trace, cur_trace_.parent, pe_->sim()->Now(),
                             obs::SpanKind::kIkcRtt, static_cast<uint16_t>(msg->op));
    // Everything the remote kernel does on this call's behalf nests under
    // the round-trip span — that is how trees cross kernels.
    msg->trace_id = pending->span.trace_id;
    msg->trace_parent = pending->span.span_id;
  }
  ikcs_.Insert(pending->token, pending);

  EnqueueIkc(peer, std::move(msg));
}

void Kernel::EnqueueIkc(KernelId peer, std::shared_ptr<IkcMsg> msg) {
  stats_.ikc_op_sent[static_cast<size_t>(msg->op)]++;
  Peer& state = peers_[peer];
  if (state.credits > 0 && state.queue.empty()) {
    TransmitIkc(peer, std::move(msg));  // the queue allocates only for a wait
    return;
  }
  if (state.credits == 0) {
    // All four in-flight slots at the peer are taken (paper §4.1); the
    // request waits here instead of overflowing the peer's receive EP.
    stats_.ikc_flow_queued++;
  }
  state.queue.push_back(std::move(msg));
  DispatchIkc(peer);
}

void Kernel::SendIkcRelay(KernelId peer, std::shared_ptr<IkcMsg> msg) {
  // Relayed forward of a stale-epoch request: src_kernel and token stay the
  // origin's (the final owner's reply correlates there, not here), and no
  // pending entry is registered — this kernel leaves the request's path the
  // moment the forward is out. The caller verified the peer is alive.
  CHECK_NE(peer, config_.id);
  if (obs::Tracer* tr = tracer(); tr != nullptr && msg->trace_id != 0) {
    // Zero-length marker: the hop's transit and final service get their own
    // spans; this records *that* the walk bounced through this kernel.
    Cycles now = pe_->sim()->Now();
    tr->Close(tr->Open(pe_->node(), msg->trace_id, msg->trace_parent, now, obs::SpanKind::kRelay,
                       static_cast<uint16_t>(msg->op)),
              now);
  }
  EnqueueIkc(peer, std::move(msg));
}

Cycles Kernel::DdlDecodeCost(DdlKey key) {
  if (key.IsNull() || KernelOf(key) == config_.id) {
    return t_.ddl_decode;
  }
  if (ddl_cache_.Lookup(key, config_.membership.Epoch())) {
    stats_.ddl_cache_hits++;
    return t_.ddl_cache_hit;
  }
  stats_.ddl_cache_misses++;
  return t_.ddl_decode;
}

Cycles Kernel::DdlDecodeCostVpe(VpeId vpe) {
  // Paths that route by a peer VPE rather than a concrete capability key
  // probe with the partition's canonical VPE key.
  return DdlDecodeCost(DdlKey::Make(vpe, vpe, CapType::kVpe, 0));
}

void Kernel::DispatchIkc(KernelId peer) {
  Peer& state = peers_[peer];
  while (state.credits > 0 && !state.queue.empty()) {
    std::shared_ptr<IkcMsg> msg = std::move(state.queue.front());
    state.queue.pop_front();
    TransmitIkc(peer, std::move(msg));
  }
}

void Kernel::TransmitIkc(KernelId peer, std::shared_ptr<IkcMsg> msg) {
  peers_[peer].credits--;
  stats_.ikc_sent++;
  NodeId peer_node = config_.kernel_nodes.at(peer);
  // Peer receive EP: 8 + (sender % 8) — eight senders share one EP, four
  // in-flight messages each: 8 EPs x 32 slots cover 64 kernels (§5.1).
  EpId dst_ep = kEpKernel0 + (config_.id % kNumKernelEps);
  EpId reply_ep = kEpKernel0 + (peer % kNumKernelEps);
  Emit(pe_->sim()->Now(), [this, peer_node, dst_ep, reply_ep, msg = std::move(msg)] {
    pe_->dtu().SendTo(peer_node, dst_ep, msg, reply_ep);
  });
}

void Kernel::ReplyIkc(const Message& msg, std::shared_ptr<IkcReply> reply) {
  // The request's slot was already freed at dispatch (see OnIkc); logical
  // replies travel as reply-typed messages that need no slot, and name the
  // request by the token in its body.
  reply->token = msg.As<IkcMsg>()->token;
  // Close the handler span opened at dispatch (possibly long ago, for
  // suspended revocations) and hand the reply its trace context.
  if (auto it = ikc_handling_.find({msg.src_node, reply->token}); it != ikc_handling_.end()) {
    reply->trace_id = it->second.trace_id;
    reply->trace_parent = it->second.span_id;
    tracer()->Close(it->second, pe_->sim()->Now());
    ikc_handling_.erase(it);
  }
  pe_->dtu().SendDeferredReply(msg, std::move(reply));
}

void Kernel::AnswerIkc(Cycles cost, const Message& msg, ErrCode err) {
  auto reply = NewMsg<IkcReply>();
  reply->err = err;
  Emit(Charge(cost), [this, msg, reply] { ReplyIkc(msg, reply); });
}

void Kernel::OnIkc(EpId ep, const Message& msg) {
  if (msg.is_reply) {
    if (const IkcCredit* credit = msg.As<IkcCredit>()) {
      // Flow control: the peer dispatched one of our requests; its receive
      // slot is free again, so another request may go out (§4.1).
      Peer& state = peers_[credit->from];
      state.credits++;
      CHECK_LE(state.credits, config_.max_inflight);
      DispatchIkc(credit->from);
      return;
    }
    const IkcReply* reply = msg.As<IkcReply>();
    CHECK(reply != nullptr);
    PendingIkc* found = ikcs_.Erase(reply->token);
    if (found == nullptr) {
      // A late or duplicated reply: e.g. a pending re-keyed onto a kernel
      // that then failed was aborted with kUnreachable, yet the relayed
      // request had been dispatched before the crash and its direct reply
      // lands here afterwards. Peers are trusted but can be late, so count
      // it and carry on.
      stats_.ikc_late_replies++;
      return;
    }
    CompleteIkc(found, *reply);
    return;
  }

  const IkcMsg* req = msg.As<IkcMsg>();
  CHECK(req != nullptr);
  stats_.ikc_received++;
  stats_.ikc_op_received[static_cast<size_t>(req->op)]++;
  // Pull the message out of the DTU: free the slot and return the sender's
  // in-flight credit immediately. The logical reply is deferred — for
  // revocations possibly for a long time — without blocking the channel,
  // which keeps deep alternating revocation chains deadlock-free (§4.3.3).
  // The credit routes by the *wire* message — a relayed request's rewritten
  // reply address (below) must never redirect it.
  pe_->dtu().Ack(ep, msg.slot);
  auto credit = NewMsg<IkcCredit>();
  credit->from = config_.id;
  Emit(pe_->sim()->Now(), [this, msg, credit] { pe_->dtu().SendDeferredReply(msg, credit); });

  if (req->relay_node != kInvalidNode) {
    // Relayed request: every deferred reply must reach the walk's origin,
    // not the previous hop. SendDeferredReply routes purely by the
    // Message's src_node/reply_ep, so a rewritten copy redirects all of
    // them — including a further forward's kUnreachable short-circuit and
    // replies sent after parking.
    Message dmsg = msg;
    dmsg.src_node = req->relay_node;
    dmsg.reply_ep = req->relay_ep;
    if (!MaybeForwardIkc(dmsg)) {
      DispatchIkcRequest(dmsg);
    }
    return;
  }
  if (!MaybeForwardIkc(msg)) {
    DispatchIkcRequest(msg);
  }
}

void Kernel::DispatchIkcRequest(const Message& msg) {
  const IkcMsg* req = msg.As<IkcMsg>();
  // Open the handler span; ReplyIkc closes it by (requester node, token).
  TraceCtx saved_trace = cur_trace_;
  obs::Tracer* tr = tracer();
  if (tr != nullptr && req->trace_id != 0) {
    obs::Span span = tr->Open(pe_->node(), req->trace_id, req->trace_parent, pe_->sim()->Now(),
                              obs::SpanKind::kIkc, static_cast<uint16_t>(req->op));
    ikc_handling_[{msg.src_node, req->token}] = span;
    cur_trace_ = TraceCtx{span.trace_id, span.span_id};
  } else {
    cur_trace_ = TraceCtx{};
  }
  switch (req->op) {
    case IkcOp::kHello:
      AnswerIkc(t_.ikc_dispatch + t_.ikc_send, msg, ErrCode::kOk);
      break;
    case IkcOp::kShutdown: {
      // The peer's group is going away: stop routing sessions to its
      // services and remember that it is down.
      peers_.at(req->src_kernel).down = true;
      for (auto& [name, entries] : services_) {
        (void)name;
        std::erase_if(entries,
                      [&](const ServiceEntry& e) { return e.kernel == req->src_kernel; });
      }
      AnswerIkc(t_.ikc_dispatch + t_.ikc_send, msg, ErrCode::kOk);
      break;
    }
    case IkcOp::kServiceAnnounce: {
      ServiceEntry entry;
      entry.name = req->name;
      entry.kernel = req->src_kernel;
      entry.cap = req->cap;
      entry.node = req->node;
      entry.vpe = req->vpe;
      services_[req->name].push_back(entry);
      AnswerIkc(t_.ikc_dispatch + t_.ikc_send, msg, ErrCode::kOk);
      break;
    }
    case IkcOp::kObtainReq:
    case IkcOp::kOpenSessionReq: {
      AcquireThread();
      bool open_session = req->op == IkcOp::kOpenSessionReq;
      bool service_mediated = open_session || req->opaque != nullptr;
      Charge(t_.ikc_dispatch + t_.ikc_exchange_extra + t_.exchange_validate + t_.ddl_decode +
                 (service_mediated ? t_.session_exchange_extra : 0));
      AskOp ask_op = open_session ? AskOp::kOpenSession
                                  : (req->opaque ? AskOp::kExchange : AskOp::kObtain);
      VpeId owner_vpe;
      CapSel owner_sel = kInvalidSel;
      if (req->cap.IsNull()) {
        owner_vpe = req->peer;
        owner_sel = static_cast<CapSel>(req->payload.session);
      } else {
        Capability* anchor = caps_.Find(req->cap);
        if (anchor == nullptr) {
          AnswerIkc(t_.ikc_send, msg, ErrCode::kNoSuchCap);
          ReleaseThread();
          break;
        }
        owner_vpe = anchor->holder();
      }
      ObtainOp* op = obtain_recs_.New();
      op->client = req->vpe;
      op->child_key = req->child;
      op->ikc_msg = msg;
      OwnerSideObtain(op, ask_op, req->cap, owner_vpe, owner_sel, req->opaque,
                      req->payload.session);
      break;
    }
    case IkcOp::kDelegateReq: {
      Charge(t_.ikc_dispatch + t_.ikc_exchange_extra);
      OwnerSideDelegate(msg, *req);
      break;
    }
    case IkcOp::kDelegateAck: {
      ErrCode err = ApplyDelegateAck(req->payload.session != 0, req->child);
      AnswerIkc(t_.ikc_send, msg, err);
      break;
    }
    case IkcOp::kRevokeReq:
    case IkcOp::kRevokeBatchReq: {
      OnRevokeReq(msg);
      break;
    }
    case IkcOp::kOrphanNotify: {
      Capability* parent = caps_.Find(req->parent);
      if (parent != nullptr) {
        parent->RemoveChild(req->child);
        stats_.orphans_cleaned++;
      }
      AnswerIkc(t_.ikc_dispatch + t_.ddl_decode + t_.ikc_send, msg, ErrCode::kOk);
      break;
    }
    case IkcOp::kChildDrop: {
      Capability* parent = caps_.Find(req->parent);
      if (parent != nullptr) {
        parent->RemoveChild(req->child);
      }
      AnswerIkc(t_.ikc_dispatch + t_.ddl_decode + t_.ikc_send, msg, ErrCode::kOk);
      break;
    }
    case IkcOp::kMigrateVpe: {
      OnMigrateVpe(msg, *req);
      break;
    }
    case IkcOp::kEpochUpdate:
      ApplyMembershipUpdate(req->node, req->new_owner, req->epoch);
      stats_.epoch_updates++;
      AnswerIkc(t_.ikc_dispatch + t_.epoch_apply + t_.ikc_send, msg, ErrCode::kOk);
      break;
    case IkcOp::kSuspectKernel:
      Charge(t_.ikc_dispatch);
      RecordSuspectVote(req->suspect, req->src_kernel);
      AnswerIkc(t_.ikc_send, msg, ErrCode::kOk);
      break;
    case IkcOp::kFailoverDecree:
      Charge(t_.ikc_dispatch);
      RecoverFromFailure(req->suspect, req->epoch);
      AnswerIkc(t_.ikc_send, msg, ErrCode::kOk);
      break;
    case IkcOp::kRelayNotice:
      ApplyRelayNotice(*req);
      AnswerIkc(t_.ikc_dispatch + t_.epoch_apply + t_.ikc_send, msg, ErrCode::kOk);
      break;
  }
  cur_trace_ = saved_trace;
}

// ---------------------------------------------------------------------------
// Party asks
// ---------------------------------------------------------------------------

void Kernel::AskParty(NodeId node, std::shared_ptr<AskMsg> ask, AskCallback cb) {
  ask->token = next_token_++;
  PendingAsk* pending = ask_recs_.New();
  pending->token = ask->token;
  pending->node = node;
  pending->cb = std::move(cb);
  if (obs::Tracer* tr = tracer(); tr != nullptr && cur_trace_.trace != 0) {
    pending->span = tr->Open(pe_->node(), cur_trace_.trace, cur_trace_.parent, pe_->sim()->Now(),
                             obs::SpanKind::kAsk, static_cast<uint16_t>(ask->op));
    ask->trace_id = pending->span.trace_id;
    ask->trace_parent = pending->span.span_id;
  }
  asks_.Insert(pending->token, pending);

  AskWindow& window = ask_windows_[node];
  if (window.inflight < kServiceAskInflight) {
    window.inflight++;
    pe_->dtu().SendTo(node, user_ep::kAsk, std::move(ask), kEpAskReply);
  } else {
    window.queue.push_back(std::move(ask));
  }
}

void Kernel::OnAskReply(const Message& msg) {
  // Parties are untrusted user PEs: a body that is not an AskReply, a token
  // that names no pending ask, or a reply from a PE other than the asked
  // one (which could otherwise complete another party's ask) is dropped.
  // Replies hold no receive slot, so there is nothing to free.
  const AskReply* reply = msg.As<AskReply>();
  PendingAsk* pending = reply != nullptr ? asks_.Find(reply->token) : nullptr;
  if (pending == nullptr || pending->node != msg.src_node) {
    stats_.user_msgs_dropped++;
    return;
  }
  asks_.Erase(reply->token);
  NodeId node = pending->node;
  AskWindow& window = ask_windows_[node];
  window.inflight--;
  if (!window.queue.empty()) {
    std::shared_ptr<AskMsg> next = std::move(window.queue.front());
    window.queue.pop_front();
    window.inflight++;
    pe_->dtu().SendTo(node, user_ep::kAsk, std::move(next), kEpAskReply);
  }
  if (pending->span.span_id != 0) {
    tracer()->Close(pending->span, pe_->sim()->Now());
    cur_trace_ = TraceCtx{pending->span.trace_id, pending->span.parent_id};
  }
  AskCallback cb = std::move(pending->cb);
  ask_recs_.Delete(pending);
  if (cb) {
    cb.Fire(*reply);
  }
  cur_trace_ = TraceCtx{};
}

}  // namespace semperos
