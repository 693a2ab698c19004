#include "core/userlib.h"

#include "dtu/msg_pool.h"
#include "obs/trace.h"

namespace semperos {

void UserEnv::SetupEps(bool is_service) {
  Dtu& dtu = pe_->dtu();
  EpId kernel_syscall_ep = Kernel::kEpSyscall0 + (vpe() % Kernel::kNumSyscallEps);
  dtu.ConfigureSend(user_ep::kSyscallSend, kernel_node_, kernel_syscall_ep, /*credits=*/1);
  dtu.ConfigureRecv(user_ep::kSyscallReply, 2,
                    [this](EpId, const Message& msg) { OnSyscallReply(msg); });
  dtu.ConfigureRecv(user_ep::kAsk, 64, [this](EpId, const Message& msg) { OnAsk(msg); });
  dtu.ConfigureRecv(user_ep::kServiceReply, 2,
                    [this](EpId, const Message& msg) { OnServiceReply(msg); });
  if (is_service) {
    // Slot count models the aggregate of per-send-gate credit carving: every
    // client holds one credit, so the total in-flight requests equal the
    // number of clients.
    dtu.ConfigureRecv(user_ep::kServiceRecv, 4096,
                      [this](EpId, const Message& msg) { OnRequest(msg); });
  }
}

// ---------------------------------------------------------------------------
// System calls
// ---------------------------------------------------------------------------

void UserEnv::Syscall(std::shared_ptr<SyscallMsg> msg, SyscallCb cb) {
  CHECK(!syscall_pending_) << "VPE " << vpe() << " issued a second blocking syscall";
  syscall_pending_ = true;
  syscall_cb_ = std::move(cb);
  syscalls_issued_++;
  msg->token = next_token_++;
  if (obs::Tracer* tr = pe_->tracer(); tr != nullptr) {
    // Root trace unless an enclosing ctx (SetTraceContext) adopts the call.
    uint64_t trace = ctx_trace_ != 0 ? ctx_trace_ : tr->NewTraceId(pe_->node());
    sys_span_ = tr->Open(pe_->node(), trace, ctx_parent_, pe_->sim()->Now(),
                         obs::SpanKind::kRequest, static_cast<uint16_t>(msg->op));
    msg->trace_id = sys_span_.trace_id;
    msg->trace_parent = sys_span_.span_id;
  }
  syscall_msg_ = msg;
  uint64_t token = msg->token;
  Status st = pe_->dtu().Send(user_ep::kSyscallSend, std::move(msg), user_ep::kSyscallReply);
  if (retry_timeout_ > 0) {
    // Crash watchdog armed: a failed send (the kernel died holding our
    // credit) is not fatal — the watchdog re-sends once the endpoint was
    // reset by an adopter, or completes the call with kUnreachable.
    retry_count_ = 0;
    last_syscall_activity_ = pe_->sim()->Now();
    ArmSyscallWatchdog(token);
    return;
  }
  CHECK(st.ok()) << "syscall send failed: " << st.name();
}

void UserEnv::EnableSyscallRetry(Cycles timeout, uint32_t max_retries) {
  CHECK_GT(timeout, 0u);
  retry_timeout_ = timeout;
  retry_max_ = max_retries;
}

void UserEnv::ArmSyscallWatchdog(uint64_t token) {
  pe_->sim()->Schedule(retry_timeout_, [this, token] {
    if (!syscall_pending_ || syscall_msg_ == nullptr || syscall_msg_->token != token) {
      return;  // the call completed; this watchdog is stale
    }
    Cycles quiet = pe_->sim()->Now() - last_syscall_activity_;
    if (quiet < retry_timeout_) {
      // Something (a reply, a migration backoff) happened recently — the
      // kernel is alive, just slow. Never duplicate a call to a live
      // kernel; wait out the remainder of the quiet window.
      ArmSyscallWatchdog(token);
      return;
    }
    if (retry_count_ >= retry_max_ || syscall_unreachable_) {
      // The kernel stayed dark beyond every retry: fail the call so the
      // application can decide (a failover run reaches this only when
      // recovery was refused for lack of quorum). Later calls on this
      // unreachable channel fail after a single quiet window instead of
      // the full retry budget; any reply ever arriving clears the state.
      syscall_unreachable_ = true;
      syscall_pending_ = false;
      CloseSyscallSpan();
      SyscallCb cb = std::move(syscall_cb_);
      syscall_msg_ = nullptr;
      if (cb) {
        SyscallReply reply;
        reply.err = ErrCode::kUnreachable;
        cb.Fire(reply);
      }
      return;
    }
    retry_count_++;
    syscall_retries_++;
    last_syscall_activity_ = pe_->sim()->Now();
    // The send fails with kNoCredits until a surviving kernel reset this
    // PE's syscall endpoint (adoption restores the credit); keep watching.
    (void)pe_->dtu().Send(user_ep::kSyscallSend, syscall_msg_, user_ep::kSyscallReply);
    ArmSyscallWatchdog(token);
  });
}

void UserEnv::OnSyscallReply(const Message& msg) {
  const SyscallReply* reply = msg.As<SyscallReply>();
  if (reply == nullptr || (!syscall_pending_ && retry_timeout_ == 0)) {
    DropUnexpected(user_ep::kSyscallReply, msg);
    return;
  }
  syscall_unreachable_ = false;  // any reply proves the channel works again
  if (!syscall_pending_) {
    // Duplicate reply: the watchdog re-sent a call whose original reply was
    // only delayed, not lost. The first answer won; drop the echo.
    return;
  }
  last_syscall_activity_ = pe_->sim()->Now();
  if (reply->err == ErrCode::kVpeMigrating) {
    // This VPE — or the exchange peer — is moving kernels. The call stays
    // pending and is re-sent after a backoff; migration handoffs retarget
    // the syscall endpoint, so a moved VPE's retry reaches its new kernel
    // without the application noticing.
    syscall_retries_++;
    pe_->exec().Post(kMigrateRetryBackoff, [this] {
      Status st = pe_->dtu().Send(user_ep::kSyscallSend, syscall_msg_, user_ep::kSyscallReply);
      CHECK(st.ok()) << "syscall retry send failed: " << st.name();
    });
    return;
  }
  syscall_pending_ = false;
  CloseSyscallSpan();
  SyscallCb cb = std::move(syscall_cb_);
  syscall_msg_ = nullptr;  // only retained for migration/crash retries
  if (cb) {
    cb.Fire(*reply);
  }
}

void UserEnv::DropUnexpected(EpId ep, const Message& msg) {
  unexpected_msgs_++;
  if (!msg.is_reply) {
    pe_->dtu().Ack(ep, msg.slot);  // frees the slot it holds
  }
}

void UserEnv::CloseSyscallSpan() {
  if (sys_span_.span_id == 0) {
    return;
  }
  pe_->tracer()->Close(sys_span_, pe_->sim()->Now());
  sys_span_ = obs::Span();
}

void UserEnv::OpenSession(const std::string& name, SyscallCb cb) {
  auto msg = NewMsg<SyscallMsg>();
  msg->op = SyscallOp::kOpenSession;
  msg->name = name;
  Syscall(std::move(msg), std::move(cb));
}

void UserEnv::Exchange(CapSel session, MsgRef payload, SyscallCb cb) {
  auto msg = NewMsg<SyscallMsg>();
  msg->op = SyscallOp::kExchange;
  msg->sel = session;
  msg->payload = std::move(payload);
  Syscall(std::move(msg), std::move(cb));
}

void UserEnv::Obtain(VpeId peer, CapSel peer_sel, SyscallCb cb) {
  auto msg = NewMsg<SyscallMsg>();
  msg->op = SyscallOp::kObtain;
  msg->peer = peer;
  msg->sel = peer_sel;
  Syscall(std::move(msg), std::move(cb));
}

void UserEnv::Delegate(CapSel sel, VpeId peer, SyscallCb cb) {
  auto msg = NewMsg<SyscallMsg>();
  msg->op = SyscallOp::kDelegate;
  msg->sel = sel;
  msg->peer = peer;
  Syscall(std::move(msg), std::move(cb));
}

void UserEnv::Revoke(CapSel sel, SyscallCb cb) {
  auto msg = NewMsg<SyscallMsg>();
  msg->op = SyscallOp::kRevoke;
  msg->sel = sel;
  Syscall(std::move(msg), std::move(cb));
}

void UserEnv::Activate(CapSel sel, EpId ep, SyscallCb cb) {
  auto msg = NewMsg<SyscallMsg>();
  msg->op = SyscallOp::kActivate;
  msg->sel = sel;
  msg->ep = ep;
  Syscall(std::move(msg), std::move(cb));
}

void UserEnv::DeriveMem(CapSel sel, uint64_t offset, uint64_t size, uint32_t perms,
                        SyscallCb cb) {
  auto msg = NewMsg<SyscallMsg>();
  msg->op = SyscallOp::kDeriveMem;
  msg->sel = sel;
  msg->arg0 = offset;
  msg->arg1 = size;
  msg->perms = perms;
  Syscall(std::move(msg), std::move(cb));
}

void UserEnv::RegisterService(const std::string& name, SyscallCb cb) {
  auto msg = NewMsg<SyscallMsg>();
  msg->op = SyscallOp::kRegisterService;
  msg->name = name;
  Syscall(std::move(msg), std::move(cb));
}

// ---------------------------------------------------------------------------
// Exchange-asks (serialized with client requests)
// ---------------------------------------------------------------------------

void UserEnv::OnAsk(const Message& msg) {
  if (msg.is_reply || msg.As<AskMsg>() == nullptr) {
    DropUnexpected(user_ep::kAsk, msg);
    return;
  }
  Work& work = work_.emplace_back();
  work.msg = msg;
  work.ask = true;
  PumpWork();
}

void UserEnv::PumpWork() {
  if (work_busy_ || work_.empty()) {
    return;
  }
  work_busy_ = true;
  serving_ = std::move(work_.front().msg);
  bool ask = work_.front().ask;
  work_.pop_front();
  if (!ask) {
    CHECK(request_handler_) << "service PE " << vpe() << " has no request handler";
    if (serving_.body != nullptr) {
      // Syscalls the handler issues nest under the request's trace.
      SetTraceContext(serving_.body->trace_id, serving_.body->trace_parent);
    }
    request_handler_(serving_);
    return;
  }
  const AskMsg& a = *serving_.As<AskMsg>();
  // Syscalls the handler issues nest under the kernel's ask span.
  SetTraceContext(a.trace_id, a.trace_parent);
  if (ask_handler_) {
    ask_handler_(a, [this](AskReply reply) { ReplyAsk(std::move(reply)); });
  } else {
    // Default policy (plain VPEs in tests/benchmarks): accept, sharing
    // exactly the capability the kernel asked about.
    AskReply reply;
    reply.err = ErrCode::kOk;
    reply.share_sel = a.sel;
    ReplyAsk(std::move(reply));
  }
}

void UserEnv::ReplyAsk(AskReply reply_value) {
  const AskMsg* req = serving_.As<AskMsg>();
  auto reply = NewMsg<AskReply>(std::move(reply_value));
  reply->token = req->token;
  // The reply inherits the ask's trace ctx so its wire transit nests under
  // the kernel's kAsk round-trip span.
  reply->trace_id = req->trace_id;
  reply->trace_parent = req->trace_parent;
  // Answering costs the party `ask_cost_` cycles on its own core.
  pe_->exec().Post(ask_cost_, [this, reply] {
    pe_->dtu().Reply(user_ep::kAsk, serving_.slot, reply);
    SetTraceContext(0, 0);
    work_busy_ = false;
    PumpWork();
  });
}

// ---------------------------------------------------------------------------
// Client <-> service IPC
// ---------------------------------------------------------------------------

void UserEnv::Request(std::shared_ptr<MsgBody> body, MessageCb cb) {
  CHECK(!request_pending_) << "VPE " << vpe() << " issued a second service request";
  request_pending_ = true;
  request_cb_ = std::move(cb);
  body->trace_id = ctx_trace_;
  body->trace_parent = ctx_parent_;
  Status st = pe_->dtu().Send(user_ep::kServiceSend, std::move(body), user_ep::kServiceReply);
  CHECK(st.ok()) << "service request send failed: " << st.name();
}

void UserEnv::OnServiceReply(const Message& msg) {
  if (!request_pending_) {
    DropUnexpected(user_ep::kServiceReply, msg);
    return;
  }
  request_pending_ = false;
  MessageCb cb = std::move(request_cb_);
  if (cb) {
    cb.Fire(msg);
  }
}

void UserEnv::OnRequest(const Message& msg) {
  Work& work = work_.emplace_back();
  work.msg = msg;
  work.ask = false;
  PumpWork();
}

void UserEnv::ReplyRequest(const Message& msg, MsgRef body) {
  pe_->dtu().Reply(user_ep::kServiceRecv, msg.slot, std::move(body));
  SetTraceContext(0, 0);
  work_busy_ = false;
  PumpWork();
}

}  // namespace semperos
