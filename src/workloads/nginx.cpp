#include "workloads/nginx.h"

#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"
#include "obs/trace.h"

namespace semperos {

NginxServer::NginxServer(Trace request_trace, NodeId kernel_node, const TimingModel& timing)
    : runner_(std::move(request_trace)), kernel_node_(kernel_node), ask_cost_(timing.ask_party) {}

void NginxServer::Setup() {
  env_ = std::make_unique<UserEnv>(pe_, kernel_node_, ask_cost_);
  env_->SetupEps(/*is_service=*/false);
  pe_->dtu().ConfigureRecv(kNginxServerRecvEp, 16,
                           [this](EpId, const Message& msg) {
                             Pending& pending = pending_.emplace_back();
                             pending.msg = msg;
                             pending.arrival = pe_->sim()->Now();
                             Pump();
                           });
}

void NginxServer::Start() {
  env_->OpenSession("m3fs", [this](const SyscallReply& reply) {
    if (reply.err != ErrCode::kOk) {
      // A service PE is untrusted: its refusal stops this server, not the
      // simulation.
      error_ = reply.err;
      return;
    }
    session_sel_ = reply.sel;
    Pump();
  });
}

void NginxServer::Pump() {
  if (busy_ || session_sel_ == kInvalidSel || pending_.empty()) {
    return;
  }
  busy_ = true;
  current_ = std::move(pending_.front().msg);
  Cycles arrival = pending_.front().arrival;
  pending_.pop_front();
  if (obs::Tracer* tr = pe_->tracer();
      tr != nullptr && current_.body != nullptr && current_.body->trace_id != 0) {
    serve_span_ = tr->Open(pe_->node(), current_.body->trace_id, current_.body->trace_parent,
                           arrival, obs::SpanKind::kServe);
    // Syscalls and m3fs requests issued while serving nest under the serve
    // span.
    env_->SetTraceContext(serve_span_.trace_id, serve_span_.span_id);
  }
  runner_.Run(env_.get(), session_sel_, [this] { FinishRequest(); });
}

void NginxServer::FinishRequest() {
  if (runner_.error() != ErrCode::kOk) {
    // m3fs or the kernel refused one of the request's operations: the
    // server stops with the error, busy with the unanswered request.
    error_ = runner_.error();
    return;
  }
  served_++;
  const NginxRequestMsg* req = current_.As<NginxRequestMsg>();
  auto response = NewMsg<NginxResponseMsg>();
  response->seq = req != nullptr ? req->seq : 0;
  if (serve_span_.span_id != 0) {
    // The response's wire transit nests under the serve span.
    response->trace_id = serve_span_.trace_id;
    response->trace_parent = serve_span_.span_id;
    pe_->tracer()->Close(serve_span_, pe_->sim()->Now());
    serve_span_ = obs::Span();
    env_->SetTraceContext(0, 0);
  }
  pe_->dtu().Reply(kNginxServerRecvEp, current_.slot, response);
  current_ = Message();
  busy_ = false;
  Pump();
}

LoadGen::LoadGen(NodeId server_node, uint32_t pipeline)
    : server_node_(server_node), pipeline_(pipeline) {}

void LoadGen::Setup() {
  Dtu& dtu = pe_->dtu();
  dtu.ConfigureSend(user_ep::kSyscallSend, server_node_, kNginxServerRecvEp,
                    /*credits=*/pipeline_);
  dtu.ConfigureRecv(user_ep::kSyscallReply, pipeline_, [this](EpId, const Message& msg) {
    if (msg.As<NginxResponseMsg>() == nullptr) {
      // A server PE is untrusted: a foreign answer is dropped.
      refused_responses_++;
      return;
    }
    completed_++;
    SendOne();
  });
}

void LoadGen::Start() {
  for (uint32_t i = 0; i < pipeline_; ++i) {
    SendOne();
  }
}

void LoadGen::SendOne() {
  auto req = NewMsg<NginxRequestMsg>();
  req->seq = next_seq_++;
  Status st = pe_->dtu().Send(user_ep::kSyscallSend, req, user_ep::kSyscallReply);
  CHECK(st.ok()) << "loadgen send failed: " << st.name();
}

}  // namespace semperos
