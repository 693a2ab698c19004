#include "workloads/nginx.h"

#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"
#include "obs/trace.h"

namespace semperos {

NginxServer::NginxServer(Trace request_trace, NodeId kernel_node, const TimingModel& timing,
                         std::string service_name)
    : request_trace_(std::move(request_trace)),
      kernel_node_(kernel_node),
      t_(timing),
      service_name_(std::move(service_name)) {}

void NginxServer::Setup() {
  env_ = std::make_unique<UserEnv>(pe_, kernel_node_, t_.ask_party);
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
  env_->OpenSession(service_name_, [this](const SyscallReply& reply) {
    CHECK(reply.err == ErrCode::kOk) << "nginx: session open failed";
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
    serve_trace_ = current_.body->trace_id;
    serve_parent_ = current_.body->trace_parent;
    serve_span_ = tr->NextSpanId(pe_->node());
    serve_start_ = arrival;
    // Syscalls issued while serving nest under the serve span.
    env_->SetTraceContext(serve_trace_, serve_span_);
  }
  RunOp(0);
}

void NginxServer::RunOp(size_t idx) {
  if (idx >= request_trace_.ops.size()) {
    FinishRequest();
    return;
  }
  op_idx_ = idx;
  const TraceOp& op = request_trace_.ops[idx];
  auto next = [this] { NextOp(); };
  switch (op.kind) {
    case TraceOpKind::kStat: {
      auto req = NewMsg<FsRequest>();
      req->op = FsOp::kStat;
      req->path = request_trace_.Path(op);
      req->trace_id = serve_trace_;
      req->trace_parent = serve_span_;
      env_->Request(req, [this](const Message&) { NextOp(); });
      return;
    }
    case TraceOpKind::kOpen: {
      auto req = NewMsg<FsRequest>();
      req->op = FsOp::kOpen;
      req->path = request_trace_.Path(op);
      req->flags = op.flags;
      env_->Exchange(session_sel_, req, [this](const SyscallReply& reply) {
        CHECK(reply.err == ErrCode::kOk) << "nginx open failed: " << ErrName(reply.err);
        const FsReply* fs = MsgAs<FsReply>(reply.payload);
        CHECK(fs != nullptr);
        open_.fid = fs->fid;
        open_.extent_sel = reply.sel;
        open_.extent_len = reply.cap.mem_size;
        open_.handed = 1;
        env_->Activate(open_.extent_sel, user_ep::kMem0, [this](const SyscallReply& areply) {
          CHECK(areply.err == ErrCode::kOk);
          NextOp();
        });
      });
      return;
    }
    case TraceOpKind::kRead: {
      uint64_t bytes = std::min(op.bytes(), open_.extent_len);
      env_->ReadMem(user_ep::kMem0, 0, bytes, next);
      return;
    }
    case TraceOpKind::kWrite: {
      // Request traces keep I/O inside extent 0 (the service grows a fresh
      // file to a full write extent at open), so no next-extent exchange.
      uint64_t bytes = std::min(op.bytes(), open_.extent_len);
      env_->WriteMem(user_ep::kMem0, 0, bytes, next);
      return;
    }
    case TraceOpKind::kUnlink: {
      auto req = NewMsg<FsRequest>();
      req->op = FsOp::kUnlink;
      req->path = request_trace_.Path(op);
      req->trace_id = serve_trace_;
      req->trace_parent = serve_span_;
      env_->Request(req, [this](const Message&) { NextOp(); });
      return;
    }
    case TraceOpKind::kClose: {
      auto req = NewMsg<FsRequest>();
      req->op = FsOp::kClose;
      req->fid = open_.fid;
      req->trace_id = serve_trace_;
      req->trace_parent = serve_span_;
      env_->Request(req, [this](const Message&) { NextOp(); });
      return;
    }
    case TraceOpKind::kCompute: {
      env_->Compute(op.compute(), next);
      return;
    }
    default:
      CHECK(false) << "unsupported op in nginx request trace";
  }
}

void NginxServer::FinishRequest() {
  served_++;
  const NginxRequestMsg* req = current_.As<NginxRequestMsg>();
  auto response = NewMsg<NginxResponseMsg>();
  response->seq = req != nullptr ? req->seq : 0;
  if (serve_span_ != 0) {
    // The response's wire transit nests under the serve span.
    response->trace_id = serve_trace_;
    response->trace_parent = serve_span_;
    obs::Span serve;
    serve.trace_id = serve_trace_;
    serve.span_id = serve_span_;
    serve.parent_id = serve_parent_;
    serve.start = serve_start_;
    serve.end = pe_->sim()->Now();
    serve.entity = pe_->node();
    serve.kind = obs::SpanKind::kServe;
    pe_->tracer()->Record(serve);
    serve_trace_ = 0;
    serve_span_ = 0;
    serve_parent_ = 0;
    env_->SetTraceContext(0, 0);
  }
  pe_->dtu().Reply(kNginxServerRecvEp, current_, response);
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
    const NginxResponseMsg* resp = msg.As<NginxResponseMsg>();
    CHECK(resp != nullptr);
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
