#include "trace/replayer.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"
#include "fs/fs_image.h"

namespace semperos {

namespace {
const char* kTag = "replayer";
}  // namespace

void TraceRunner::Run(UserEnv* env, CapSel session, DoneFn done) {
  env_ = env;
  session_ = session;
  done_ = std::move(done);
  op_index_ = 0;
  cap_ops_ = 0;
  error_ = ErrCode::kOk;
  NextOp();
}

void TraceRunner::Finish(ErrCode err) {
  error_ = err;
  DoneFn done = std::move(done_);
  done.Fire();
}

bool TraceRunner::Refused(ErrCode err) {
  if (err == ErrCode::kOk) {
    return false;
  }
  Finish(err);
  return true;
}

const FsReply* TraceRunner::FsAnswer(const MsgRef& body) {
  const FsReply* fs = MsgAs<FsReply>(body);
  if (fs == nullptr) {
    Finish(ErrCode::kInvalidArgs);
  }
  return fs;
}

void TraceRunner::NextOp() {
  if (op_index_ >= trace_.ops.size()) {
    Finish(ErrCode::kOk);
    return;
  }
  const TraceOp& op = trace_.ops[op_index_++];
  switch (op.kind) {
    case TraceOpKind::kOpen:
      DoOpen(op);
      return;
    case TraceOpKind::kRead:
      DoIo(op, /*write=*/false);
      return;
    case TraceOpKind::kWrite:
      DoIo(op, /*write=*/true);
      return;
    case TraceOpKind::kSeek: {
      OpenFile* file = FindFile(op.path);
      if (file == nullptr) {
        Finish(ErrCode::kInvalidArgs);
        return;
      }
      file->cursor = op.offset();
      NextOp();
      return;
    }
    case TraceOpKind::kClose:
      DoClose(op);
      return;
    case TraceOpKind::kStat:
      DoMeta(op, FsOp::kStat);
      return;
    case TraceOpKind::kMkdir:
      DoMeta(op, FsOp::kMkdir);
      return;
    case TraceOpKind::kUnlink:
      DoMeta(op, FsOp::kUnlink);
      return;
    case TraceOpKind::kReadDir:
      DoMeta(op, FsOp::kReadDir);
      return;
    case TraceOpKind::kCompute:
      env_->Compute(op.compute(), [this] { NextOp(); });
      return;
  }
}

TraceRunner::OpenFile* TraceRunner::FindFile(uint32_t path) {
  for (OpenFile& file : files_) {
    if (file.in_use && file.path == path) {
      return &file;
    }
  }
  return nullptr;
}

void TraceRunner::DoOpen(const TraceOp& op) {
  // A PE has 8 memory endpoints (user_ep::kMem0..+7) and each open file
  // binds one, so a VPE keeps at most 8 files open; the built-in traces
  // stay well below that.
  if (FindFile(op.path) != nullptr ||
      std::countr_one(mem_eps_in_use_) >= static_cast<int>(user_ep::kNumMemEps)) {
    Finish(ErrCode::kInvalidArgs);
    return;
  }
  auto req = NewMsg<FsRequest>();
  req->op = FsOp::kOpen;
  req->path = trace_.Path(op);
  req->flags = op.flags;
  const TraceOp* open = &op;  // trace_ outlives the call
  env_->Exchange(session_, req, [this, open](const SyscallReply& reply) {
    if (Refused(reply.err)) {
      return;
    }
    const FsReply* fs = FsAnswer(reply.payload);
    if (fs == nullptr) {
      return;
    }
    cap_ops_++;  // extent-0 capability obtain
    auto spare = std::find_if(files_.begin(), files_.end(),
                              [](const OpenFile& f) { return !f.in_use; });
    OpenFile* file = spare != files_.end() ? &*spare : &files_.emplace_back();
    int ep = std::countr_one(mem_eps_in_use_);
    mem_eps_in_use_ |= static_cast<uint8_t>(1u << ep);
    file->path = open->path;
    file->in_use = true;
    file->fid = fs->fid;
    file->flags = open->flags;
    file->extent_sel = reply.sel;
    file->mem_ep = user_ep::kMem0 + static_cast<EpId>(ep);
    file->extent_start = 0;
    file->extent_len = reply.cap.mem_size;
    file->cursor = 0;
    env_->Activate(file->extent_sel, file->mem_ep, [this](const SyscallReply& areply) {
      if (!Refused(areply.err)) {
        NextOp();
      }
    });
  });
}

void TraceRunner::FetchExtent(uint64_t offset) {
  auto req = NewMsg<FsRequest>();
  req->op = FsOp::kNextExtent;
  req->fid = files_[io_file_].fid;
  req->offset = offset;
  env_->Exchange(session_, req, [this, offset](const SyscallReply& reply) {
    if (Refused(reply.err)) {
      return;
    }
    cap_ops_++;
    OpenFile& file = files_[io_file_];
    file.extent_sel = reply.sel;
    file.extent_start = offset / kFsExtentBytes * kFsExtentBytes;
    file.extent_len = reply.cap.mem_size;
    env_->Activate(file.extent_sel, file.mem_ep, [this](const SyscallReply& areply) {
      if (!Refused(areply.err)) {
        IoChunk();
      }
    });
  });
}

void TraceRunner::DoIo(const TraceOp& op, bool write) {
  OpenFile* file = FindFile(op.path);
  if (file == nullptr) {
    Finish(ErrCode::kInvalidArgs);
    return;
  }
  if (write && (file->flags & kOpenWrite) == 0) {
    Finish(ErrCode::kNoPerm);  // the extents of a read-only open are read-only
    return;
  }
  io_file_ = static_cast<size_t>(file - files_.data());
  io_write_ = write;
  io_remaining_ = op.bytes();
  IoChunk();
}

void TraceRunner::IoChunk() {
  if (io_remaining_ == 0) {
    NextOp();
    return;
  }
  OpenFile& file = files_[io_file_];
  uint64_t extent_end = file.extent_start + file.extent_len;
  if (file.cursor < file.extent_start || file.cursor >= extent_end) {
    // "If the application exceeds this range ... it is provided with an
    // additional memory capability to the next range" (paper §5.3.1).
    FetchExtent(file.cursor);
    return;
  }
  uint64_t chunk = std::min(io_remaining_, extent_end - file.cursor);
  uint64_t in_extent = file.cursor - file.extent_start;
  auto done = [this, chunk] {
    files_[io_file_].cursor += chunk;
    io_remaining_ -= chunk;
    IoChunk();
  };
  if (io_write_) {
    env_->WriteMem(file.mem_ep, in_extent, chunk, done);
  } else {
    env_->ReadMem(file.mem_ep, in_extent, chunk, done);
  }
}

void TraceRunner::DoClose(const TraceOp& op) {
  OpenFile* file = FindFile(op.path);
  if (file == nullptr) {
    Finish(ErrCode::kInvalidArgs);
    return;
  }
  uint64_t fid = file->fid;
  mem_eps_in_use_ &= static_cast<uint8_t>(~(1u << (file->mem_ep - user_ep::kMem0)));
  file->in_use = false;
  auto req = NewMsg<FsRequest>();
  req->op = FsOp::kClose;
  req->fid = fid;
  env_->Request(req, [this](const Message& msg) {
    const FsReply* fs = FsAnswer(msg.body);
    if (fs == nullptr || Refused(fs->err)) {
      return;
    }
    // The service revoked one capability per handed extent on our behalf.
    cap_ops_ += fs->revoked;
    NextOp();
  });
}

void TraceRunner::DoMeta(const TraceOp& op, FsOp fs_op) {
  auto req = NewMsg<FsRequest>();
  req->op = fs_op;
  req->path = trace_.Path(op);
  bool unlink = fs_op == FsOp::kUnlink;
  const TraceOp* meta = &op;  // trace_ outlives the call
  // A meta error (a stat of a missing file, a mkdir of an existing one) is
  // an answer, not a refusal: the trace goes on.
  env_->Request(req, [this, unlink, meta](const Message& msg) {
    const FsReply* fs = FsAnswer(msg.body);
    if (fs == nullptr) {
      return;
    }
    if (unlink) {
      // Unlink-while-open revoked this file's handed capabilities, so its
      // next I/O asks m3fs for an extent of a file that is gone.
      cap_ops_ += fs->revoked;
      if (OpenFile* file = FindFile(meta->path)) {
        file->extent_len = 0;
      }
    }
    NextOp();
  });
}

TraceReplayer::TraceReplayer(Trace trace, NodeId kernel_node, const TimingModel& timing)
    : runner_(std::move(trace)), kernel_node_(kernel_node), ask_cost_(timing.ask_party) {}

void TraceReplayer::Setup() {
  env_ = std::make_unique<UserEnv>(pe_, kernel_node_, ask_cost_);
  env_->SetupEps(/*is_service=*/false);
}

void TraceReplayer::Start() {
  result_.start = pe_->sim()->Now();
  env_->OpenSession("m3fs", [this](const SyscallReply& reply) {
    CHECK(reply.err == ErrCode::kOk) << "session open failed: " << ErrName(reply.err);
    runner_.Run(env_.get(), reply.sel, [this] { Finish(); });
  });
}

void TraceReplayer::Finish() {
  result_.end = pe_->sim()->Now();
  result_.cap_ops = 1 + runner_.cap_ops();  // the session obtain, then the trace's
  result_.syscalls = env_->syscalls_issued();
  result_.error = runner_.error();
  result_.done = result_.error == ErrCode::kOk;
  if (!result_.done) {
    result_.failed_op = runner_.failed_op();
    return;
  }
  LOG_DEBUG(kTag) << "vpe " << pe_->node() << " finished " << runner_.trace().app << " in "
                  << CyclesToMicros(result_.runtime()) << "us, " << result_.cap_ops
                  << " cap ops";
}

}  // namespace semperos
