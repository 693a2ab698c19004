#include "fs/service.h"

#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"

namespace semperos {

namespace {
const char* kTag = "m3fs";
}  // namespace

const char* FsOpName(FsOp op) {
  switch (op) {
    case FsOp::kOpen:
      return "open";
    case FsOp::kNextExtent:
      return "next_extent";
    case FsOp::kClose:
      return "close";
    case FsOp::kStat:
      return "stat";
    case FsOp::kMkdir:
      return "mkdir";
    case FsOp::kUnlink:
      return "unlink";
    case FsOp::kReadDir:
      return "readdir";
  }
  return "?";
}

FsService::FsService(std::string name, FsImage image, NodeId kernel_node,
                     const TimingModel& timing, CapSel mem_root_sel, uint64_t region_bytes)
    : name_(std::move(name)),
      image_(std::move(image)),
      kernel_node_(kernel_node),
      t_(timing),
      mem_root_sel_(mem_root_sel),
      region_bytes_(region_bytes) {}

void FsService::Setup() {
  // Ask costs are charged per-operation inside the handlers, not uniformly.
  env_ = std::make_unique<UserEnv>(pe_, kernel_node_, /*ask_cost=*/0);
  env_->SetupEps(/*is_service=*/true);
  env_->SetAskHandler([this](const AskMsg& ask, UserEnv::AskReplyFn reply) {
    OnAsk(ask, std::move(reply));
  });
  env_->SetRequestHandler([this](const Message& msg) { OnRequest(msg); });
}

void FsService::Start() {
  env_->RegisterService(name_, [this](const SyscallReply& reply) {
    CHECK(reply.err == ErrCode::kOk);
    service_sel_ = reply.sel;
    LOG_INFO(kTag) << name_ << " registered (sel " << service_sel_ << ")";
  });
}

FsService::Session* FsService::SessionOf(uint64_t id) { return sessions_.Find(id); }

// ---------------------------------------------------------------------------
// Kernel exchange-asks
// ---------------------------------------------------------------------------

void FsService::OnAsk(const AskMsg& ask, UserEnv::AskReplyFn reply) {
  ask_reply_ = std::move(reply);
  switch (ask.op) {
    case AskOp::kOpenSession:
      AskOpenSession(ask);
      return;
    case AskOp::kExchange:
      AskExchange(ask);
      return;
    case AskOp::kCloseSession: {
      if (Session* session = sessions_.Erase(ask.session)) {
        session_recs_.Delete(session);
      }
      AnswerAsk(AskReply());
      return;
    }
    default: {
      AskReply r;
      r.err = ErrCode::kInvalidArgs;
      AnswerAsk(std::move(r));
      return;
    }
  }
}

void FsService::AnswerAsk(AskReply reply) {
  UserEnv::AskReplyFn answer = std::move(ask_reply_);
  answer.Fire(std::move(reply));
}

void FsService::AskOpenSession(const AskMsg& ask) {
  Session* session = session_recs_.New();
  session->id = next_session_++;
  session->client = ask.client;
  uint64_t id = session->id;
  sessions_.Insert(id, session);
  fs_stats_.sessions++;
  env_->Compute(t_.svc_open, [this, id] {
    AskReply r;
    r.err = ErrCode::kOk;
    r.share_sel = service_sel_;
    r.session = id;
    AnswerAsk(std::move(r));
  });
}

void FsService::AskExchange(const AskMsg& ask) {
  Session* session = SessionOf(ask.session);
  const FsRequest* req = MsgAs<FsRequest>(ask.payload);
  if (session == nullptr || req == nullptr) {
    AskReply r;
    r.err = ErrCode::kInvalidArgs;
    AnswerAsk(std::move(r));
    return;
  }
  switch (req->op) {
    case FsOp::kOpen:
      HandleOpen(session, *req);
      return;
    case FsOp::kNextExtent:
      HandleNextExtent(session, *req);
      return;
    default: {
      AskReply r;
      r.err = ErrCode::kInvalidArgs;
      AnswerAsk(std::move(r));
      return;
    }
  }
}

bool FsService::ExtentInRange(const Inode& inode, uint64_t offset, bool write) const {
  uint64_t extent_start = offset / kFsExtentBytes * kFsExtentBytes;
  if (!write) {
    return extent_start < inode.size;
  }
  if (extent_start >= region_bytes_) {
    return false;  // also keeps the extent's end from wrapping
  }
  Inode grown = image_.Grown(inode, extent_start + kFsExtentBytes);
  return grown.offset + grown.reserved <= region_bytes_;
}

void FsService::RejectOutOfRange(Cycles cost) {
  fs_stats_.out_of_range++;
  env_->Compute(cost, [this] {
    AskReply r;
    r.err = ErrCode::kOutOfRange;
    AnswerAsk(std::move(r));
  });
}

void FsService::DeriveExtent(Inode* inode, uint64_t offset, bool write, ExtentCb cb) {
  uint64_t extent_start = offset / kFsExtentBytes * kFsExtentBytes;
  if (write) {
    image_.Grow(inode, extent_start + kFsExtentBytes);
  }
  uint64_t limit = write ? inode->reserved : inode->size;
  // The handlers checked ExtentInRange, and asks and requests are served
  // one at a time, so nothing shrank the file since and the extent lies
  // inside the memory region.
  CHECK_GT(limit, extent_start) << "extent request beyond file";
  uint64_t extent_len = std::min(kFsExtentBytes, limit - extent_start);
  uint32_t perms = write ? kPermRW : kPermR;
  derived_ = std::move(cb);
  env_->DeriveMem(mem_root_sel_, inode->offset + extent_start, extent_len, perms,
                  [this, extent_len](const SyscallReply& reply) {
                    CHECK(reply.err == ErrCode::kOk) << "derive failed";
                    fs_stats_.extents_handed++;
                    ExtentCb done = std::move(derived_);
                    done.Fire(reply.sel, extent_len);
                  });
}

void FsService::HandleOpen(Session* session, const FsRequest& req) {
  bool write = (req.flags & kOpenWrite) != 0;
  bool create = (req.flags & kOpenCreate) != 0;
  // A new file is empty, so only a writer creates one, and only where the
  // region holds its first extent (checked on a file not yet placed). A
  // refused create is out of range, and the image must stay as it was.
  Inode* inode = image_.Open(req.path, create && write && ExtentInRange(Inode{}, 0, true));
  if (inode == nullptr && create && image_.Lookup(FsImage::ParentOf(req.path)) != nullptr) {
    RejectOutOfRange(t_.svc_open);
    return;
  }
  if (inode == nullptr || inode->is_dir) {
    env_->Compute(t_.svc_open, [this] {
      AskReply r;
      r.err = ErrCode::kNoSuchFile;
      AnswerAsk(std::move(r));
    });
    return;
  }
  if (!ExtentInRange(*inode, 0, write)) {
    // A read-only open of an empty file, or a file the region cannot hold.
    RejectOutOfRange(t_.svc_open);
    return;
  }
  uint64_t fid = next_fid_++;
  OpenFile* file = session->Add();
  file->path = req.path;
  file->fid = fid;
  file->flags = req.flags;
  fs_stats_.opens++;
  uint64_t size = inode->size;
  uint64_t session_id = session->id;
  env_->Compute(t_.svc_open, [this, inode, write, fid, size, session_id] {
    DeriveExtent(inode, 0, write, [this, fid, size, session_id](CapSel sel, uint64_t) {
      Session* live_session = SessionOf(session_id);
      CHECK(live_session != nullptr);
      OpenFile* opened = live_session->Find(fid);
      CHECK(opened != nullptr);
      opened->handed.push_back(sel);
      auto fs_reply = NewMsg<FsReply>();
      fs_reply->err = ErrCode::kOk;
      fs_reply->fid = fid;
      fs_reply->size = size;
      AskReply r;
      r.err = ErrCode::kOk;
      r.share_sel = sel;
      r.payload = fs_reply;
      AnswerAsk(std::move(r));
    });
  });
}

void FsService::HandleNextExtent(Session* session, const FsRequest& req) {
  OpenFile* file = session->Find(req.fid);
  if (file == nullptr) {
    AskReply r;
    r.err = ErrCode::kInvalidArgs;
    AnswerAsk(std::move(r));
    return;
  }
  Inode* inode = image_.LookupMutable(file->path);
  if (inode == nullptr) {
    AskReply r;
    r.err = ErrCode::kNoSuchFile;
    AnswerAsk(std::move(r));
    return;
  }
  bool write = (file->flags & kOpenWrite) != 0;
  if (!ExtentInRange(*inode, req.offset, write)) {
    RejectOutOfRange(t_.svc_exchange);
    return;
  }
  uint64_t fid = req.fid;
  uint64_t offset = req.offset;
  uint64_t session_id = session->id;
  env_->Compute(t_.svc_exchange, [this, inode, offset, write, fid, session_id] {
    DeriveExtent(inode, offset, write, [this, fid, session_id](CapSel sel, uint64_t extent_len) {
      Session* live_session = SessionOf(session_id);
      CHECK(live_session != nullptr);
      OpenFile* live_file = live_session->Find(fid);
      CHECK(live_file != nullptr);
      live_file->handed.push_back(sel);
      auto fs_reply = NewMsg<FsReply>();
      fs_reply->err = ErrCode::kOk;
      fs_reply->fid = fid;
      fs_reply->size = extent_len;
      AskReply r;
      r.err = ErrCode::kOk;
      r.share_sel = sel;
      r.payload = fs_reply;
      AnswerAsk(std::move(r));
    });
  });
}

// ---------------------------------------------------------------------------
// Meta operations (direct client requests; session id in the message label)
// ---------------------------------------------------------------------------

void FsService::OnRequest(const Message& msg) {
  const FsRequest* req = msg.As<FsRequest>();
  if (req == nullptr) {
    fs_stats_.malformed++;
    ReplyMeta(msg, ErrCode::kInvalidArgs);
    return;
  }
  Session* session = SessionOf(msg.label);
  if (session == nullptr) {
    ReplyMeta(msg, ErrCode::kInvalidArgs);
    return;
  }
  switch (req->op) {
    case FsOp::kClose:
      MetaClose(session, *req, msg);
      return;
    case FsOp::kStat:
      MetaStat(session, *req, msg);
      return;
    case FsOp::kMkdir:
      MetaMkdir(session, *req, msg);
      return;
    case FsOp::kUnlink:
      MetaUnlink(session, *req, msg);
      return;
    case FsOp::kReadDir:
      MetaReadDir(session, *req, msg);
      return;
    default:
      ReplyMeta(msg, ErrCode::kInvalidArgs);
      return;
  }
}

void FsService::ReplyMeta(const Message& msg, ErrCode err, uint64_t size, uint32_t entries,
                          uint32_t revoked) {
  auto reply = NewMsg<FsReply>();
  reply->err = err;
  reply->size = size;
  reply->entries = entries;
  reply->revoked = revoked;
  if (msg.body != nullptr) {
    // The reply inherits the request's trace ctx: its wire transit nests
    // under whatever span issued the fs request.
    reply->trace_id = msg.body->trace_id;
    reply->trace_parent = msg.body->trace_parent;
  }
  env_->ReplyRequest(msg, reply);
}

void FsService::RevokeHanded(size_t idx) {
  if (idx >= revoking_.size()) {
    uint32_t count = static_cast<uint32_t>(revoking_.size());
    revoking_.clear();
    Message msg = std::move(revoke_msg_);
    ReplyMeta(msg, revoke_err_, 0, 0, count);
    return;
  }
  env_->Revoke(revoking_[idx], [this, idx](const SyscallReply& reply) {
    CHECK(reply.err == ErrCode::kOk) << "extent revoke failed: " << ErrName(reply.err);
    fs_stats_.caps_revoked++;
    RevokeHanded(idx + 1);
  });
}

void FsService::MetaClose(Session* session, const FsRequest& req, const Message& msg) {
  OpenFile* file = session->Find(req.fid);
  if (file == nullptr) {
    env_->Compute(t_.svc_close, [this, msg] { ReplyMeta(msg, ErrCode::kInvalidArgs); });
    return;
  }
  CHECK(revoking_.empty());
  revoking_.swap(file->handed);
  session->Remove(file);
  fs_stats_.closes++;
  revoke_msg_ = msg;
  revoke_err_ = ErrCode::kOk;
  env_->Compute(t_.svc_close, [this] { RevokeHanded(0); });
}

void FsService::MetaStat(Session* session, const FsRequest& req, const Message& msg) {
  (void)session;
  const Inode* inode = image_.Lookup(req.path);
  fs_stats_.metas++;
  env_->Compute(t_.svc_meta, [this, msg, inode] {
    if (inode == nullptr) {
      ReplyMeta(msg, ErrCode::kNoSuchFile);
    } else {
      ReplyMeta(msg, ErrCode::kOk, inode->size);
    }
  });
}

void FsService::MetaMkdir(Session* session, const FsRequest& req, const Message& msg) {
  (void)session;
  fs_stats_.metas++;
  bool exists = image_.Lookup(req.path) != nullptr;
  if (!exists) {
    image_.AddDir(req.path);
  }
  env_->Compute(t_.svc_meta, [this, msg, exists] {
    ReplyMeta(msg, exists ? ErrCode::kExists : ErrCode::kOk);
  });
}

void FsService::MetaUnlink(Session* session, const FsRequest& req, const Message& msg) {
  fs_stats_.metas++;
  // If the requesting session still has the file open, its handed
  // capabilities are revoked immediately (the SQLite journal pattern:
  // unlink-while-open), in fid order.
  CHECK(revoking_.empty());
  for (size_t i = 0; i < session->open; ++i) {
    OpenFile& file = session->files[i];
    if (file.path == req.path) {
      revoking_.insert(revoking_.end(), file.handed.begin(), file.handed.end());
      file.handed.clear();
    }
  }
  bool ok = image_.Unlink(req.path);
  revoke_msg_ = msg;
  revoke_err_ = ok ? ErrCode::kOk : ErrCode::kNoSuchFile;
  env_->Compute(t_.svc_meta, [this] { RevokeHanded(0); });
}

void FsService::MetaReadDir(Session* session, const FsRequest& req, const Message& msg) {
  (void)session;
  fs_stats_.metas++;
  uint32_t entries = image_.CountEntries(req.path);
  // Cost scales mildly with the directory size (metadata walk).
  Cycles cost = t_.svc_meta + entries * (t_.svc_meta / 16);
  env_->Compute(cost, [this, msg, entries] { ReplyMeta(msg, ErrCode::kOk, 0, entries); });
}

}  // namespace semperos
