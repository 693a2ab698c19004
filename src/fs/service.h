// m3fs: the in-memory filesystem service (paper §2.2, §5.3.1).
//
// The service is an ordinary user-level program. It registers with its
// group's kernel, answers the kernel's exchange-asks (session opens and
// extent requests), and serves meta operations directly over client session
// channels. File contents live in a memory region on a memory tile; access
// happens through memory capabilities the service derives from its root
// memory capability and hands to clients:
//
//   open        -> derive extent-0 capability, client obtains a copy
//   read/write
//   past extent -> derive next-extent capability, client obtains a copy
//   close       -> service revokes each derived capability, which
//                  recursively revokes the clients' copies and invalidates
//                  their DTU endpoints (paper: "When the file is closed
//                  again, the memory capabilities are revoked")
//   unlink of an open file revokes immediately (the SQLite journal pattern).
#ifndef SEMPEROS_FS_SERVICE_H_
#define SEMPEROS_FS_SERVICE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/flat.h"
#include "core/timing.h"
#include "core/userlib.h"
#include "fs/fs_image.h"
#include "fs/protocol.h"
#include "pe/pe.h"

namespace semperos {

struct FsServiceStats {
  uint64_t sessions = 0;
  uint64_t opens = 0;
  uint64_t extents_handed = 0;
  uint64_t closes = 0;
  uint64_t metas = 0;
  uint64_t caps_revoked = 0;
  // Rejected client input: extent requests beyond the file or, for writes,
  // beyond the memory region (kOutOfRange), and non-m3fs messages on a
  // session channel (kInvalidArgs).
  uint64_t out_of_range = 0;
  uint64_t malformed = 0;
};

class FsService : public Program {
 public:
  // `mem_root_sel` is the selector of the root memory capability covering
  // this service's image region of `region_bytes` bytes (installed via
  // Kernel::AdminGrantMem before boot). `timing` supplies the per-operation
  // handler costs.
  FsService(std::string name, FsImage image, NodeId kernel_node, const TimingModel& timing,
            CapSel mem_root_sel, uint64_t region_bytes);

  void Setup() override;
  void Start() override;

  const FsServiceStats& stats() const { return fs_stats_; }
  bool registered() const { return service_sel_ != kInvalidSel; }
  const FsImage& image() const { return image_; }
  UserEnv& env() { return *env_; }

 private:
  // The service handles one ask or client request at a time (UserEnv
  // serializes them), so the state of the operation in progress lives in
  // the records below and in a few members, and continuations capture
  // `this` plus ids.
  struct OpenFile {
    std::string path;
    uint64_t fid = 0;
    uint32_t flags = 0;
    std::vector<CapSel> handed;  // derived extent capabilities (our table)
  };
  // A session's open files, flat: files[0, open) are the open ones in
  // ascending fid order (fids only grow, so an open appends); the records
  // after them are spares that keep their path and extent-list capacity
  // for the next open. An open in progress already has its record. A
  // closed session's record, spares included, serves the next session.
  struct Session {
    uint64_t id = 0;
    VpeId client = kInvalidVpe;
    std::vector<OpenFile> files;
    size_t open = 0;
    uint32_t pool_slot = 0;

    void Reset() {
      id = 0;
      client = kInvalidVpe;
      open = 0;
    }

    OpenFile* Find(uint64_t fid) {
      for (size_t i = 0; i < open; ++i) {
        if (files[i].fid == fid) {
          return &files[i];
        }
      }
      return nullptr;
    }
    // A fresh record after the open ones (a recycled spare if any).
    OpenFile* Add() {
      if (open == files.size()) {
        files.emplace_back();
      }
      OpenFile* file = &files[open++];
      file->handed.clear();
      return file;
    }
    // Closes `file`: the later open files move up one, keeping fid order,
    // and the record becomes the first spare.
    void Remove(OpenFile* file) {
      auto it = files.begin() + (file - files.data());
      std::rotate(it, it + 1, files.begin() + static_cast<std::ptrdiff_t>(open));
      --open;
    }
  };

  void OnAsk(const AskMsg& ask, UserEnv::AskReplyFn reply);
  // Answers the ask being served.
  void AnswerAsk(AskReply reply);
  void AskOpenSession(const AskMsg& ask);
  void AskExchange(const AskMsg& ask);
  void HandleOpen(Session* session, const FsRequest& req);
  void HandleNextExtent(Session* session, const FsRequest& req);

  void OnRequest(const Message& msg);
  void MetaClose(Session* session, const FsRequest& req, const Message& msg);
  void MetaStat(Session* session, const FsRequest& req, const Message& msg);
  void MetaMkdir(Session* session, const FsRequest& req, const Message& msg);
  void MetaUnlink(Session* session, const FsRequest& req, const Message& msg);
  void MetaReadDir(Session* session, const FsRequest& req, const Message& msg);

  // Whether an extent capability can cover byte `offset` of `inode`: a
  // read must stay below the file's size, and a write, which grows the
  // file, must keep the image inside the memory region.
  bool ExtentInRange(const Inode& inode, uint64_t offset, bool write) const;
  // Answers the ask being served with kOutOfRange after `cost` cycles.
  void RejectOutOfRange(Cycles cost);
  // Derives the extent capability covering byte `offset` of `inode` (in
  // range, see above) and returns (via cb) the new selector. Grows the
  // file for writes.
  using ExtentCb = Callback<void(CapSel, uint64_t extent_len)>;
  void DeriveExtent(Inode* inode, uint64_t offset, bool write, ExtentCb cb);

  // Revokes revoking_[idx..] sequentially, then answers revoke_msg_.
  void RevokeHanded(size_t idx);

  Session* SessionOf(uint64_t id);
  void ReplyMeta(const Message& msg, ErrCode err, uint64_t size = 0, uint32_t entries = 0,
                 uint32_t revoked = 0);

  std::string name_;
  FsImage image_;
  NodeId kernel_node_;
  TimingModel t_;
  CapSel mem_root_sel_;
  uint64_t region_bytes_;
  CapSel service_sel_ = kInvalidSel;
  std::unique_ptr<UserEnv> env_;

  // Live sessions by id; ids start at 1 (FlatIndex keys are non-zero).
  RecordPool<Session> session_recs_;
  FlatIndex<Session> sessions_;
  uint64_t next_session_ = 1;
  uint64_t next_fid_ = 1;
  FsServiceStats fs_stats_;

  // The operation in progress (see above).
  UserEnv::AskReplyFn ask_reply_;  // answers the ask being served
  ExtentCb derived_;               // DeriveExtent's continuation
  // A close or unlink revokes these one at a time, then answers
  // revoke_msg_ with revoke_err_ and the count.
  std::vector<CapSel> revoking_;
  Message revoke_msg_;
  ErrCode revoke_err_ = ErrCode::kOk;
};

}  // namespace semperos

#endif  // SEMPEROS_FS_SERVICE_H_
