// m3fs wire protocol.
//
// Two paths reach the service (paper §2.2):
//  * capability exchanges (open, next-extent) travel as opaque payloads of
//    kernel exchange-asks — the kernel mediates because capabilities change;
//  * meta operations (stat, mkdir, unlink, readdir, close) go directly from
//    client to service over the session channel, without the kernel.
#ifndef SEMPEROS_FS_PROTOCOL_H_
#define SEMPEROS_FS_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "base/status.h"
#include "dtu/message.h"

namespace semperos {

enum class FsOp : uint8_t {
  kOpen,        // exchange: returns a file id + first extent capability
  kNextExtent,  // exchange: returns the extent capability covering `offset`
  kClose,       // meta: service revokes every capability handed to the file
  kStat,        // meta
  kMkdir,       // meta
  kUnlink,      // meta: revokes handed capabilities if the file is open
  kReadDir,     // meta: directory listing
};

inline constexpr uint32_t kOpenRead = 1;
inline constexpr uint32_t kOpenWrite = 2;
inline constexpr uint32_t kOpenCreate = 4;

struct FsRequest : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kFsRequest;
  FsRequest() : MsgBody(kKind) {}

  FsOp op = FsOp::kStat;
  std::string path;
  uint32_t flags = 0;
  uint64_t fid = 0;
  uint64_t offset = 0;  // kNextExtent: byte offset the client wants covered

  uint32_t WireSize() const override { return static_cast<uint32_t>(48 + path.size()); }
};

struct FsReply : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kFsReply;
  FsReply() : MsgBody(kKind) {}

  ErrCode err = ErrCode::kOk;
  uint64_t fid = 0;
  uint64_t size = 0;      // file size (open/stat)
  uint32_t entries = 0;   // readdir
  uint32_t revoked = 0;   // close/unlink: capabilities revoked

  uint32_t WireSize() const override { return 48; }
};

}  // namespace semperos

#endif  // SEMPEROS_FS_PROTOCOL_H_
