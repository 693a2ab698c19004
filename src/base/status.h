// Lightweight status codes used across the kernel, services and programs.
//
// The OS code is exception-free (kernel style); fallible operations return a
// Status or report an ErrCode in a reply message.
#ifndef SEMPEROS_BASE_STATUS_H_
#define SEMPEROS_BASE_STATUS_H_

#include <cstdint>

namespace semperos {

enum class ErrCode : uint8_t {
  kOk = 0,
  kInvalidArgs,     // malformed request
  kNoSuchCap,       // selector does not name a capability
  kNoSuchVpe,       // VPE id unknown to this kernel
  kNoSuchService,   // service name not registered anywhere
  kNoSuchFile,      // filesystem: path lookup failed
  kExists,          // filesystem: path already exists
  kNoPerm,          // capability lacks required rights
  kInvalidCapType,  // capability has the wrong type for the operation
  kCapRevoked,      // capability is marked for revocation ("Pointless" denial)
  kVpeGone,         // peer VPE was killed during the operation
  kVpeMigrating,    // VPE is moving kernels; retry after the handoff settles
  kNoCredits,       // DTU send endpoint out of credits
  kOutOfRange,      // offset beyond file / memory capability range
  kAborted,         // operation aborted (e.g. kernel shutdown)
  kUnreachable,     // no route / peer kernel unknown
};

// Human-readable name for an error code ("kOk" -> "ok").
const char* ErrName(ErrCode code);

// A trivially copyable success/error result.
class Status {
 public:
  constexpr Status() : code_(ErrCode::kOk) {}
  constexpr explicit Status(ErrCode code) : code_(code) {}

  static constexpr Status Ok() { return Status(); }

  constexpr bool ok() const { return code_ == ErrCode::kOk; }
  constexpr ErrCode code() const { return code_; }
  const char* name() const { return ErrName(code_); }

  friend constexpr bool operator==(Status a, Status b) { return a.code_ == b.code_; }

 private:
  ErrCode code_;
};

}  // namespace semperos

#endif  // SEMPEROS_BASE_STATUS_H_
