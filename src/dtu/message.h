// Message representation for DTU communication.
//
// Real DTUs move byte buffers; the simulator moves typed, immutable message
// bodies (shared_ptr<const MsgBody>) and charges NoC time for the body's
// declared wire size. Every protocol (system calls, inter-kernel calls,
// service requests) derives its message structs from MsgBody.
//
// Dispatch is tag-checked, not RTTI: every concrete body type carries a
// MsgKind set at construction, and Message::As<T>/MsgAs<T> compare the tag
// and static_cast. A dynamic_cast per delivery was one of the simulator's
// hottest instructions — every syscall, IKC and exchange-ask pays at least
// one body downcast on receive.
#ifndef SEMPEROS_DTU_MESSAGE_H_
#define SEMPEROS_DTU_MESSAGE_H_

#include <cstdint>
#include <memory>

#include "base/types.h"

namespace semperos {

// One value per concrete MsgBody subclass. A new body type must add its tag
// here and pass it to the MsgBody constructor; As<T> on a mistagged body
// returns nullptr, which the receivers CHECK loudly.
enum class MsgKind : uint8_t {
  kNone = 0,       // untagged base (never matches an As<T>)
  kSyscall,        // SyscallMsg
  kSyscallReply,   // SyscallReply
  kAsk,            // AskMsg
  kAskReply,       // AskReply
  kIkc,            // IkcMsg
  kIkcReply,       // IkcReply
  kIkcCredit,      // IkcCredit
  kFsRequest,      // FsRequest
  kFsReply,        // FsReply
  kNginxRequest,   // NginxRequestMsg
  kNginxResponse,  // NginxResponseMsg
  kHeartbeat,      // HeartbeatMsg (kernel failure detector, src/ft)
  kTest,           // ad-hoc payloads in unit tests/benchmarks
};

// Base class for all simulated message payloads.
class MsgBody {
 public:
  explicit MsgBody(MsgKind kind = MsgKind::kNone) : kind_(kind) {}
  virtual ~MsgBody() = default;

  MsgKind kind() const { return kind_; }

  // Approximate serialized size in bytes, used for NoC timing. The default
  // matches a small fixed-size control message (one cache line).
  virtual uint32_t WireSize() const { return 64; }

  // Observability (src/obs): causal trace context. The sender stamps both
  // before handing the body to the DTU; 0 means untraced. Carried by every
  // protocol — this is how parent links cross kernels inside the existing
  // payloads (syscalls, IKCs, asks, service requests). Not part of the
  // modeled wire size: tracing is observational and must not change
  // modeled results.
  uint64_t trace_id = 0;
  uint64_t trace_parent = 0;

 private:
  MsgKind kind_;
};

using MsgRef = std::shared_ptr<const MsgBody>;

// Tag-checked downcast of an opaque payload reference (service-defined
// bodies travelling inside syscalls/asks). Returns nullptr on mismatch.
template <typename T>
const T* MsgAs(const MsgRef& body) {
  return body != nullptr && body->kind() == T::kKind ? static_cast<const T*>(body.get())
                                                     : nullptr;
}

// Endpoint id used when the sender expects no reply.
inline constexpr EpId kNoReplyEp = 0xffffffffu;

// Message::slot of a message that holds no receive slot (a reply).
inline constexpr uint32_t kNoSlot = 0xffffffffu;

// A message as seen by the receiving program. A request is answered by its
// receive endpoint and `slot` (Dtu::Reply, Dtu::Ack): the DTU routes the
// answer by the copy of the header below that it filed at delivery.
struct Message {
  NodeId src_node = kInvalidNode;  // PE the message came from
  EpId src_send_ep = 0;            // sender's send endpoint (credit return)
  EpId reply_ep = kNoReplyEp;      // receive endpoint at sender for replies
  uint32_t slot = kNoSlot;         // receive slot a request holds
  uint64_t label = 0;              // receiver-assigned channel label
  bool is_reply = false;           // true if this is a reply message
  Cycles trace_sent = 0;           // obs: cycle the DTU put it on the wire
  MsgRef body;

  template <typename T>
  const T* As() const {
    return MsgAs<T>(body);
  }
};

}  // namespace semperos

#endif  // SEMPEROS_DTU_MESSAGE_H_
