// Wire protocols: system calls, inter-kernel calls (IKC), and the
// kernel<->party exchange-ask protocol.
//
// Paper §4.1 groups inter-kernel calls into three functional groups:
//   (1) kernel/service startup and shutdown,
//   (2) connections to services in other PE groups,
//   (3) capability exchange and revocation across group boundaries.
// Groups (2) and (3) form the distributed capability protocol.
//
// All messages derive from MsgBody; replies echo the request's `token` so
// the requester can correlate them (the simulator's stand-in for M3's
// reply-endpoint association).
#ifndef SEMPEROS_CORE_PROTOCOL_H_
#define SEMPEROS_CORE_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "core/ddl.h"
#include "dtu/message.h"

namespace semperos {

// Payload describing the resource behind a capability, carried in exchange
// messages so the receiving kernel can materialize a child capability.
struct CapPayload {
  CapType type = CapType::kNone;
  // Memory capabilities.
  NodeId mem_node = kInvalidNode;
  uint64_t mem_base = 0;
  uint64_t mem_size = 0;
  uint32_t perms = 0;  // bit 0 = read, bit 1 = write
  // Gates / sessions: target of the communication channel.
  NodeId dst_node = kInvalidNode;
  EpId dst_ep = 0;
  uint64_t session = 0;  // service-chosen session identifier
  DdlKey service;        // owning service capability (sessions)
};

// One capability record crossing kernels during PE migration. Mirrors the
// persistent fields of Capability; revocation marks never migrate because
// the source kernel quiesces in-flight revocations before packing.
struct MigratedCap {
  DdlKey key;
  CapType type = CapType::kNone;
  CapSel sel = kInvalidSel;
  DdlKey parent;
  std::vector<DdlKey> children;
  CapPayload payload;
  uint8_t activated_eps = 0;  // Capability::activated_eps()
};

// Everything the destination kernel needs to take over a PE: the VPE's
// kernel-side state plus every capability of the PE's DDL partition. The
// source's object-id counter rides along so the destination can keep
// allocating collision-free keys in the moved partition.
struct MigratePayload {
  VpeId vpe = kInvalidVpe;
  NodeId node = kInvalidNode;
  bool alive = true;
  bool is_service = false;
  CapSel next_sel = 1;
  uint64_t next_obj = 1;
  std::vector<MigratedCap> caps;
};

inline constexpr uint32_t kPermR = 1;
inline constexpr uint32_t kPermW = 2;
inline constexpr uint32_t kPermRW = kPermR | kPermW;

// DTU endpoint layout of user/service PEs, shared knowledge between the
// kernel (which configures these endpoints) and the user-level runtime.
namespace user_ep {
inline constexpr EpId kSyscallSend = 0;   // -> kernel syscall EP, 1 credit
inline constexpr EpId kSyscallReply = 1;  // syscall replies arrive here
inline constexpr EpId kAsk = 2;           // exchange-asks from the kernel
inline constexpr EpId kServiceSend = 3;   // session send gate (-> service)
inline constexpr EpId kServiceReply = 4;  // service replies arrive here
inline constexpr EpId kServiceRecv = 5;   // services: client requests
inline constexpr EpId kMem0 = 8;          // first of 8 memory endpoints
inline constexpr uint32_t kNumMemEps = 8;
}  // namespace user_ep

// ---------------------------------------------------------------------------
// System calls (VPE -> kernel)
// ---------------------------------------------------------------------------

enum class SyscallOp : uint8_t {
  kNoop,         // timing probe: dispatch + reply only
  kOpenSession,  // connect to a named service (Figure 3 sequences A/B)
  kExchange,     // obtain caps over a session, service decides (m3fs extents)
  kObtain,       // obtain a capability from another VPE
  kDelegate,     // delegate one of the caller's capabilities to another VPE
  kRevoke,       // recursively revoke one of the caller's capabilities
  kActivate,     // bind a capability to a DTU endpoint
  kDeriveMem,    // create a restricted child of one of the caller's mem caps
  kRegisterService,  // services announce themselves (kernel broadcasts)
};

struct SyscallMsg : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kSyscall;
  SyscallMsg() : MsgBody(kKind) {}

  // No caller field: the kernel takes the caller from the sending PE,
  // which the DTU stamps on the message.
  SyscallOp op = SyscallOp::kNoop;
  uint64_t token = 0;  // echoed in the reply

  CapSel sel = kInvalidSel;    // primary capability selector
  VpeId peer = kInvalidVpe;    // peer VPE for obtain/delegate
  EpId ep = 0;                 // endpoint for kActivate
  uint64_t arg0 = 0;           // op-specific (derive: offset)
  uint64_t arg1 = 0;           // op-specific (derive: size)
  uint32_t perms = 0;          // derive: permission mask
  std::string name;            // service name for open/register
  MsgRef payload;              // opaque service-defined request (kExchange)

  uint32_t WireSize() const override { return 96; }
};

struct SyscallReply : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kSyscallReply;
  SyscallReply() : MsgBody(kKind) {}

  uint64_t token = 0;
  ErrCode err = ErrCode::kOk;
  CapSel sel = kInvalidSel;  // newly created capability, if any
  CapPayload cap;            // description of the new capability
  MsgRef payload;            // opaque service-defined reply (kExchange)

  uint32_t WireSize() const override { return 96; }
};

// ---------------------------------------------------------------------------
// Exchange-ask protocol (kernel -> owning VPE/service program)
//
// "K2 asks V2 whether it accepts the capability exchange" (paper §4.3.2).
// The asked party replies with accept/deny; for session exchanges the party
// (a service) also names the capability to share and an opaque reply.
// ---------------------------------------------------------------------------

enum class AskOp : uint8_t {
  kOpenSession,   // service: accept new client?
  kCloseSession,  // service: client is gone
  kExchange,      // service: client requests caps over a session
  kObtain,        // plain VPE: peer wants to obtain your capability `sel`
  kDelegate,      // plain VPE: peer wants to hand you a capability
};

struct AskMsg : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kAsk;
  AskMsg() : MsgBody(kKind) {}

  AskOp op = AskOp::kObtain;
  uint64_t token = 0;
  VpeId client = kInvalidVpe;  // who triggered the exchange
  CapSel sel = kInvalidSel;    // capability in question (owner's selector)
  uint64_t session = 0;        // session id for service asks
  CapPayload offered;          // delegate: what the peer offers
  MsgRef payload;              // opaque service request (kExchange)

  uint32_t WireSize() const override { return 96; }
};

struct AskReply : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kAskReply;
  AskReply() : MsgBody(kKind) {}

  uint64_t token = 0;
  ErrCode err = ErrCode::kOk;
  CapSel share_sel = kInvalidSel;  // capability the party shares (its table)
  uint64_t session = 0;            // new session id (kOpenSession)
  MsgRef payload;                  // opaque service reply

  uint32_t WireSize() const override { return 96; }
};

// ---------------------------------------------------------------------------
// Inter-kernel calls (kernel -> kernel), paper §4.1
// ---------------------------------------------------------------------------

enum class IkcOp : uint8_t {
  // Group 1: startup / shutdown.
  kHello,
  kShutdown,
  // Group 2: service connections.
  kServiceAnnounce,
  kOpenSessionReq,
  // Group 3: capability exchange and revocation.
  kObtainReq,
  kDelegateReq,
  kDelegateAck,   // second leg of the two-way handshake (paper §4.3.2)
  kRevokeReq,     // one per remote child capability (paper §5.2)
  kOrphanNotify,  // obtainer died: remove orphaned child (paper §4.3.2)
  kChildDrop,     // revoked cap had a live remote parent: unlink it
  // Extension (beyond the paper, which kept membership static): dynamic
  // PE-group membership. kMigrateVpe carries a PE's VPE state and
  // capability partition to its new owner; kEpochUpdate broadcasts the
  // membership reassignment so every kernel's replicated DDL table
  // converges within one settle round.
  kMigrateVpe,
  kEpochUpdate,
  // Fault tolerance (src/ft): quorum-based kernel failure handling.
  // kSuspectKernel carries a suspicion vote to the current quorum leader;
  // kFailoverDecree broadcasts the quorum-agreed verdict plus the recovery
  // epoch, upon which every survivor applies the deterministic takeover
  // plan (DDL re-partitioning, orphan revocation, pending-IKC aborts).
  kSuspectKernel,
  kFailoverDecree,
  // Sent by a kernel that forwarded a stale-epoch request onward instead
  // of proxying the reply (pipelined ancestry walk): tells the origin
  // which kernel now owns the partition, so the origin re-keys its
  // pending-IKC entry for fault tolerance and learns the new owner ahead
  // of the settle broadcast.
  kRelayNotice,
};

// Number of IkcOp values, for per-op send/receive counters.
inline constexpr size_t kNumIkcOps = static_cast<size_t>(IkcOp::kRelayNotice) + 1;

const char* IkcOpName(IkcOp op);

struct IkcMsg : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kIkc;
  IkcMsg() : MsgBody(kKind) {}

  IkcOp op = IkcOp::kHello;
  KernelId src_kernel = kInvalidKernel;
  uint64_t token = 0;

  DdlKey cap;            // capability the operation targets (owner's key)
  DdlKey child;          // proposed/affected child key
  DdlKey parent;         // parent key (kChildDrop)
  VpeId vpe = kInvalidVpe;   // requesting client VPE
  VpeId peer = kInvalidVpe;  // peer VPE (delegate receiver)
  CapPayload payload;        // resource description (delegate offers)
  MsgRef opaque;             // service-defined request (session exchange)
  std::string name;          // service name (announce)
  NodeId node = kInvalidNode;  // service PE (announce); migrating PE
  // Migration (kMigrateVpe / kEpochUpdate).
  KernelId new_owner = kInvalidKernel;  // kernel taking over partition `node`
  uint64_t epoch = 0;                   // membership epoch of the reassignment
  // Fault tolerance (kSuspectKernel / kFailoverDecree).
  KernelId suspect = kInvalidKernel;    // kernel the vote / decree is about
  std::shared_ptr<MigratePayload> migrate;  // kMigrateVpe: the moved state
  // Pipelined forwarding: the first forwarder records the origin kernel's
  // reply address so the final owner answers the origin directly instead
  // of proxying back hop by hop. relay_hops orders the kRelayNotice stream
  // (notices from different forwarders are not FIFO relative to each
  // other; the latest hop must win at the origin).
  NodeId relay_node = kInvalidNode;  // origin kernel's node (set once)
  EpId relay_ep = 0;                 // origin kernel's reply endpoint
  uint64_t relay_token = 0;          // kRelayNotice: origin's request token
  uint32_t relay_hops = 0;           // forwards this request survived

  uint32_t WireSize() const override {
    size_t migrate_bytes = migrate == nullptr ? 0 : 48 + migrate->caps.size() * 64;
    return static_cast<uint32_t>(112 + migrate_bytes);
  }
};

struct IkcReply : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kIkcReply;
  IkcReply() : MsgBody(kKind) {}

  uint64_t token = 0;
  ErrCode err = ErrCode::kOk;
  DdlKey cap;         // e.g. parent key the child was linked under
  DdlKey child;       // key of the capability created by the peer kernel
  CapPayload payload; // resource description for the new capability
  MsgRef opaque;      // service-defined reply

  uint32_t WireSize() const override { return 112; }
};

// Flow-control acknowledgement: the receiving kernel frees the DTU message
// slot as soon as it dispatched a request and returns the in-flight credit
// with this tiny packet. The *logical* reply (IkcReply) may come much later
// — e.g. a revocation reply is deferred until the whole subtree is gone —
// without holding slots, which keeps deep cross-kernel revocation chains
// deadlock-free under the 4-in-flight limit (paper §4.1, §4.3.3).
struct IkcCredit : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kIkcCredit;
  IkcCredit() : MsgBody(kKind) {}

  KernelId from = kInvalidKernel;
  uint32_t WireSize() const override { return 16; }
};

}  // namespace semperos

#endif  // SEMPEROS_CORE_PROTOCOL_H_
