// User-level runtime: the simulator's equivalent of M3's userspace library.
//
// Every user/service program owns a UserEnv, which manages the PE's DTU
// endpoint layout (see user_ep in protocol.h), provides the blocking-style
// system-call RPC to the group's kernel (one outstanding call per VPE, which
// is what sizes the kernel's syscall endpoints: 6 EPs x 32 slots = 192 VPEs,
// paper §5.1), answers the kernel's exchange-asks, and implements the
// client<->service IPC path that, once established, works without any kernel
// involvement (paper §2.2).
#ifndef SEMPEROS_CORE_USERLIB_H_
#define SEMPEROS_CORE_USERLIB_H_

#include <memory>
#include <string>
#include <utility>

#include "base/flat.h"
#include "base/log.h"
#include "base/status.h"
#include "core/kernel.h"
#include "core/protocol.h"
#include "obs/trace.h"
#include "pe/pe.h"
#include "sim/inline_fn.h"

namespace semperos {

class UserEnv {
 public:
  using SyscallCb = Callback<void(const SyscallReply&)>;
  using MessageCb = Callback<void(const Message&)>;
  using AskReplyFn = Callback<void(AskReply)>;

  // `ask_cost` is charged on this PE for every exchange-ask it answers
  // (the "K2 asks V2" step of §4.3.2).
  UserEnv(ProcessingElement* pe, NodeId kernel_node, Cycles ask_cost)
      : pe_(pe), kernel_node_(kernel_node), ask_cost_(ask_cost) {}

  VpeId vpe() const { return pe_->node(); }
  ProcessingElement* pe() const { return pe_; }

  // Configures this PE's endpoints. Must run during boot, before the kernel
  // downgrades the DTU.
  void SetupEps(bool is_service);

  // ---- System calls (single outstanding; asserts the VPE respects it) ----
  void Syscall(std::shared_ptr<SyscallMsg> msg, SyscallCb cb);

  void OpenSession(const std::string& name, SyscallCb cb);
  void Exchange(CapSel session, MsgRef payload, SyscallCb cb);
  void Obtain(VpeId peer, CapSel peer_sel, SyscallCb cb);
  void Delegate(CapSel sel, VpeId peer, SyscallCb cb);
  void Revoke(CapSel sel, SyscallCb cb);
  void Activate(CapSel sel, EpId ep, SyscallCb cb);
  void DeriveMem(CapSel sel, uint64_t offset, uint64_t size, uint32_t perms, SyscallCb cb);
  void RegisterService(const std::string& name, SyscallCb cb);

  // ---- Exchange-asks from the kernel ----
  // The handler must eventually invoke the reply functor exactly once.
  // Asks are serialized: the next ask is delivered only after the current
  // one was answered, so handlers may issue system calls in between. The
  // ask stays valid until it is answered (UserEnv keeps the message it is
  // serving), and the reply functor is just `this`.
  using AskHandler = Callback<void(const AskMsg&, AskReplyFn)>;
  void SetAskHandler(AskHandler handler) { ask_handler_ = std::move(handler); }

  // ---- Client -> service IPC (no kernel involved) ----
  // Sends on the session send gate (configured by the kernel at session
  // open). One outstanding request per client. The request carries this
  // program's trace ctx (SetTraceContext).
  void Request(std::shared_ptr<MsgBody> body, MessageCb cb);

  // Service side: handler for incoming client requests. The handler must
  // eventually call ReplyRequest(msg, ...) exactly once; requests and asks
  // are serialized through one work queue, and `msg` stays valid until
  // the reply.
  using RequestHandler = Callback<void(const Message&)>;
  void SetRequestHandler(RequestHandler handler) { request_handler_ = std::move(handler); }
  void ReplyRequest(const Message& msg, MsgRef body);

  // ---- Remote memory through an activated memory endpoint ----
  // `done` is built once, in its event slot.
  template <typename F>
  void ReadMem(EpId ep, uint64_t offset, uint64_t bytes, F&& done) {
    Status st = pe_->dtu().Read(ep, offset, bytes, std::forward<F>(done));
    CHECK(st.ok()) << "mem read failed: " << st.name();
  }
  template <typename F>
  void WriteMem(EpId ep, uint64_t offset, uint64_t bytes, F&& done) {
    Status st = pe_->dtu().Write(ep, offset, bytes, std::forward<F>(done));
    CHECK(st.ok()) << "mem write failed: " << st.name();
  }

  // Occupies this PE's core for `cost` cycles (compute phases).
  template <typename F>
  void Compute(Cycles cost, F&& then) {
    pe_->Compute(cost, std::forward<F>(then));
  }

  // ---- Observability (src/obs) ----
  // Joins subsequently issued syscalls and service requests to an enclosing
  // trace — a server handling a traced request sets the request's ctx here
  // so its calls nest under the serve span instead of opening fresh root
  // traces. trace == 0 restores per-call root minting (the default).
  void SetTraceContext(uint64_t trace, uint64_t parent) {
    ctx_trace_ = trace;
    ctx_parent_ = parent;
  }

  uint64_t syscalls_issued() const { return syscalls_issued_; }
  uint64_t syscall_retries() const { return syscall_retries_; }

  // Backoff before re-sending a syscall answered with kVpeMigrating. By the
  // time the retry goes out, the new kernel has usually retargeted this
  // PE's syscall endpoint, so the retry lands at the right kernel.
  static constexpr Cycles kMigrateRetryBackoff = 6000;

  // The crash watchdog the failover and chaos clients arm: 75 us of
  // silence, then a re-send, at most 32 times.
  static constexpr Cycles kCrashWatchdogTimeout = 150'000;
  static constexpr uint32_t kCrashWatchdogRetries = 32;

  // Opt-in crash watchdog (src/ft): if a syscall sees no reply for
  // `timeout` cycles — the kernel died with the call or its reply in
  // flight — the call is re-sent, up to `max_retries` times, after which it
  // completes with kUnreachable. Re-sends only fire after a full quiet
  // window (any reply, including the retryable kVpeMigrating, counts as
  // activity), so a merely slow kernel is never sent duplicates. The retry
  // starts flowing once a surviving kernel adopted this PE and reset its
  // syscall endpoint (which restores the consumed send credit). Disabled by
  // default: runs without failure injection behave bit-identically.
  void EnableSyscallRetry(Cycles timeout, uint32_t max_retries = kCrashWatchdogRetries);

 private:
  void OnSyscallReply(const Message& msg);
  void OnAsk(const Message& msg);
  void OnServiceReply(const Message& msg);
  void OnRequest(const Message& msg);
  void PumpWork();
  // Answers the ask being served (the AskReplyFn handed to the handler).
  void ReplyAsk(AskReply reply_value);
  void ArmSyscallWatchdog(uint64_t token);
  // Closes the open syscall round-trip span (no-op when untraced or no call
  // is open).
  void CloseSyscallSpan();

  ProcessingElement* pe_;
  NodeId kernel_node_;
  Cycles ask_cost_;

  // Observability: enclosing ctx (SetTraceContext) and the open syscall
  // round-trip kRequest span. The latter closes when the final reply lands
  // (or the crash watchdog gives up); migration and crash re-sends stay
  // inside the same span — they ARE the request's latency.
  uint64_t ctx_trace_ = 0;
  uint64_t ctx_parent_ = 0;
  obs::Span sys_span_;

  uint64_t next_token_ = 1;
  uint64_t syscalls_issued_ = 0;
  uint64_t syscall_retries_ = 0;
  bool syscall_pending_ = false;
  SyscallCb syscall_cb_;
  std::shared_ptr<SyscallMsg> syscall_msg_;  // kept for migration retries

  // Crash watchdog (EnableSyscallRetry); inactive while retry_timeout_ == 0.
  Cycles retry_timeout_ = 0;
  uint32_t retry_max_ = 0;
  uint32_t retry_count_ = 0;         // re-sends of the current call
  Cycles last_syscall_activity_ = 0; // last send or reply for the call
  // Set once a call exhausted its retry budget; later calls fail after one
  // quiet window instead of the full budget. Cleared by any reply.
  bool syscall_unreachable_ = false;

  bool request_pending_ = false;
  MessageCb request_cb_;

  AskHandler ask_handler_;
  RequestHandler request_handler_;

  // Serialized service work: asks and client requests, waiting in arrival
  // order, and the one being served (kept until it is answered).
  struct Work {
    Message msg;
    bool ask = false;
  };
  Ring<Work> work_;
  Message serving_;
  bool work_busy_ = false;
};

}  // namespace semperos

#endif  // SEMPEROS_CORE_USERLIB_H_
