// The m3fs trace client: the one program behind every application and
// request-server PE.
//
// TraceRunner replays one Trace against m3fs over one session: it performs
// the trace operations in order (a VPE is single-threaded, paper §2.2),
// counts the capability-modifying operations they cause and then fires a
// completion. TraceReplayer is an application: it opens a session, runs its
// trace once and reports its runtime — the quantity behind the
// parallel-efficiency figures (paper §5.3.1). The Nginx server
// (workloads/nginx.h) runs its request trace once per request (§5.3.3).
#ifndef SEMPEROS_TRACE_REPLAYER_H_
#define SEMPEROS_TRACE_REPLAYER_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/timing.h"
#include "core/userlib.h"
#include "fs/protocol.h"
#include "pe/pe.h"
#include "trace/trace.h"

namespace semperos {

class TraceRunner {
 public:
  using DoneFn = Callback<void()>;

  // Keeps `trace` trimmed to fit: one runner per application instance
  // holds its trace for the whole run.
  explicit TraceRunner(Trace trace) : trace_(std::move(trace)) { trace_.ShrinkToFit(); }

  // Runs the trace from its first operation over the m3fs session `session`
  // of `env`, then fires `done`. The run stops at the first operation that
  // is refused — by m3fs, by the kernel, or because the trace asks what the
  // client cannot do (I/O on a file it did not open, a ninth open file) —
  // and error() says why.
  void Run(UserEnv* env, CapSel session, DoneFn done);

  const Trace& trace() const { return trace_; }
  // Capability-modifying operations the last run caused: extent obtains
  // plus the capabilities m3fs revoked on close and unlink.
  uint32_t cap_ops() const { return cap_ops_; }
  // kOk, or why the operation at index failed_op() was refused.
  ErrCode error() const { return error_; }
  size_t failed_op() const { return op_index_ - 1; }

 private:
  // One trace op runs at a time, so the op in progress lives in members and
  // continuations capture only `this`. Files are flat: closed records stay
  // in files_ for reuse.
  struct OpenFile {
    uint32_t path = 0;  // index into trace_.paths
    bool in_use = false;
    uint64_t fid = 0;
    uint32_t flags = 0;
    CapSel extent_sel = kInvalidSel;
    EpId mem_ep = 0;
    uint64_t extent_start = 0;
    uint64_t extent_len = 0;  // 0: no usable extent (unlinked while open)
    uint64_t cursor = 0;
  };

  // The open file named by path index `path`, or nullptr.
  OpenFile* FindFile(uint32_t path);
  void NextOp();
  // Ends the run with `err`.
  void Finish(ErrCode err);
  // Ends the run if `err` is not kOk; returns whether it did.
  bool Refused(ErrCode err);
  // The m3fs answer in `body`, or null after ending the run with
  // kInvalidArgs: a service PE is untrusted, and a body that is not an
  // FsReply is refused like any other bad answer.
  const FsReply* FsAnswer(const MsgRef& body);
  void DoOpen(const TraceOp& op);
  void DoIo(const TraceOp& op, bool write);
  // Moves the I/O in progress (io_*) forward by one chunk.
  void IoChunk();
  // Obtains and activates the extent of the I/O file covering `offset`,
  // then continues the I/O.
  void FetchExtent(uint64_t offset);
  void DoClose(const TraceOp& op);
  void DoMeta(const TraceOp& op, FsOp fs_op);

  Trace trace_;
  UserEnv* env_ = nullptr;
  CapSel session_ = kInvalidSel;
  DoneFn done_;
  std::vector<OpenFile> files_;
  // The I/O in progress: index into files_, direction, bytes left.
  size_t io_file_ = 0;
  bool io_write_ = false;
  uint64_t io_remaining_ = 0;
  size_t op_index_ = 0;
  uint32_t cap_ops_ = 0;
  ErrCode error_ = ErrCode::kOk;
  uint8_t mem_eps_in_use_ = 0;  // bitmap over the 8 memory endpoints
};

class TraceReplayer : public Program {
 public:
  struct Result {
    bool done = false;
    Cycles start = 0;
    Cycles end = 0;
    uint32_t cap_ops = 0;   // session open + exchanges + revokes caused
    uint64_t syscalls = 0;  // total syscalls issued (incl. activates)
    // A refused m3fs session or operation ends the run early (done stays
    // false) with the error. Without a session no trace op ran; otherwise
    // failed_op is the refused operation's index in the trace.
    bool session = false;
    ErrCode error = ErrCode::kOk;
    size_t failed_op = 0;
    Cycles runtime() const { return end - start; }
  };

  TraceReplayer(Trace trace, NodeId kernel_node, const TimingModel& timing);

  void Setup() override;
  void Start() override;

  const Result& result() const { return result_; }

 private:
  void Finish();

  TraceRunner runner_;
  NodeId kernel_node_;
  Cycles ask_cost_;
  std::unique_ptr<UserEnv> env_;
  Result result_;
};

}  // namespace semperos

#endif  // SEMPEROS_TRACE_REPLAYER_H_
