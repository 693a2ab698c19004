// Trace replayer: the application program running on a user PE.
//
// Replays one Trace against m3fs: opens a session, performs the trace
// operations in order (a VPE is single-threaded, paper §2.2), counts the
// capability-modifying operations it causes, and reports its runtime — the
// quantity behind the parallel-efficiency figures (paper §5.3.1).
#ifndef SEMPEROS_TRACE_REPLAYER_H_
#define SEMPEROS_TRACE_REPLAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/timing.h"
#include "core/userlib.h"
#include "fs/protocol.h"
#include "pe/pe.h"
#include "trace/trace.h"

namespace semperos {

class TraceReplayer : public Program {
 public:
  struct Result {
    bool done = false;
    Cycles start = 0;
    Cycles end = 0;
    uint32_t cap_ops = 0;   // session open + exchanges + revokes caused
    uint64_t syscalls = 0;  // total syscalls issued (incl. activates)
    Cycles runtime() const { return end - start; }
  };

  TraceReplayer(Trace trace, NodeId kernel_node, const TimingModel& timing,
                std::string service_name = "m3fs");

  void Setup() override;
  void Start() override;

  const Result& result() const { return result_; }
  UserEnv& env() { return *env_; }

 private:
  // The replayer runs one trace op at a time, so the op in progress lives
  // in members and continuations capture only `this`. Files are flat:
  // closed records stay in files_ for reuse.
  struct OpenFile {
    std::string path;
    bool in_use = false;
    uint64_t fid = 0;
    uint32_t flags = 0;
    CapSel extent_sel = kInvalidSel;
    EpId mem_ep = 0;
    uint64_t extent_start = 0;
    uint64_t extent_len = 0;
    uint64_t cursor = 0;
    uint32_t handed = 0;  // extent capabilities obtained for this file
  };

  EpId AllocMemEp();
  void FreeMemEp(EpId ep);
  // The open file named `path`, or nullptr.
  OpenFile* FindFile(const std::string& path);
  void NextOp();
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
  NodeId kernel_node_;
  TimingModel t_;
  std::string service_name_;

  std::unique_ptr<UserEnv> env_;
  CapSel session_sel_ = kInvalidSel;
  std::vector<OpenFile> files_;
  // The I/O in progress: index into files_, direction, bytes left.
  size_t io_file_ = 0;
  bool io_write_ = false;
  uint64_t io_remaining_ = 0;
  size_t op_index_ = 0;
  uint8_t mem_eps_in_use_ = 0;  // bitmap over the 8 memory endpoints
  Result result_;
};

}  // namespace semperos

#endif  // SEMPEROS_TRACE_REPLAYER_H_
