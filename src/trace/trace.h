// System-call trace format.
//
// The paper's performance metric replays Linux system-call traces on
// SemperOS, "waiting for the time it took to execute them on Linux" for
// calls the OS does not implement, while executing all filesystem-relevant
// calls for real (paper §5.3.1). A Trace is the same idea: a sequence of
// filesystem operations interleaved with kCompute phases that stand for the
// application's own work plus its non-filesystem system calls.
//
// A benchmark holds one trace per application instance (4,096 at the
// largest scale point), so an operation is 16 bytes: the path it names is
// an index into the trace's own path table, which stores each distinct
// path once, and the byte count, offset or cycle count shares one field.
#ifndef SEMPEROS_TRACE_TRACE_H_
#define SEMPEROS_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.h"

namespace semperos {

enum class TraceOpKind : uint8_t {
  kOpen,     // open/create a file; a capability exchange
  kRead,     // sequential read of bytes() from the cursor
  kWrite,    // sequential write of bytes() at the cursor
  kSeek,     // reposition the cursor to offset()
  kClose,    // close; the service revokes the handed capabilities
  kStat,     // meta
  kMkdir,    // meta
  kUnlink,   // meta (revokes if the file is open)
  kReadDir,  // meta
  kCompute,  // local computation for compute() cycles
};

struct TraceOp {
  TraceOpKind kind = TraceOpKind::kCompute;
  uint16_t flags = 0;  // kOpen: kOpenRead | kOpenWrite | kOpenCreate
  uint32_t path = 0;   // every kind but kCompute: index into Trace::paths
  uint64_t arg = 0;    // kRead/kWrite: bytes; kSeek: offset; kCompute: cycles

  uint64_t bytes() const { return arg; }
  uint64_t offset() const { return arg; }
  Cycles compute() const { return arg; }

  static TraceOp Compute(Cycles cycles);
};
static_assert(sizeof(TraceOp) == 16);

// The distinct paths of one trace, each stored once and named by index.
//
// Up to kScanPaths distinct paths, Intern scans their hashes: the built-in
// traces name at most 83 per instance (find), so they keep no index. Past
// that, an open-addressed index of path numbers takes over, and interning
// a trace of N distinct paths (a parsed trace file) stays linear in N.
class TracePaths {
 public:
  // The index of `path`, added if new.
  uint32_t Intern(std::string_view path);
  std::string_view operator[](uint32_t index) const;
  size_t size() const { return refs_.size(); }
  void clear();
  // Releases the capacity that interning left beyond the paths held.
  void ShrinkToFit();

 private:
  static constexpr size_t kScanPaths = 128;

  bool Matches(uint32_t index, std::string_view path, uint32_t hash) const {
    return refs_[index].hash == hash && (*this)[index] == path;
  }
  // Puts path `index` into index_, which has a free slot for it.
  void Place(uint32_t index);

  struct Ref {
    uint32_t end;   // path bytes: bytes_[previous end, end)
    uint32_t hash;  // compared before the bytes
  };
  std::string bytes_;
  std::vector<Ref> refs_;
  // Power-of-two slots of path index + 1 (0: empty), at most half full;
  // empty while the trace holds kScanPaths distinct paths or fewer.
  std::vector<uint32_t> index_;
};

struct Trace {
  std::string app;
  std::vector<TraceOp> ops;
  TracePaths paths;
  // Capability-modifying operations this trace must trigger (session open +
  // exchanges + revocations); asserted against replayer counts in tests and
  // reported in the Table 4 bench.
  uint32_t expected_cap_ops = 0;

  // Append one operation each.
  void Open(std::string_view path, uint32_t flags);
  void Read(std::string_view path, uint64_t bytes);
  void Write(std::string_view path, uint64_t bytes);
  void Seek(std::string_view path, uint64_t offset);
  void Close(std::string_view path);
  void Stat(std::string_view path);
  void Mkdir(std::string_view path);
  void Unlink(std::string_view path);
  void ReadDir(std::string_view path);
  void Compute(Cycles cycles) { ops.push_back(TraceOp::Compute(cycles)); }

  // The path `op` names.
  std::string_view Path(const TraceOp& op) const { return paths[op.path]; }

  // Releases the capacity that building left in the op vector and the path
  // table: a trace is built once and then only read.
  void ShrinkToFit();

 private:
  void AddPathOp(TraceOpKind kind, std::string_view path, uint64_t arg, uint32_t flags = 0);
};

}  // namespace semperos

#endif  // SEMPEROS_TRACE_TRACE_H_
