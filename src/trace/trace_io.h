// Text serialization for traces.
//
// Lets users write their own workloads as plain files and replay them with
// the CLI (`semperos_sim trace --file=FILE`), mirroring how the paper's authors
// recorded Linux strace logs and replayed them on SemperOS. Format: one
// operation per line, '#' comments, blank lines ignored:
//
//     # open modes: r, w, rw; append "c" to create (wc, rwc)
//     open /data/in r
//     read /data/in 65536
//     seek /data/in 0
//     write /data/out 4096
//     close /data/in
//     stat /data/in
//     mkdir /data/dir
//     unlink /data/tmp
//     readdir /data
//     compute 10000          # cycles
#ifndef SEMPEROS_TRACE_TRACE_IO_H_
#define SEMPEROS_TRACE_TRACE_IO_H_

#include <cstdint>
#include <string>

#include "base/status.h"
#include "fs/fs_image.h"
#include "trace/trace.h"

namespace semperos {

// The bound on a trace's numbers (2^48 cycles or bytes): its running
// compute total, and its files' highest cursors summed over all files. The
// simulated clock keeps room for the rest of the run, and InferImage's
// cursor and extent arithmetic cannot wrap.
inline constexpr uint64_t kTraceTotalLimit = uint64_t{1} << 48;

// Parses the text format above. A line that is malformed, opens an open
// file, reads, writes, seeks or closes a file that is not open, or takes
// the compute total or a file cursor past kTraceTotalLimit is an error:
// returns its line number through `error_line` (1-based) and a non-ok
// status.
Status ParseTrace(const std::string& text, Trace* trace, size_t* error_line = nullptr);

// Renders a trace in the same text format (ParseTrace round-trips it), and
// one of its operations as one line without the newline.
std::string FormatTrace(const Trace& trace);
std::string FormatTraceOp(const Trace& trace, const TraceOp& op);

// Builds a filesystem image sufficient to replay `trace`: every directory
// mentioned is created, and every file that is read or stat'ed before being
// created gets pre-populated with enough bytes to cover the trace's reads.
FsImage InferImage(const Trace& trace);

}  // namespace semperos

#endif  // SEMPEROS_TRACE_TRACE_IO_H_
