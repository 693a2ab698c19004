// Application workload generators (paper §5.3.1).
//
// The paper replays Linux system-call traces of seven applications. We
// generate equivalent deterministic traces whose *capability-operation
// counts match paper Table 4 exactly* (asserted in tests), and whose
// single-instance runtimes are calibrated (through kCompute phases standing
// for application work and non-filesystem system calls) to the runtimes
// implied by Table 4's single-instance cap-ops/s column.
//
// The catalogue below is the one place Table 4's counts and rates and the
// open-loop request shapes are written down; every runner, driver, bench
// and the CLI read them from it.
//
// Capability-operation arithmetic, with the 1 MiB m3fs extent size:
//   session open                = 1 obtain
//   file open                   = 1 obtain (extent-0 capability)
//   every further extent        = 1 obtain
//   close                       = 1 revoke per handed extent capability
//   unlink of an open file      = revokes immediately (journal pattern)
//   file still open at trace end: its capabilities are torn down with the
//   VPE, outside the measured trace (matches the odd counts in Table 4).
//
// Workload narratives follow §5.3.1: tar/untar pack/unpack a 4 MiB archive
// of five files between 128 and 2048 KiB; find scans a directory tree with
// 80 entries for a non-existent file; SQLite and LevelDB create a table,
// insert 8 entries and select them back; PostMark performs many small
// mail-file operations; Nginx serves requests replayed from a trace.
#ifndef SEMPEROS_WORKLOADS_WORKLOADS_H_
#define SEMPEROS_WORKLOADS_WORKLOADS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fs/fs_image.h"
#include "trace/trace.h"

namespace semperos {

// ---- The catalogue ----

// One trace-replay application of Figure 6 / Table 4, with Table 4's
// capability operations and operations per second for one instance and for
// 512 instances on 64 kernels + 64 services (paper §5.3.1).
struct AppWorkload {
  const char* name;
  uint32_t cap_ops;  // one instance must trigger exactly these
  uint32_t cap_ops_per_sec;
  uint32_t cap_ops_512;
  uint32_t cap_ops_per_sec_512;
  // The operations of `instance`, below its own /i<N> prefix.
  Trace (*build)(uint32_t instance);
  // The files and directories one instance reads below `prefix`.
  void (*populate)(FsImage* image, const std::string& prefix);
};

// One open-loop request shape of src/traffic: what a server does per request.
struct RequestShape {
  const char* name;
  Trace (*build)(uint32_t server);
  void (*populate)(FsImage* image, uint32_t servers);
  // Image bytes one request may add; image space is never reclaimed.
  uint64_t growth_per_request;
};

std::span<const AppWorkload> AppWorkloads();
std::span<const RequestShape> RequestShapes();

// ---- Lookups in the catalogue; each CHECK-fails on a name it does not list ----

const RequestShape& FindRequestShape(const std::string& name);

// The names of AppWorkloads(), in catalogue order.
const std::vector<std::string>& WorkloadNames();

// Capability operations one instance must trigger (paper Table 4).
uint32_t ExpectedCapOps(const std::string& app);

// Single-instance runtime implied by Table 4 (cap ops / cap ops-per-second),
// in microseconds. Used to calibrate the traces and verified in tests.
double PaperSoloRuntimeUs(const std::string& app);

// Builds the trace for `instance` (instances use disjoint /i<N> namespaces),
// stamped with the app's name and Table 4 count.
Trace MakeTrace(const std::string& app, uint32_t instance);

// Adds the files/directories that `instances` instances of `app` need.
void PopulateImage(FsImage* image, const std::string& app, uint32_t instances);

// --- Nginx (paper §5.3.3) ---

// Filesystem content served by the webservers.
void PopulateNginxImage(FsImage* image);

// Per-request handler operations (stat + open + read + close + compute).
Trace MakeNginxRequestTrace();

// --- Open-loop traffic request shapes (src/traffic) ---

// One mail transaction for the open-loop PostMark traffic shape: deliver a
// message (create + write + close), read one back, expunge the delivery.
// Unlike MakeNginxRequestTrace this mutates the image, so every server
// instance works in its own /mbox/s<N> directory.
Trace MakePostmarkRequestTrace(uint32_t instance);

// Adds the per-server mailbox directories the postmark request trace needs.
void PopulatePostmarkRequestImage(FsImage* image, uint32_t servers);

}  // namespace semperos

#endif  // SEMPEROS_WORKLOADS_WORKLOADS_H_
