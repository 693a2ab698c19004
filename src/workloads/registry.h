// Workload registry: one front door for every experiment the simulator can
// run.
//
// Before this interface existed, tools/semperos_sim.cpp hand-rolled a
// ~20-branch flag chain and each experiment family (RunApp / RunNginx /
// RunFailover / RunStorm / ...) grew its own ad-hoc CLI wiring; adding a
// workload meant touching the parser, the usage text and the --list
// catalogue by hand, and nothing stopped two contradictory selections from
// silently running only one.
//
// A WorkloadSpec describes one workload: its name, a one-line summary for
// the catalogue, a typed parameter schema (defaults, help, enum choices),
// optional semantic validation, and a driver returning a structured
// WorkloadResult (human-readable notes + named numeric metrics + kernel
// counters). The CLI (ParseWorkloadCli/RunWorkloadCli) and the --list
// catalogue (FormatWorkloadList) consume the same registry. The bench
// binaries call the runners directly and borrow only WorkloadResult, which
// bench::Report turns into benchmark counters.
//
// Workloads are selected by positional name (`semperos_sim traffic
// --rate=...`). Selecting two different workloads in one invocation is an
// error.
//
// Every driver that runs one platform maps the global flags onto one
// RunSetup (system/platform.h) and hands back that run's RunOutcome, so the
// trace and timeline files, the span report and the kernel counters work
// the same way for every such workload.
#ifndef SEMPEROS_WORKLOADS_REGISTRY_H_
#define SEMPEROS_WORKLOADS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "system/platform.h"

namespace semperos {

enum class ParamType : uint8_t { kU32, kU64, kF64, kBool, kString };

struct ParamSpec {
  std::string name;           // CLI flag name, without the leading "--"
  ParamType type = ParamType::kString;
  std::string default_value;  // textual; merged into WorkloadParams
  std::string help;
  std::vector<std::string> choices;  // non-empty: value must be one of these
};

// Validated key/value parameters handed to a workload driver. The parser
// merges schema defaults first, so typed getters always find their key.
class WorkloadParams {
 public:
  void Set(const std::string& name, const std::string& value) { values_[name] = value; }
  const std::string& Str(const std::string& name) const;
  uint32_t U32(const std::string& name) const;
  uint64_t U64(const std::string& name) const;
  double F64(const std::string& name) const;
  bool Bool(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

struct WorkloadMetric {
  std::string name;
  double value = 0;
  std::string unit;  // "" for counts/ratios
};

// Structured outcome of one workload run: what the CLI prints and what the
// bench binaries turn into benchmark counters.
struct WorkloadResult {
  int exit_code = 0;
  std::vector<std::string> notes;       // human-readable summary lines
  std::vector<WorkloadMetric> metrics;  // named numeric results, in order
  // The platform run's outcome; empty for drivers that run several
  // platforms (micro, a chaos sweep, a saturation search).
  std::optional<RunOutcome> outcome;

  void Note(std::string line) { notes.push_back(std::move(line)); }
  void Add(std::string name, double value, std::string unit = "") {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Named metric value; CHECK-fails when absent (drivers own their schema).
  double Value(const std::string& name) const;
};

struct WorkloadSpec {
  std::string name;     // positional selector, e.g. "traffic", "tar"
  std::string summary;  // one-liner for the --list catalogue
  std::vector<std::string> detail;  // extra catalogue lines (optional)
  bool open_loop = false;           // driver discipline, shown in --list
  // Whether the run-setup flags (--trace-out, --metrics-out,
  // --metrics-interval) apply: Register appends their shared ParamSpecs to
  // `params`. micro builds its own fixed platforms and rejects them.
  bool takes_run_setup = true;
  std::vector<ParamSpec> params;
  // Optional semantic validation (ranges, cross-field constraints); returns
  // "" to accept or an error message to reject with exit code 2.
  std::function<std::string(const WorkloadParams&)> validate;
  std::function<WorkloadResult(const WorkloadParams&)> run;
};

class WorkloadRegistry {
 public:
  static WorkloadRegistry& Global();

  void Register(WorkloadSpec spec);  // CHECK-fails on duplicate names
  const WorkloadSpec* Find(const std::string& name) const;
  const std::vector<WorkloadSpec>& specs() const { return specs_; }

 private:
  std::vector<WorkloadSpec> specs_;
};

// Registers every built-in workload with the global registry (idempotent).
// Call before parsing or looking anything up.
void RegisterBuiltinWorkloads();

// The storm a parsed `chaos` invocation runs (chaos/storm.h).
struct StormConfig;
StormConfig ChaosStormConfig(const WorkloadParams& params);
// The storm a chaos corpus line names: the line is the argument list of
// `semperos_sim chaos`. False, with the parse error, if it does not parse.
bool ParseChaosLine(const std::string& line, StormConfig* config, std::string* error);

// ---- CLI front end ----

struct WorkloadInvocation {
  bool ok = false;
  std::string error;          // set when !ok
  bool show_catalogue = false;  // error should be followed by the catalogue
  bool list = false;            // --list given: print the catalogue, exit 0
  const WorkloadSpec* spec = nullptr;
  WorkloadParams params;        // defaults merged, flag overrides applied
};

// Parses argv[1..]: resolves the selected workload by positional name,
// rejects conflicting selections, merges schema defaults and validates
// every remaining flag against the schema.
WorkloadInvocation ParseWorkloadCli(const std::vector<std::string>& args);

// The --list catalogue, generated from the registry.
std::string FormatWorkloadList();

// Shared result formatting (CLI + tools).
std::string Fmt(const char* fmt, ...);
std::string FormatKernelStats(const KernelStats& s);
// " kind=cycles ... self=cycles" over the kinds a path spends time in.
std::string FormatCriticalPath(const obs::CriticalPath& path);
// The span line (count, drops, fingerprint) and the trace report: spans
// and cycles per kind, the tree-depth histogram, disconnected trees and
// the slowest critical paths.
std::string FormatTraceReport(const RunOutcome& outcome);

// Runs a parsed invocation end to end, printing notes, metrics and
// statistics. Returns the process exit code.
int RunWorkloadCli(const WorkloadInvocation& invocation);

}  // namespace semperos

#endif  // SEMPEROS_WORKLOADS_REGISTRY_H_
