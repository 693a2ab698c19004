#include "workloads/registry.h"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "base/log.h"
#include "obs/metrics.h"
#include "system/platform.h"

namespace semperos {

std::string Fmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  int size = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  CHECK_GE(size, 0) << "bad format string: " << fmt;
  std::string text(static_cast<size_t>(size), '\0');
  std::vsnprintf(text.data(), text.size() + 1, fmt, again);
  va_end(again);
  return text;
}

namespace {

const char* ParamTypeName(ParamType type) {
  switch (type) {
    case ParamType::kU32:
    case ParamType::kU64:
      return "N";
    case ParamType::kF64:
      return "F";
    case ParamType::kBool:
      return "0|1";
    case ParamType::kString:
      return "S";
  }
  return "?";
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

bool ParseF64(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

bool ParseBool(const std::string& text, bool* out) {
  if (text == "1" || text == "true" || text == "yes" || text.empty()) {
    *out = true;  // bare "--flag" means on
    return true;
  }
  if (text == "0" || text == "false" || text == "no") {
    *out = false;
    return true;
  }
  return false;
}

// Checks `value` against a ParamSpec; returns "" or an error message.
std::string CheckValue(const ParamSpec& spec, const std::string& value) {
  if (!spec.choices.empty()) {
    for (const std::string& choice : spec.choices) {
      if (value == choice) {
        return "";
      }
    }
    std::string all;
    for (const std::string& choice : spec.choices) {
      all += all.empty() ? choice : "|" + choice;
    }
    return Fmt("--%s=%s: must be one of %s", spec.name.c_str(), value.c_str(), all.c_str());
  }
  uint64_t u = 0;
  double f = 0;
  bool b = false;
  switch (spec.type) {
    case ParamType::kU32:
      if (!ParseU64(value, &u) || u > UINT32_MAX) {
        return Fmt("--%s=%s: expected an unsigned integer", spec.name.c_str(), value.c_str());
      }
      return "";
    case ParamType::kU64:
      if (!ParseU64(value, &u)) {
        return Fmt("--%s=%s: expected an unsigned integer", spec.name.c_str(), value.c_str());
      }
      return "";
    case ParamType::kF64:
      if (!ParseF64(value, &f)) {
        return Fmt("--%s=%s: expected a number", spec.name.c_str(), value.c_str());
      }
      return "";
    case ParamType::kBool:
      if (!ParseBool(value, &b)) {
        return Fmt("--%s=%s: expected 0 or 1", spec.name.c_str(), value.c_str());
      }
      return "";
    case ParamType::kString:
      return "";
  }
  return "";
}

// The run-setup flags (RunSetup, system/platform.h). Register adds them to
// every spec with takes_run_setup; the catalogue lists them once.
const std::vector<ParamSpec>& RunSetupParams() {
  static const std::vector<ParamSpec>* params = new std::vector<ParamSpec>{
      {"trace-out", ParamType::kString, "", "print the span report, write spans as JSON", {}},
      {"metrics-out", ParamType::kString, "", "write kernel counters over time as JSON", {}},
      {"metrics-interval", ParamType::kU64, "0", "cycles per row, with --metrics-out", {}},
  };
  return *params;
}

// "--name=TYPE", or "--name=a|b" for a choice.
std::string FlagUsage(const ParamSpec& param) {
  std::string usage = Fmt("--%s=", param.name.c_str());
  if (param.choices.empty()) {
    return usage + ParamTypeName(param.type);
  }
  for (size_t i = 0; i < param.choices.size(); ++i) {
    usage += (i == 0 ? "" : "|") + param.choices[i];
  }
  return usage;
}

}  // namespace

const std::string& WorkloadParams::Str(const std::string& name) const {
  auto it = values_.find(name);
  CHECK(it != values_.end()) << "workload param '" << name << "' missing (schema bug)";
  return it->second;
}

uint32_t WorkloadParams::U32(const std::string& name) const {
  uint64_t v = U64(name);
  CHECK_LE(v, UINT32_MAX);
  return static_cast<uint32_t>(v);
}

uint64_t WorkloadParams::U64(const std::string& name) const {
  uint64_t v = 0;
  CHECK(ParseU64(Str(name), &v)) << "workload param '" << name << "' is not an integer";
  return v;
}

double WorkloadParams::F64(const std::string& name) const {
  double v = 0;
  CHECK(ParseF64(Str(name), &v)) << "workload param '" << name << "' is not a number";
  return v;
}

bool WorkloadParams::Bool(const std::string& name) const {
  bool v = false;
  CHECK(ParseBool(Str(name), &v)) << "workload param '" << name << "' is not a bool";
  return v;
}

double WorkloadResult::Value(const std::string& name) const {
  for (const WorkloadMetric& metric : metrics) {
    if (metric.name == name) {
      return metric.value;
    }
  }
  CHECK(false) << "workload metric '" << name << "' missing";
  return 0;
}

WorkloadRegistry& WorkloadRegistry::Global() {
  static WorkloadRegistry* registry = new WorkloadRegistry();
  return *registry;
}

void WorkloadRegistry::Register(WorkloadSpec spec) {
  CHECK(!spec.name.empty()) << "workload spec needs a name";
  CHECK(spec.run != nullptr) << "workload '" << spec.name << "' has no driver";
  CHECK(Find(spec.name) == nullptr) << "duplicate workload '" << spec.name << "'";
  if (spec.takes_run_setup) {
    spec.params.insert(spec.params.end(), RunSetupParams().begin(), RunSetupParams().end());
  }
  specs_.push_back(std::move(spec));
}

const WorkloadSpec* WorkloadRegistry::Find(const std::string& name) const {
  for (const WorkloadSpec& spec : specs_) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

namespace {

WorkloadInvocation Fail(std::string error, bool show_catalogue = false) {
  WorkloadInvocation invocation;
  invocation.ok = false;
  invocation.error = std::move(error);
  invocation.show_catalogue = show_catalogue;
  return invocation;
}

}  // namespace

WorkloadInvocation ParseWorkloadCli(const std::vector<std::string>& args) {
  const WorkloadRegistry& registry = WorkloadRegistry::Global();

  // Pass 1: resolve the workload selection from the positional names. Two
  // names naming different workloads is a hard error.
  std::vector<std::string> selections;
  std::vector<std::string> rest;
  bool list = false;
  for (const std::string& arg : args) {
    if (arg == "--list") {
      list = true;
    } else if (!arg.empty() && arg[0] != '-') {
      selections.push_back(arg);
    } else {
      rest.push_back(arg);
    }
  }

  for (size_t i = 1; i < selections.size(); ++i) {
    if (selections[i] != selections[0]) {
      return Fail(Fmt("conflicting workload selections: '%s' and '%s' — pick one",
                      selections[0].c_str(), selections[i].c_str()));
    }
  }

  WorkloadInvocation invocation;
  invocation.list = list;
  std::string name = selections.empty() ? "tar" : selections[0];
  invocation.spec = registry.Find(name);
  if (invocation.spec == nullptr) {
    return Fail(Fmt("unknown workload '%s'; available workloads:", name.c_str()),
                /*show_catalogue=*/true);
  }
  const WorkloadSpec& spec = *invocation.spec;

  // Merge schema defaults.
  for (const ParamSpec& param : spec.params) {
    invocation.params.Set(param.name, param.default_value);
  }

  // Pass 2: schema-validated flags.
  for (const std::string& arg : rest) {
    if (arg.rfind("--", 0) != 0) {
      return Fail(Fmt("unexpected argument '%s'", arg.c_str()));
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    std::string key = body.substr(0, eq == std::string::npos ? body.size() : eq);
    const ParamSpec* param = nullptr;
    for (const ParamSpec& candidate : spec.params) {
      if (candidate.name == key) {
        param = &candidate;
        break;
      }
    }
    if (param == nullptr) {
      return Fail(Fmt("workload '%s' does not take %s (see --list)", spec.name.c_str(),
                      arg.c_str()));
    }
    if (eq == std::string::npos && param->type != ParamType::kBool) {
      return Fail(Fmt("--%s needs a value (--%s=%s)", key.c_str(), key.c_str(),
                      ParamTypeName(param->type)));
    }
    std::string value = eq == std::string::npos ? "1" : body.substr(eq + 1);
    std::string error = CheckValue(*param, value);
    if (!error.empty()) {
      return Fail(std::move(error));
    }
    invocation.params.Set(key, value);
  }

  std::string error;
  if (spec.takes_run_setup && invocation.params.U64("metrics-interval") != 0 &&
      invocation.params.Str("metrics-out").empty()) {
    error = "--metrics-interval needs --metrics-out: the timeline is written nowhere else";
  } else if (!list && spec.validate) {
    error = spec.validate(invocation.params);
  }
  if (!error.empty()) {
    return Fail(std::move(error));
  }
  invocation.ok = true;
  return invocation;
}

std::string FormatWorkloadList() {
  std::ostringstream os;
  os << "workloads (select by name: semperos_sim <name> [--param=value ...]):\n";
  for (const WorkloadSpec& spec : WorkloadRegistry::Global().specs()) {
    os << Fmt("  %-10s %s%s\n", spec.name.c_str(), spec.open_loop ? "[open-loop] " : "",
              spec.summary.c_str());
    for (const std::string& line : spec.detail) {
      os << "             " << line << "\n";
    }
    // Register appended the run-setup flags; they are listed once, below.
    size_t own = spec.params.size() - (spec.takes_run_setup ? RunSetupParams().size() : 0);
    std::string flags;
    for (size_t i = 0; i < own; ++i) {
      flags += Fmt(" %s", FlagUsage(spec.params[i]).c_str());
    }
    if (!flags.empty()) {
      os << "            " << flags << "\n";
    }
  }
  os << "global flags (one-platform runs; observational only, modeled cycles never change):\n";
  for (const ParamSpec& param : RunSetupParams()) {
    os << Fmt("  %-22s %s\n", FlagUsage(param).c_str(), param.help.c_str());
  }
  return os.str();
}

std::string FormatKernelStats(const KernelStats& s) {
  // Registry-driven (obs/metrics.h): every KernelStats field — including the
  // per-IKC-op arrays — is emitted through one descriptor table, so a newly
  // added counter can never be silently missing from the dump. Counters that
  // never moved are elided to keep the output readable.
  std::ostringstream os;
  os << "kernel statistics (summed over kernels; gauges take the max):\n";
  obs::ForEachKernelMetric(s, [&os](const obs::MetricValue& m) {
    if (m.value == 0) {
      return;
    }
    os << Fmt("  %-28s %12llu%s\n", m.name, (unsigned long long)m.value,
              m.kind == obs::MetricKind::kGauge ? "  (gauge)" : "");
  });
  return os.str();
}

std::string FormatCriticalPath(const obs::CriticalPath& path) {
  std::string breakdown;
  for (size_t k = 0; k < static_cast<size_t>(obs::SpanKind::kNumKinds); ++k) {
    if (path.by_kind[k] == 0 || k == static_cast<size_t>(obs::SpanKind::kRequest)) {
      continue;
    }
    breakdown += Fmt(" %s=%llu", obs::SpanKindName(static_cast<obs::SpanKind>(k)),
                     (unsigned long long)path.by_kind[k]);
  }
  return breakdown + Fmt(" self=%llu", (unsigned long long)path.self);
}

std::string FormatTraceReport(const RunOutcome& outcome) {
  const obs::TraceReport& report = outcome.trace_report;
  std::ostringstream os;
  os << Fmt("trace: %llu spans (%llu dropped), fingerprint %016llx\n",
            (unsigned long long)outcome.spans_recorded, (unsigned long long)outcome.spans_dropped,
            (unsigned long long)outcome.trace_fingerprint);
  os << "  spans by kind (cycles summed per span; nested spans overlap):\n";
  for (size_t k = 0; k < static_cast<size_t>(obs::SpanKind::kNumKinds); ++k) {
    if (report.spans[k] != 0) {
      os << Fmt("    %-10s %10llu spans %16llu cycles\n",
                obs::SpanKindName(static_cast<obs::SpanKind>(k)),
                (unsigned long long)report.spans[k], (unsigned long long)report.cycles[k]);
    }
  }
  os << Fmt("  span-tree depth (%llu traces):", (unsigned long long)report.traces);
  for (size_t depth = 0; depth < report.depth_traces.size(); ++depth) {
    if (report.depth_traces[depth] != 0) {
      os << Fmt(" %zu:%llu", depth, (unsigned long long)report.depth_traces[depth]);
    }
  }
  os << Fmt("\n  disconnected trees: %llu\n", (unsigned long long)report.disconnected);
  os << "  slowest critical paths (cycles):\n";
  for (const obs::CriticalPath& path : report.slowest) {
    os << Fmt("    trace %llx total=%llu spans=%u depth=%u |",
              (unsigned long long)path.trace_id, (unsigned long long)path.total, path.spans,
              path.depth)
       << FormatCriticalPath(path) << "\n";
  }
  return os.str();
}

int RunWorkloadCli(const WorkloadInvocation& invocation) {
  CHECK(invocation.ok && invocation.spec != nullptr);
  WorkloadResult result = invocation.spec->run(invocation.params);

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const WorkloadMetric& metric : result.metrics) {
    if (metric.value == std::floor(metric.value) && std::fabs(metric.value) < 9e15) {
      std::printf("  %-18s: %14lld%s%s\n", metric.name.c_str(),
                  static_cast<long long>(metric.value), metric.unit.empty() ? "" : " ",
                  metric.unit.c_str());
    } else {
      std::printf("  %-18s: %14.3f%s%s\n", metric.name.c_str(), metric.value,
                  metric.unit.empty() ? "" : " ", metric.unit.c_str());
    }
  }
  const RunOutcome outcome = result.outcome.value_or(RunOutcome());
  if (outcome.traced()) {
    std::printf("%s", FormatTraceReport(outcome).c_str());
  }
  if (result.outcome) {
    std::printf("%s", FormatKernelStats(outcome.kernel_stats).c_str());
  }
  for (const std::string& error : outcome.write_errors) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
  return outcome.write_errors.empty() ? result.exit_code : 1;
}

}  // namespace semperos
