// Built-in workload drivers: one WorkloadSpec per experiment the simulator
// can run, registered with the global WorkloadRegistry. This file is the
// only place that knows how to map CLI parameters onto the experiment
// configs (AppRunConfig, NginxRunConfig, FailoverConfig, RebalanceConfig,
// StormConfig, TrafficConfig) and how to fold the experiment results into
// the structured WorkloadResult the CLI consumes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <string>

#include "chaos/storm.h"
#include "system/client.h"
#include "system/experiment.h"
#include "trace/replayer.h"
#include "trace/trace_io.h"
#include "traffic/traffic.h"
#include "workloads/registry.h"
#include "workloads/workloads.h"

namespace semperos {

namespace {

// Parameter specs shared by the platform-shaped workloads.
ParamSpec Kernels(const char* def) {
  return {"kernels", ParamType::kU32, def, "kernel PEs", {}};
}
ParamSpec Services(const char* def) {
  return {"services", ParamType::kU32, def, "m3fs service PEs", {}};
}

// Range checks shared by the platform-shaped schemas: --kernels within
// [min_kernels, Kernel::kMaxKernels] and every named count >= 1. Returns ""
// to accept.
std::string CheckShape(const WorkloadParams& p, uint32_t min_kernels,
                       std::initializer_list<const char*> counts) {
  uint32_t kernels = p.U32("kernels");
  if (kernels < min_kernels || kernels > Kernel::kMaxKernels) {
    return Fmt("--kernels=%u: must be within %u..%u", kernels, min_kernels, Kernel::kMaxKernels);
  }
  for (const char* name : counts) {
    if (p.U64(name) == 0) {
      return Fmt("--%s must be >= 1", name);
    }
  }
  return "";
}

// A driver that runs many platforms has no single run to record. (The
// parser already refused --metrics-interval without --metrics-out.)
std::string CheckNoOutputs(const WorkloadParams& p, const char* what) {
  bool outputs = !p.Str("trace-out").empty() || !p.Str("metrics-out").empty();
  return outputs ? Fmt("%s runs many platforms: --trace-out, --metrics-out and "
                       "--metrics-interval need a single run", what)
                 : "";
}

// The global flags, mapped onto the run setup. RunSetup::ApplyTo decides
// what they imply (an output path turns its recorder on).
RunSetup RunSetupFrom(const WorkloadParams& p) {
  RunSetup setup;
  setup.trace_out = p.Str("trace-out");
  setup.metrics_out = p.Str("metrics-out");
  setup.timeline.interval = p.U64("metrics-interval");
  return setup;
}

// ---- trace-replay apps (Figures 6-9, Table 4) ----

WorkloadResult RunAppDriver(const std::string& app, const WorkloadParams& p) {
  AppRunConfig config;
  config.app = app;
  config.kernels = p.U32("kernels");
  config.services = p.U32("services");
  config.instances = p.U32("instances");
  config.setup = RunSetupFrom(p);
  double solo = SoloRuntimeUs(app, config.kernels, config.services);
  AppRunResult r = RunApp(config);

  WorkloadResult out;
  out.Note(Fmt("%s: %u instances on %u kernels + %u services (SemperOS)", app.c_str(),
               config.instances, config.kernels, config.services));
  double parallel_eff = ParallelEfficiency(solo, r.mean_runtime_us);
  out.Add("solo_runtime", solo, "us");
  out.Add("mean_runtime", r.mean_runtime_us, "us");
  out.Add("max_runtime", r.max_runtime_us, "us");
  out.Add("parallel_eff", 100.0 * parallel_eff, "%");
  out.Add("system_eff",
          100.0 * SystemEfficiency(parallel_eff, config.instances, config.kernels,
                                   config.services),
          "%");
  out.Add("cap_ops", static_cast<double>(r.total_cap_ops));
  out.Add("cap_ops_per_sec", r.cap_ops_per_sec, "/s");
  out.Add("makespan", static_cast<double>(r.makespan), "cycles");
  out.Add("events", static_cast<double>(r.events));
  out.outcome = r.outcome;
  return out;
}

void RegisterApps() {
  for (const AppWorkload& workload : AppWorkloads()) {
    std::string app = workload.name;
    WorkloadSpec spec;
    spec.name = app;
    spec.summary = Fmt("trace-replay app, %u cap ops per instance (Figures 6-9, Table 4)",
                       workload.cap_ops);
    spec.params = {Kernels("8"), Services("8"),
                   {"instances", ParamType::kU32, "64", "parallel app instances", {}}};
    spec.validate = [](const WorkloadParams& p) {
      return CheckShape(p, 1, {"services", "instances"});
    };
    spec.run = [app](const WorkloadParams& p) { return RunAppDriver(app, p); };
    WorkloadRegistry::Global().Register(std::move(spec));
  }
}

// ---- nginx: closed-loop webserver benchmark (Figure 10) ----

void RegisterNginx() {
  WorkloadSpec spec;
  spec.name = "nginx";
  spec.summary = "closed-loop webserver benchmark (Figure 10)";
  spec.params = {Kernels("8"), Services("8"),
                 {"servers", ParamType::kU32, "32", "webserver PEs (one loadgen each)", {}}};
  spec.validate = [](const WorkloadParams& p) {
    return CheckShape(p, 1, {"services", "servers"});
  };
  spec.run = [](const WorkloadParams& p) {
    NginxRunConfig config;
    config.kernels = p.U32("kernels");
    config.services = p.U32("services");
    config.servers = p.U32("servers");
    config.setup = RunSetupFrom(p);
    NginxRunResult r = RunNginx(config);
    WorkloadResult out;
    out.Note(Fmt("nginx: %u servers, %u kernels, %u services", config.servers, config.kernels,
                 config.services));
    out.Add("completed", static_cast<double>(r.completed));
    out.Add("requests_per_sec", r.requests_per_sec, "/s");
    out.outcome = r.outcome;
    return out;
  };
  WorkloadRegistry::Global().Register(std::move(spec));
}

// ---- micro: single-operation latencies (Table 3) ----

void RegisterMicro() {
  WorkloadSpec spec;
  spec.name = "micro";
  spec.summary = "single-operation latencies (Table 3)";
  spec.takes_run_setup = false;
  spec.run = [](const WorkloadParams&) {
    WorkloadResult out;
    out.Note("capability operation latencies (cycles @ 2 GHz)");
    for (KernelMode mode : {KernelMode::kSemperOSMulti, KernelMode::kM3SingleKernel}) {
      for (uint32_t kernels : {1u, 2u}) {
        if (mode == KernelMode::kM3SingleKernel && kernels == 2) {
          continue;
        }
        ObtainRevokeTimes t = MeasureObtainRevoke(kernels, mode);
        const char* sys = mode == KernelMode::kM3SingleKernel ? "M3" : "SemperOS";
        const char* scope = kernels == 1 ? "local" : "spanning";
        out.Note(Fmt("  %-9s %-9s exchange=%llu revoke=%llu", sys, scope,
                     (unsigned long long)t.exchange, (unsigned long long)t.revoke));
      }
    }
    return out;
  };
  WorkloadRegistry::Global().Register(std::move(spec));
}

// ---- failover: crash-recovery workload (src/ft) ----

void RegisterFailover() {
  WorkloadSpec spec;
  spec.name = "failover";
  spec.summary = "crash-recovery workload (src/ft): kill a kernel mid-run";
  spec.detail = {"survivors detect (heartbeats + quorum), re-partition the dead DDL",
                 "range, revoke orphaned subtrees and adopt the PEs;",
                 "tune with --fail-kernel=<id>@<us>"};
  spec.params = {Kernels("8"),
                 {"instances", ParamType::kU32, "64", "clients (split across kernels)", {}},
                 {"fail-kernel", ParamType::kString, "1", "victim kernel: <id>[@<us>]", {}}};
  spec.validate = [](const WorkloadParams& p) -> std::string {
    if (std::string error = CheckShape(p, 2, {}); !error.empty()) {
      return error;
    }
    uint32_t kernels = p.U32("kernels");
    const std::string& fk = p.Str("fail-kernel");
    size_t at = fk.find('@');
    char* end = nullptr;
    unsigned long id = std::strtoul(fk.c_str(), &end, 10);
    size_t id_len = end - fk.c_str();
    if (id_len == 0 || id_len != (at == std::string::npos ? fk.size() : at)) {
      return Fmt("--fail-kernel=%s: expected <id> or <id>@<us>", fk.c_str());
    }
    if (at != std::string::npos && std::strtod(fk.c_str() + at + 1, &end) < 0) {
      return Fmt("--fail-kernel=%s: bad kill time", fk.c_str());
    }
    if (id >= kernels) {
      return Fmt("--fail-kernel=%lu out of range (%u kernels)", id, kernels);
    }
    return "";
  };
  spec.run = [](const WorkloadParams& p) {
    FailoverConfig config;
    config.kernels = p.U32("kernels");
    config.users_per_kernel = std::max(1u, p.U32("instances") / std::max(1u, config.kernels));
    config.setup = RunSetupFrom(p);
    const std::string& fk = p.Str("fail-kernel");
    size_t at = fk.find('@');
    config.victim = static_cast<KernelId>(std::stoul(fk.substr(0, at)));
    double fail_at_us = at == std::string::npos ? 0.0 : std::stod(fk.substr(at + 1));
    // Pick the kill time: seeding serializes roughly 30k cycles per orphan
    // capability at the victim kernel, for every seeder in the neighbouring
    // group, and must finish before the kill. A user-pinned time below that
    // floor is raised (with a note) instead of CHECK-aborting mid-seed.
    Cycles seed_safe =
        400'000 + static_cast<Cycles>(config.users_per_kernel) * config.orphan_caps * 30'000;
    config.kill_at = fail_at_us > 0 ? MicrosToCycles(fail_at_us) : seed_safe;
    if (config.kill_at < seed_safe) {
      std::fprintf(stderr,
                   "note: raising kill time to %.0f us so the orphan-seeding phase fits\n",
                   CyclesToMicros(seed_safe));
      config.kill_at = seed_safe;
    }
    FailoverResult r = RunFailover(config);
    WorkloadResult out;
    out.Note(Fmt("failover: %u kernels x %u clients, kernel %u killed at %.0f us",
                 config.kernels, config.users_per_kernel, config.victim,
                 CyclesToMicros(r.kill_time)));
    out.Note(Fmt("  recovered         : %10s%s", r.recovered ? "yes" : "NO",
                 r.refused ? " (refused: no quorum)" : ""));
    if (r.recovered) {
      out.Add("detect_latency", CyclesToMicros(r.detect_latency), "us");
      out.Add("recover_latency", CyclesToMicros(r.recover_latency), "us");
      out.Add("membership_epoch", static_cast<double>(r.survivor_epoch));
      out.Add("throughput_dip",
              r.ops_per_sec_before > 0
                  ? 100.0 * (1.0 - r.ops_per_sec_during / r.ops_per_sec_before)
                  : 0.0,
              "%");
    }
    out.Add("recovered", r.recovered ? 1 : 0);
    out.Add("total_ops", static_cast<double>(r.total_ops));
    out.Add("failed_ops", static_cast<double>(r.failed_ops));
    out.Add("adopted_ops", static_cast<double>(r.adopted_ops));
    out.Add("orphans_revoked", static_cast<double>(r.orphan_roots));
    out.Add("eps_invalidated", static_cast<double>(r.eps_invalidated));
    out.Add("edges_pruned", static_cast<double>(r.edges_pruned));
    out.Add("pes_adopted", static_cast<double>(r.pes_adopted));
    out.Add("ikcs_aborted", static_cast<double>(r.ikcs_aborted));
    out.Add("client_retries", static_cast<double>(r.client_retries));
    out.Add("makespan", static_cast<double>(r.makespan), "cycles");
    out.Add("events", static_cast<double>(r.events));
    out.Add("noc_latency", static_cast<double>(r.outcome.noc.total_latency), "cycles");
    out.Add("noc_queueing", static_cast<double>(r.outcome.noc.total_queueing), "cycles");
    out.outcome = r.outcome;
    return out;
  };
  WorkloadRegistry::Global().Register(std::move(spec));
}

// ---- rebalance: elasticity workload (previously library-only) ----

void RegisterRebalance() {
  WorkloadSpec spec;
  spec.name = "rebalance";
  spec.summary = "elasticity workload: drain hot PEs to another kernel mid-run";
  spec.params = {Kernels("4"),
                 {"users", ParamType::kU32, "4", "clients per kernel", {}},
                 {"ops", ParamType::kU32, "30", "obtain+revoke pairs per client", {}},
                 {"migrate-pes", ParamType::kU32, "2", "hot PEs drained from kernel 0", {}},
                 {"migrate-at", ParamType::kU64, "300000", "migration start, cycles", {}},
                 {"migrate", ParamType::kBool, "1", "0: baseline run, no migration", {}}};
  spec.validate = [](const WorkloadParams& p) -> std::string {
    if (std::string error = CheckShape(p, 2, {"users"}); !error.empty()) {
      return error;
    }
    if (p.U32("migrate-pes") > p.U32("users")) {
      return Fmt("--migrate-pes=%u: kernel 0 has only %u clients (--users)", p.U32("migrate-pes"),
                 p.U32("users"));
    }
    return "";
  };
  spec.run = [](const WorkloadParams& p) {
    RebalanceConfig config;
    config.kernels = p.U32("kernels");
    config.users_per_kernel = p.U32("users");
    config.ops_per_client = p.U32("ops");
    config.migrate = p.Bool("migrate");
    config.migrate_pes = p.U32("migrate-pes");
    config.migrate_at = p.U64("migrate-at");
    config.setup = RunSetupFrom(p);
    RebalanceResult r = RunRebalance(config);
    WorkloadResult out;
    out.Note(Fmt("rebalance: %u kernels x %u clients, %u PEs migrated at %llu cycles",
                 config.kernels, config.users_per_kernel,
                 config.migrate ? config.migrate_pes : 0,
                 (unsigned long long)config.migrate_at));
    out.Add("total_ops", static_cast<double>(r.total_ops));
    out.Add("ops_per_sec", r.ops_per_sec, "/s");
    out.Add("migrations_done", static_cast<double>(r.migrations_completed));
    out.Add("migration_latency", static_cast<double>(r.migration_latency_max), "cycles");
    out.Add("forwarded_ikcs", static_cast<double>(r.forwarded_ikcs));
    out.Add("frozen_syscalls", static_cast<double>(r.frozen_syscalls));
    out.Add("client_retries", static_cast<double>(r.client_retries));
    out.Add("caps_migrated", static_cast<double>(r.caps_migrated));
    out.Add("leaked_caps", static_cast<double>(r.leaked_caps));
    out.Add("makespan", static_cast<double>(r.makespan), "cycles");
    out.Add("events", static_cast<double>(r.events));
    out.outcome = r.outcome;
    return out;
  };
  WorkloadRegistry::Global().Register(std::move(spec));
}

// ---- trace: replay a user-supplied trace file ----

void RegisterTrace() {
  WorkloadSpec spec;
  spec.name = "trace";
  spec.summary = "replay a custom trace file (--file=PATH)";
  spec.detail = {"one op per line (open/read/write/seek/close/stat/mkdir/unlink/",
                 "readdir/compute), '#' comments; see src/trace/trace_io.h"};
  spec.params = {Kernels("8"), Services("8"),
                 {"file", ParamType::kString, "", "trace file path", {}}};
  spec.validate = [](const WorkloadParams& p) -> std::string {
    if (p.Str("file").empty()) {
      return "trace: --file=PATH is required";
    }
    return CheckShape(p, 1, {"services"});
  };
  spec.run = [](const WorkloadParams& p) {
    WorkloadResult out;
    const std::string& path = p.Str("file");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      out.exit_code = 1;
      return out;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Trace trace;
    size_t error_line = 0;
    if (!ParseTrace(buffer.str(), &trace, &error_line).ok()) {
      std::fprintf(stderr, "%s:%zu: invalid trace line\n", path.c_str(), error_line);
      out.exit_code = 1;
      return out;
    }
    trace.app = path;
    FsImage image = InferImage(trace);

    RunSetup setup = RunSetupFrom(p);
    PlatformConfig pc;
    pc.kernels = p.U32("kernels");
    pc.services = p.U32("services");
    pc.users = 1;
    setup.ApplyTo(&pc);
    Platform platform(pc);
    // The region holds the inferred image plus 64 GiB for the files the
    // trace writes.
    AttachServices(&platform, image, pc.timing, image.bytes_used() + (1ull << 36));
    NodeId user = platform.user_nodes()[0];
    auto replayer = std::make_unique<TraceReplayer>(
        trace, platform.kernel_node(platform.membership().KernelOf(user)), pc.timing);
    TraceReplayer* app = replayer.get();
    platform.pe(user)->AttachProgram(std::move(replayer));
    platform.Boot();
    platform.RunToCompletion();

    out.outcome.emplace().Harvest(&platform, setup);
    const TraceReplayer::Result& result = app->result();
    if (!result.done) {
      // The replay stopped at the m3fs session open or at the first
      // operation m3fs or the kernel refused.
      if (!result.session) {
        std::fprintf(stderr, "%s: m3fs session refused: %s\n", path.c_str(),
                     ErrName(result.error));
      } else {
        std::fprintf(stderr, "%s: operation %zu (%s) refused: %s\n", path.c_str(),
                     result.failed_op + 1,
                     FormatTraceOp(trace, trace.ops[result.failed_op]).c_str(),
                     ErrName(result.error));
      }
      out.exit_code = 1;
      return out;
    }
    out.Note(Fmt("trace %s: %zu operations", path.c_str(), trace.ops.size()));
    out.Add("runtime", CyclesToMicros(result.runtime()), "us");
    out.Add("cap_ops", result.cap_ops);
    out.Add("syscalls", static_cast<double>(result.syscalls));
    return out;
  };
  WorkloadRegistry::Global().Register(std::move(spec));
}

// ---- chaos: seeded storm + global invariant audit (src/chaos) ----

// Prints a failing storm's audit and its one-command repro, shrunk first
// when --shrink is given.
void ReportFailedStorm(const StormConfig& config, const StormResult& r, bool shrink) {
  std::printf("%s\n", r.audit.ToString().c_str());
  StormConfig repro = config;
  if (shrink) {
    uint32_t attempts = 0;
    repro = ShrinkStorm(config, &attempts);
    std::printf("shrunk after %u runs\n", attempts);
  }
  std::printf("repro: %s\n", ReproCommand(repro).c_str());
}

int RunChaosSweep(const StormConfig& base, uint32_t seeds, bool shrink) {
  uint32_t failures = 0;
  for (uint32_t s = 0; s < seeds; ++s) {
    StormConfig config = base;
    config.seed = base.seed + s;
    StormResult r = RunStorm(config);
    if (!r.ok) {
      failures++;
      std::printf("seed %llu FAILED: %s\n", (unsigned long long)config.seed,
                  r.Summary().c_str());
      ReportFailedStorm(config, r, shrink);
    } else if ((s + 1) % 10 == 0 || s + 1 == seeds) {
      std::printf("sweep %u/%u seeds clean (last: %s)\n", s + 1 - failures, s + 1,
                  r.Summary().c_str());
    }
  }
  std::printf("chaos sweep: %u/%u seeds clean (%s, seeds %llu..%llu)\n", seeds - failures,
              seeds, StormWorkloadName(base.workload), (unsigned long long)base.seed,
              (unsigned long long)(base.seed + seeds - 1));
  return failures > 0 ? 1 : 0;
}

void RegisterChaos() {
  WorkloadSpec spec;
  spec.name = "chaos";
  spec.summary = "seeded chaos storm + global invariant audit (src/chaos)";
  spec.detail = {"randomized kernel kills, live migrations, client churn and heartbeat",
                 "perturbation over a running workload; the global invariant auditor",
                 "(src/audit) checks the platform after every settle round.",
                 "--shrink reduces a failing storm to a one-command repro;",
                 "--sweep=N replays N consecutive seeds (docs/testing.md)"};
  StormConfig defaults;
  spec.params = {
      {"seed", ParamType::kU64, std::to_string(defaults.seed), "storm RNG seed", {}},
      Kernels(std::to_string(defaults.kernels).c_str()),
      {"users", ParamType::kU32, std::to_string(defaults.users_per_kernel),
       "clients per kernel", {}},
      {"rounds", ParamType::kU32, std::to_string(defaults.rounds), "storm rounds", {}},
      {"settle", ParamType::kU32, std::to_string(defaults.settle_every),
       "settle + audit cadence, rounds", {}},
      {"workload", ParamType::kString, "mixed", "workload under the storm",
       {"mixed", "nginx", "postmark"}},
      {"kills", ParamType::kU32, std::to_string(defaults.max_kills), "max kernel kills", {}},
      {"migrations", ParamType::kU32, std::to_string(defaults.max_migrations),
       "max live migrations", {}},
      {"churn", ParamType::kU32, std::to_string(defaults.max_churn), "max client kills", {}},
      {"hb-perturb", ParamType::kBool, "1", "draw detector timing per burst", {}},
      {"mig-revoke", ParamType::kBool, "0", "force migration during a revoke", {}},
      {"double-kill", ParamType::kBool, "0", "break quorum: recovery must refuse", {}},
      {"inject-bug", ParamType::kBool, "0", "skip orphan revoke (auditor must catch)", {}},
      {"shrink", ParamType::kBool, "0", "shrink a failing storm to a minimal repro", {}},
      {"sweep", ParamType::kU32, "0", "run this many consecutive seeds", {}}};
  spec.validate = [](const WorkloadParams& p) -> std::string {
    if (std::string error = CheckShape(p, 2, {"users", "rounds", "settle"}); !error.empty()) {
      return error;
    }
    if (p.Bool("double-kill") && p.U32("kernels") < 3) {
      return "--double-kill needs at least 3 kernels (two die, one must refuse)";
    }
    return p.U32("sweep") > 0 ? CheckNoOutputs(p, "chaos --sweep") : "";
  };
  spec.run = [](const WorkloadParams& p) {
    StormConfig config = ChaosStormConfig(p);
    uint32_t sweep = p.U32("sweep");
    bool shrink = p.Bool("shrink");
    // Storms print as they go (a sweep or a shrink can run for minutes);
    // the registry result carries the exit status and one storm's outcome.
    WorkloadResult out;
    if (sweep > 0) {
      out.exit_code = RunChaosSweep(config, sweep, shrink);
      return out;
    }
    StormResult r = RunStorm(config);
    std::printf("%s\n", r.Summary().c_str());
    if (r.ok) {
      std::printf("%s\n", r.audit.ToString().c_str());
    } else {
      ReportFailedStorm(config, r, shrink);
      out.exit_code = 1;
    }
    out.outcome = r.outcome;
    return out;
  };
  WorkloadRegistry::Global().Register(std::move(spec));
}

// ---- traffic: open-loop million-user harness (src/traffic) ----

TrafficConfig TrafficConfigFrom(const WorkloadParams& p) {
  TrafficConfig config;
  config.request = p.Str("request");
  config.kernels = p.U32("kernels");
  config.services = p.U32("services");
  config.servers = p.U32("servers");
  ParseArrivalProcess(p.Str("process"), &config.arrivals.process);
  config.arrivals.rate_rps = p.F64("rate");
  config.warmup = p.U64("warmup");
  config.requests = p.U64("requests");
  config.cooldown = p.U64("cooldown");
  config.seed = p.U64("seed");
  config.pipeline = p.U32("pipeline");
  config.setup = RunSetupFrom(p);
  return config;
}

// One line per retained tail exemplar: the total-by-construction critical
// path decomposition (queueing vs transit vs kernel service vs IKC wait ...)
// of that request's span tree.
void NoteExemplars(WorkloadResult* out, const std::vector<TrafficResult::Exemplar>& exemplars) {
  for (const TrafficResult::Exemplar& e : exemplars) {
    out->Note(Fmt("  exemplar %-4s %10.1f us  trace %llx: %u spans, depth %u, cycles%s",
                  e.bucket.c_str(), CyclesToMicros(e.latency),
                  (unsigned long long)e.path.trace_id, e.path.spans, e.path.depth,
                  FormatCriticalPath(e.path).c_str()));
  }
}

void RegisterTraffic() {
  WorkloadSpec spec;
  spec.name = "traffic";
  spec.summary = "open-loop traffic harness: seeded arrivals, latency percentiles";
  spec.detail = {"injects requests on the simulated clock independent of completions",
                 "(no coordinated omission); --saturate searches for the highest",
                 "offered rate the system sustains within the p99 SLA"};
  spec.open_loop = true;
  std::vector<std::string> requests;
  for (const RequestShape& shape : RequestShapes()) {
    requests.push_back(shape.name);
  }
  spec.params = {
      {"request", ParamType::kString, "nginx", "per-request server work", requests},
      Kernels("8"), Services("8"),
      {"servers", ParamType::kU32, "16", "server PEs (one generator each)", {}},
      {"process", ParamType::kString, "poisson", "arrival process",
       {"poisson", "bursty", "diurnal"}},
      {"rate", ParamType::kF64, "100000", "aggregate offered load, req/s", {}},
      {"warmup", ParamType::kU64, "2000", "arrivals injected before the window", {}},
      {"requests", ParamType::kU64, "20000", "measured arrivals", {}},
      {"cooldown", ParamType::kU64, "0", "arrivals injected after the window", {}},
      {"seed", ParamType::kU64, "1", "arrival-schedule seed", {}},
      {"pipeline", ParamType::kU32, "8", "per-generator transport credits", {}},
      {"saturate", ParamType::kBool, "0", "search for the saturation throughput", {}},
      {"sla-p99-us", ParamType::kF64, "500", "saturation: p99 SLA, microseconds", {}}};
  spec.validate = [](const WorkloadParams& p) -> std::string {
    if (p.F64("rate") <= 0) {
      return "--rate must be positive";
    }
    if (std::string error = CheckShape(p, 1, {"services", "servers", "requests", "pipeline"});
        !error.empty()) {
      return error;
    }
    return p.Bool("saturate") ? CheckNoOutputs(p, "traffic --saturate") : "";
  };
  spec.run = [](const WorkloadParams& p) {
    WorkloadResult out;
    if (p.Bool("saturate")) {
      SaturationConfig config;
      config.traffic = TrafficConfigFrom(p);
      config.sla_p99_us = p.F64("sla-p99-us");
      SaturationResult r = FindSaturation(config);
      out.Note(Fmt("traffic saturation search: %s/%s, SLA p99 <= %.0f us",
                   config.traffic.request.c_str(),
                   ArrivalProcessName(config.traffic.arrivals.process), config.sla_p99_us));
      for (const SaturationProbe& probe : r.probes) {
        out.Note(Fmt("  offered %12.0f req/s -> %12.0f req/s, p99 %8.1f us  %s",
                     probe.offered_rps, probe.throughput_rps, probe.p99_us,
                     probe.sustained ? "sustained" : "SATURATED"));
      }
      out.Add("saturation_rps", r.saturation_rps, "/s");
      out.Add("probes", static_cast<double>(r.probes.size()));
      return out;
    }
    TrafficConfig config = TrafficConfigFrom(p);
    TrafficResult r = RunTraffic(config);
    out.Note(Fmt("traffic: %s over %s arrivals, %u servers on %u kernels + %u services",
                 config.request.c_str(), ArrivalProcessName(config.arrivals.process),
                 config.servers, config.kernels, config.services));
    out.Note(Fmt("  latency fingerprint: %016llx",
                 (unsigned long long)r.latency.Fingerprint()));
    NoteExemplars(&out, r.exemplars);
    out.Add("injected", static_cast<double>(r.injected));
    out.Add("completed", static_cast<double>(r.completed));
    out.Add("measured", static_cast<double>(r.measured));
    out.Add("offered_rps", r.offered_rps, "/s");
    out.Add("throughput_rps", r.throughput_rps, "/s");
    out.Add("p50", r.p50_us, "us");
    out.Add("p99", r.p99_us, "us");
    out.Add("p999", r.p999_us, "us");
    out.Add("mean", r.mean_us, "us");
    out.Add("max", r.max_us, "us");
    out.Add("makespan", static_cast<double>(r.makespan), "cycles");
    out.Add("events", static_cast<double>(r.events));
    out.outcome = r.outcome;
    return out;
  };
  WorkloadRegistry::Global().Register(std::move(spec));
}

}  // namespace

StormConfig ChaosStormConfig(const WorkloadParams& p) {
  StormConfig config;
  config.seed = p.U64("seed");
  config.kernels = p.U32("kernels");
  config.users_per_kernel = p.U32("users");
  config.rounds = p.U32("rounds");
  config.settle_every = p.U32("settle");
  const std::string& w = p.Str("workload");
  config.workload = w == "nginx"      ? StormWorkload::kNginx
                    : w == "postmark" ? StormWorkload::kPostmark
                                      : StormWorkload::kMixed;
  config.max_kills = p.U32("kills");
  config.max_migrations = p.U32("migrations");
  config.max_churn = p.U32("churn");
  config.perturb_heartbeats = p.Bool("hb-perturb");
  config.force_migration_during_revoke = p.Bool("mig-revoke");
  config.force_double_kill = p.Bool("double-kill");
  config.bug_skip_orphan_revoke = p.Bool("inject-bug");
  config.setup = RunSetupFrom(p);
  return config;
}

bool ParseChaosLine(const std::string& line, StormConfig* config, std::string* error) {
  std::istringstream tokens(line);
  std::vector<std::string> args = {"chaos"};
  args.insert(args.end(), std::istream_iterator<std::string>(tokens), {});
  RegisterBuiltinWorkloads();
  WorkloadInvocation invocation = ParseWorkloadCli(args);
  *error = invocation.error;
  if (invocation.ok) {
    *config = ChaosStormConfig(invocation.params);
  }
  return invocation.ok;
}

void RegisterBuiltinWorkloads() {
  static bool registered = false;
  if (registered) {
    return;
  }
  registered = true;
  RegisterApps();
  RegisterNginx();
  RegisterMicro();
  RegisterFailover();
  RegisterRebalance();
  RegisterTrace();
  RegisterChaos();
  RegisterTraffic();
}

}  // namespace semperos
