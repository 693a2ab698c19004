// Platform builder: lays out the simulated machine and boots SemperOS.
//
// The evaluation platform (paper §5.1) is a mesh of up to 640 PEs. A
// Platform instance owns the simulation, the NoC, every PE, and the kernels.
// PEs are divided into groups (paper §3.1): each group contains one kernel
// PE plus the user/service/load-generator PEs it manages. Groups are laid
// out contiguously in row-major mesh order, so intra-group traffic stays
// local, and the membership table (DDL) is replicated into every kernel.
//
// Boot protocol:
//   1. kernels start: configure endpoints, exchange HELLOs (IKC group 1);
//   2. user programs run Setup() to configure their endpoints (this models
//      the kernel installing the standard endpoints at VPE creation);
//   3. kernels downgrade all non-kernel DTUs (NoC-level isolation);
//   4. services start: register with their kernel, which announces them to
//      all other kernels (IKC group 2);
//   5. applications start.
#ifndef SEMPEROS_SYSTEM_PLATFORM_H_
#define SEMPEROS_SYSTEM_PLATFORM_H_

#include <memory>
#include <string>
#include <vector>

#include "base/types.h"
#include "core/kernel.h"
#include "core/timing.h"
#include "dtu/dtu.h"
#include "noc/noc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pe/pe.h"
#include "sim/engine.h"
#include "sim/simulation.h"

namespace semperos {

// Resolves the tracing knob: an explicitly enabled TraceConfig always wins;
// otherwise SEMPEROS_TRACE=1 in the environment turns tracing on (the CI
// proof that gated benchmarks are bit-identical with the flight recorder
// armed — no binary rebuild, no flag plumbing through google-benchmark).
obs::TraceConfig ResolveTraceConfig(obs::TraceConfig requested);

struct PlatformConfig {
  uint32_t kernels = 1;
  uint32_t services = 0;
  uint32_t users = 0;
  uint32_t loadgens = 0;
  uint32_t mem_tiles = 1;
  TimingModel timing = TimingModel::SemperOs();
  uint32_t max_inflight = 4;     // M_inflight (paper §5.1)
  bool revoke_batching = false;  // extension: batch REVOKE_REQs per peer
  bool noc_contention = true;    // NoC per-link queueing (NocConfig::model_contention)
  // Engine threads: 1 (the default) runs the serial engine, >= 2 the
  // sharded parallel engine (sim/engine.h), whose shard partition depends
  // only on the platform shape, so modeled results equal the serial
  // engine's at any count. This field is the engine's only way in. Only
  // perfbench/driver.cpp's --threads diagnostic, the engine's tests
  // (tests/parallel_equivalence_test.cpp among them) and bench_simcore's
  // thread sweep set it; it goes with the engine after the benchmark PR
  // drops the driver's flag (ROADMAP, "The benchmark PR, then delete the
  // sharded parallel engine").
  uint32_t threads = 1;
  // Observability (src/obs): span tracing is off by default (the disabled
  // cost is one pointer test per traced site); SEMPEROS_TRACE=1 flips any
  // platform whose config left it off. The metrics timeline samples every
  // kernel counter each `timeline.interval` simulated cycles (0 = disarmed;
  // serial engine only). Both are observational only: the executed event
  // stream, the final clock and all modeled results are bit-identical with
  // them on or off.
  obs::TraceConfig trace;
  obs::TimelineConfig timeline;
};

// Every experiment runner (RunApp, RunNginx, RunTraffic, RunFailover,
// RunRebalance, RunStorm, the CLI's trace driver) builds one Platform per
// run. What they share goes in through one RunSetup, embedded in each run
// config as `setup`, and comes out through one RunOutcome, embedded in each
// result as `outcome`. Runner-specific numbers — `events` among them, whose
// meaning differs per runner — stay in the result itself.

// Timeline sampling interval when a metrics file is asked for without one.
inline constexpr Cycles kDefaultTimelineInterval = 100'000;

struct RunSetup {
  // PlatformConfig::threads. Set only by the engine's tests and
  // bench_simcore's thread sweep; goes with the engine (see there).
  uint32_t threads = 1;
  obs::TraceConfig trace;
  obs::TimelineConfig timeline;
  std::string trace_out;    // Chrome trace_event JSON ("" = none)
  std::string metrics_out;  // metrics timeline JSON ("" = none)

  // The only code that copies a setup into a PlatformConfig, and the only
  // code that decides what an output path implies: a trace path turns
  // tracing on, a metrics path without an interval samples every
  // kDefaultTimelineInterval cycles.
  void ApplyTo(PlatformConfig* pc) const;
};

class Platform;

struct RunOutcome {
  KernelStats kernel_stats;  // summed over kernels
  NocStats noc;
  // Tracing (zero when off). The fingerprint is order-insensitive over the
  // canonical merge: bit-identical across reruns and thread counts.
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;
  uint64_t trace_fingerprint = 0;
  obs::TraceReport trace_report;
  std::string write_error;  // names the file that could not be written

  bool traced() const { return spans_recorded + spans_dropped > 0; }

  // The only code that reads an outcome off a finished platform, and the
  // only code that writes the trace and timeline files `setup` names (the
  // recorders die with the platform).
  void Harvest(Platform* platform, const RunSetup& setup);
};

class Platform {
 public:
  explicit Platform(PlatformConfig config);
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  SimHost& sim() { return sim_; }
  Noc& noc() { return *noc_; }

  // True when the sharded parallel engine drives this platform. This and
  // engine_stats() are read by perfbench/driver.cpp's --threads diagnostic
  // and the engine's tests; they go with the engine after the benchmark PR
  // (ROADMAP, "The benchmark PR, then delete the sharded parallel engine").
  bool parallel() const { return sim_.parallel(); }
  // Engine observability counters (windows, handoffs, imbalance); CHECKs
  // on a serial platform.
  const EngineStats& engine_stats() {
    CHECK(sim_.parallel()) << "engine_stats() needs PlatformConfig::threads >= 2";
    return sim_.engine()->stats();
  }

  uint32_t kernel_count() const { return config_.kernels; }
  Kernel* kernel(KernelId id) { return kernels_.at(id); }
  NodeId kernel_node(KernelId id) const { return kernel_nodes_.at(id); }
  // Kernel that manages `node`.
  Kernel* kernel_of(NodeId node) { return kernels_.at(membership_.KernelOf(node)); }

  ProcessingElement* pe(NodeId node) { return pes_.at(node).get(); }
  uint32_t pe_count() const { return static_cast<uint32_t>(pes_.size()); }

  const std::vector<NodeId>& user_nodes() const { return user_nodes_; }
  const std::vector<NodeId>& service_nodes() const { return service_nodes_; }
  const std::vector<NodeId>& loadgen_nodes() const { return loadgen_nodes_; }
  const std::vector<NodeId>& mem_nodes() const { return mem_nodes_; }
  const MembershipTable& membership() const { return membership_; }

  // Boots kernels and (if attached) services; then starts user programs.
  // Runs the simulation until every boot stage settled.
  void Boot();

  // Driver API for dynamic PE-group membership: migrates `pe` (its VPE and
  // capability partition) from its current kernel to `dst_kernel`. `done`
  // fires once the new membership epoch settled on every kernel; on success
  // the platform's own membership copy is updated first, so kernel_of()
  // reflects the move. Requires a booted platform and a running simulation
  // (call before RunToCompletion, or from a scheduled event).
  void MigratePe(NodeId pe, KernelId dst_kernel, std::function<void(ErrCode)> done = nullptr);

  // --- Fault tolerance (src/ft) ---

  // Schedules a deterministic simulated crash of `victim` at absolute cycle
  // `when` (clamped to strictly after now). The victim's node goes dark at
  // the interconnect: deliveries are swallowed, nothing leaves. Detection
  // and recovery only happen if the failure detector is armed
  // (StartFailureDetector) with a monitoring window covering the kill.
  // Requires a booted platform.
  void KillKernelAt(KernelId victim, Cycles when);

  // Arms the failure detector on every (live) kernel: heartbeats flow every
  // `ft.heartbeat_period` cycles from now until `ft.monitor_until`. When a
  // quorum of all configured kernels agrees a kernel died, the survivors
  // re-partition its DDL range; the platform mirrors the decreed
  // reassignments into its own membership copy, so kernel_of() follows.
  void StartFailureDetector(FtConfig ft);

  // True once a quorum verdict retired `kernel` (its partitions have been
  // taken over by the survivors).
  bool KernelFailed(KernelId kernel) const { return failed_kernels_.at(kernel) != 0; }

  // --- Audit hooks (src/audit) ---

  // True if `kernel` crashed (whether or not a quorum retired it).
  bool KernelDead(KernelId kernel) const { return kernels_.at(kernel)->dead(); }

  // Runs the simulation until no events remain and checks hardware
  // invariants (no dropped messages anywhere). Returns events executed.
  // A fixed window is sim().RunUntil; the timeline, when armed, samples
  // either without moving the clock.
  uint64_t RunToCompletion(uint64_t max_events = 2'000'000'000ull);

  // Sums a kernel statistic across kernels.
  KernelStats TotalKernelStats() const;

  // Total messages dropped by any DTU (must stay 0; the kernels'
  // flow-control protocol guarantees it).
  uint64_t TotalDrops() const;

  // --- Observability (src/obs) ---

  // The shared flight recorder, attached to every PE and the DTU fabric at
  // construction. Null when tracing is disabled (and not env-forced).
  obs::Tracer* tracer() { return tracer_.get(); }
  // The counter timeline: a row per interval boundary the serial clock
  // passed (the queue's tick, sim/simulation.h), and one at the end that
  // RunOutcome::Harvest appends. Null when disarmed.
  obs::MetricsTimeline* timeline() { return timeline_.get(); }

 private:
  // Queue owning node `n`'s events: the legacy queue, or its shard's.
  Simulation* SimForNode(NodeId node);

  // Declared first, so destroyed last: once the members below released
  // their message bodies (the PEs, the kernels, the closures still queued
  // in sim_), frees what they parked in this thread's NewMsg pools, so a
  // process that runs platforms one after another holds none in between.
  struct TrimPoolsLast {
    ~TrimPoolsLast();
  };
  TrimPoolsLast trim_pools_last_;
  PlatformConfig config_;
  SimHost sim_;
  std::vector<uint32_t> shard_of_node_;  // empty on the legacy path
  std::unique_ptr<Noc> noc_;
  std::unique_ptr<DtuFabric> fabric_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MetricsTimeline> timeline_;
  std::vector<std::unique_ptr<ProcessingElement>> pes_;
  std::vector<Kernel*> kernels_;  // owned by their PEs
  std::vector<NodeId> kernel_nodes_;
  std::vector<NodeId> user_nodes_;
  std::vector<NodeId> service_nodes_;
  std::vector<NodeId> loadgen_nodes_;
  std::vector<NodeId> mem_nodes_;
  MembershipTable membership_;
  // node -> tile type, shared with every kernel (adoption, kernel channels)
  std::shared_ptr<const std::vector<PeType>> pe_types_;
  std::vector<uint8_t> failed_kernels_;  // quorum-retired kernels
  bool booted_ = false;
};

}  // namespace semperos

#endif  // SEMPEROS_SYSTEM_PLATFORM_H_
