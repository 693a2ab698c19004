// Experiment harness shared by the benchmarks and integration tests.
//
// Wraps the platform builder with the two experiment shapes of the paper's
// evaluation: parallel trace-replay runs (Figures 6-9, Table 4) and the
// closed-loop Nginx server benchmark (Figure 10).
#ifndef SEMPEROS_SYSTEM_EXPERIMENT_H_
#define SEMPEROS_SYSTEM_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/timing.h"
#include "fs/fs_image.h"
#include "system/platform.h"
#include "trace/replayer.h"
// Elasticity experiment (RunRebalance): cross-group capability traffic with
// mid-run PE migration. Re-exported here so harnesses have one entry point
// for every experiment shape.
#include "workloads/rebalance.h"
// Crash-recovery experiment (RunFailover): a kernel is killed mid-run and
// the survivors detect, take over, and repair (src/ft).
#include "workloads/failover.h"

namespace semperos {

// Image-region headroom per instance for files created during a run.
inline constexpr uint64_t kGrowthHeadroom = 32ull * 1024 * 1024;

// Installs one m3fs instance per service PE, each with its own image copy
// (paper §5.3.1: "each having its own copy of the filesystem image").
// Shared by the experiment shapes below and the open-loop traffic harness
// (src/traffic).
void AttachServices(Platform* platform, const FsImage& image, const TimingModel& timing,
                    uint64_t region_bytes);

struct AppRunConfig {
  std::string app = "tar";
  uint32_t kernels = 32;
  uint32_t services = 32;
  uint32_t instances = 512;
  RunSetup setup;
};

struct AppRunResult {
  uint32_t instances = 0;
  double mean_runtime_us = 0;
  double max_runtime_us = 0;
  Cycles makespan = 0;           // first start to last finish
  uint64_t total_cap_ops = 0;    // summed over instances
  double cap_ops_per_sec = 0;    // total cap ops / makespan
  uint64_t events = 0;           // run by RunToCompletion (boot excluded)
  // Core utilization over the makespan: how busy the OS was. The paper's
  // Figure 8 observation — kernels "are mostly handling capability
  // operations" and gate scalability — shows up here directly.
  double mean_kernel_utilization = 0;
  double max_kernel_utilization = 0;
  double mean_service_utilization = 0;
  RunOutcome outcome;
};

// Runs `instances` copies of the app's trace on a (kernels x services)
// system and reports per-instance runtimes and capability-operation rates.
AppRunResult RunApp(const AppRunConfig& config);

// Solo baseline: one instance on the same system configuration.
double SoloRuntimeUs(const std::string& app, uint32_t kernels, uint32_t services);

// T_solo / T_parallel (paper §5.3.1): 1.0 = perfect scaling.
inline double ParallelEfficiency(double solo_us, double parallel_mean_us) {
  return solo_us / parallel_mean_us;
}

// System efficiency (paper Figure 9): OS PEs count with zero efficiency, so
// the per-PE efficiency is scaled by the fraction of PEs running apps.
inline double SystemEfficiency(double parallel_eff, uint32_t instances, uint32_t kernels,
                               uint32_t services) {
  return parallel_eff * static_cast<double>(instances) /
         static_cast<double>(instances + kernels + services);
}

struct NginxRunConfig {
  uint32_t kernels = 32;
  uint32_t services = 32;
  uint32_t servers = 64;
  Cycles warmup = 600'000;    // boot + cache settle
  Cycles window = 2'000'000;  // measurement window (1 ms at 2 GHz)
  RunSetup setup;
};

struct NginxRunResult {
  uint32_t servers = 0;
  uint64_t completed = 0;        // responses inside the window
  double requests_per_sec = 0;   // aggregate across all servers
  RunOutcome outcome;
};

NginxRunResult RunNginx(const NginxRunConfig& config);

}  // namespace semperos

#endif  // SEMPEROS_SYSTEM_EXPERIMENT_H_
