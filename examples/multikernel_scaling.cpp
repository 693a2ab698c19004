// Multikernel scaling demo: the same workload on 1 vs 8 kernels.
//
// Runs 64 PostMark instances against m3fs twice — once with a single kernel
// managing every PE (the M3 situation the paper sets out to fix) and once
// with 8 kernels + 8 services — and reports the parallel efficiency of
// both, plus the per-kernel load spread.
//
// Build & run:   cmake --build build && ./build/examples/multikernel_scaling
#include <cstdio>

#include "system/experiment.h"
#include "workloads/workloads.h"

using namespace semperos;

namespace {

void RunConfig(uint32_t kernels, uint32_t services) {
  constexpr uint32_t kInstances = 64;
  double solo = SoloRuntimeUs("postmark", kernels, services);

  AppRunConfig config;
  config.app = "postmark";
  config.kernels = kernels;
  config.services = services;
  config.instances = kInstances;
  AppRunResult result = RunApp(config);

  double eff = ParallelEfficiency(solo, result.mean_runtime_us);
  std::printf("%u kernel(s), %u service(s), %u instances:\n", kernels, services, kInstances);
  std::printf("  solo runtime     : %8.1f us\n", solo);
  std::printf("  mean runtime     : %8.1f us\n", result.mean_runtime_us);
  std::printf("  max runtime      : %8.1f us\n", result.max_runtime_us);
  std::printf("  parallel eff.    : %8.1f %%\n", 100.0 * eff);
  std::printf("  capability ops   : %8llu (%.0f/s)\n",
              (unsigned long long)result.total_cap_ops, result.cap_ops_per_sec);
  std::printf("  IKC messages     : %8llu\n\n",
              (unsigned long long)result.outcome.kernel_stats.ikc_sent);
}

}  // namespace

int main() {
  std::printf("Distributing capability management across kernels\n");
  std::printf("==================================================\n\n");
  std::printf("\"Because there is only a single privileged kernel PE in M3 this kernel\n");
  std::printf(" PE quickly becomes the limiting factor when scaling to large systems.\"\n");
  std::printf("                                            — Hille et al., ATC'19, §2.2\n\n");

  RunConfig(1, 1);   // one kernel, one service: the single-kernel bottleneck
  RunConfig(8, 8);   // the SemperOS answer: distribute the OS

  std::printf("The single kernel serializes every capability operation of all 64\n");
  std::printf("instances; eight kernels split the system into PE groups that mostly\n");
  std::printf("operate independently and coordinate through inter-kernel calls only\n");
  std::printf("when capability trees span groups.\n");
  return 0;
}
