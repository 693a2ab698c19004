// Table 4: number of capability operations for the selected applications,
// for one instance and for 512 instances on 64 kernels and 64 filesystem
// services. The paper's columns come from the workload catalogue
// (src/workloads/workloads.cpp) and print next to the measured ones.
//
// "The capability operations per second are the average rate of capability
// operations over the runtime. ... The capability operations per second for
// 512 benchmark instances are retrieved when employing 64 kernels and 64
// filesystem services." (paper §5.3.1)
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "system/experiment.h"
#include "workloads/workloads.h"

namespace semperos {
namespace {

void PrintTable() {
  bench::Header("Table 4: Capability operations of the selected applications",
                "Hille et al., SemperOS (ATC'19), Table 4");
  uint32_t many = bench::FastMode() ? 128 : 512;
  uint32_t kernels = bench::FastMode() ? 16 : 64;
  std::printf("%-10s | %8s %10s | %9s %12s | paper(1 / 512 inst)\n", "Benchmark", "ops(1)",
              "ops/s(1)", "ops(n)", "ops/s(n)");
  for (const AppWorkload& row : AppWorkloads()) {
    AppRunConfig solo_config;
    solo_config.app = row.name;
    solo_config.kernels = 1;
    solo_config.services = 1;
    solo_config.instances = 1;
    AppRunResult solo = RunApp(solo_config);

    AppRunConfig many_config;
    many_config.app = row.name;
    many_config.kernels = kernels;
    many_config.services = kernels;
    many_config.instances = many;
    AppRunResult parallel = RunApp(many_config);

    std::printf("%-10s | %8llu %10.0f | %9llu %12.0f | (%u @ %u/s ; %u @ %u/s)\n", row.name,
                (unsigned long long)solo.total_cap_ops, solo.cap_ops_per_sec,
                (unsigned long long)parallel.total_cap_ops, parallel.cap_ops_per_sec, row.cap_ops,
                row.cap_ops_per_sec, row.cap_ops_512, row.cap_ops_per_sec_512);
  }
  std::printf("\n  n = %u instances on %u kernels + %u services\n", many, kernels, kernels);
  bench::Footnote(
      "per-instance op counts and single-instance rates match the paper exactly; the "
      "512-instance rate is reported over the parallel makespan, which exceeds the paper's "
      "value");
}

void BM_CapOpsRate(benchmark::State& state) {
  const AppWorkload& row = AppWorkloads()[state.range(0)];
  for (auto _ : state) {
    AppRunConfig config;
    config.app = row.name;
    config.kernels = 8;
    config.services = 8;
    config.instances = 64;
    AppRunResult result = RunApp(config);
    WorkloadResult out;
    out.Add("cap_ops_per_s", result.cap_ops_per_sec);
    bench::Report(state, result.makespan, out);
  }
  state.SetLabel(row.name);
}
BENCHMARK(BM_CapOpsRate)->DenseRange(0, static_cast<int>(AppWorkloads().size()) - 1)
    ->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semperos

SEMPEROS_BENCH_MAIN(semperos::PrintTable)
