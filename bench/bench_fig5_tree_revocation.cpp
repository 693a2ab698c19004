// Figure 5: parallel revocation of capability trees with different breadths
// utilizing multiple kernels.
//
// "This microbenchmark resembles a situation in which an application
// exchanges a capability with many other applications, for example, to
// establish shared memory. ... The line labeled with 1 + 0 Kernels
// represents the local scenario ... for all other lines, the second number
// indicates the number of kernels the child capabilities have been
// distributed to. ... It currently leads to a break-even at 80 child
// capabilities, when comparing the local revocation time with a parallel
// revocation with 12 kernels." (paper §5.2)
//
// Every child activates its capability copy, so revocation includes the
// DTU-endpoint invalidations of the shared-memory scenario.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "system/client.h"

namespace semperos {
namespace {

std::vector<uint32_t> Breadths() {
  return bench::Sweep<uint32_t>({16, 32, 48, 64, 80, 96, 112, 128});
}

const std::vector<uint32_t> kExtraKernels = {0, 1, 4, 8, 12};

void PrintFigure() {
  bench::Header("Figure 5: Parallel revocation of capability trees",
                "Hille et al., SemperOS (ATC'19), Figure 5");
  std::printf("%-8s", "children");
  for (uint32_t k : kExtraKernels) {
    std::printf("   1+%-2u kernels", k);
  }
  std::printf("   [revocation time, us]\n");

  std::vector<std::vector<double>> series(kExtraKernels.size());
  std::vector<uint32_t> breadths = Breadths();
  for (uint32_t n : breadths) {
    std::printf("%-8u", n);
    for (size_t i = 0; i < kExtraKernels.size(); ++i) {
      Cycles t = RevokeTree(1 + kExtraKernels[i], n);
      series[i].push_back(CyclesToMicros(t));
      std::printf("   %12.2f", CyclesToMicros(t));
    }
    std::printf("\n");
  }

  // Break-even: where the 1+12 configuration becomes faster than 1+0.
  std::printf("\n  shape check (paper: break-even at ~80 children for 1+12 kernels):\n");
  for (size_t i = 0; i < breadths.size(); ++i) {
    if (series.back()[i] < series.front()[i]) {
      std::printf("  - 1+12 kernels beat the local revoke from %u children on\n", breadths[i]);
      return;
    }
  }
  std::printf("  - 1+12 kernels did not reach break-even within 128 children\n");
}

void BM_TreeRevokeLocal(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    bench::ReportSpan(state, RevokeTree(1, n));
  }
}
BENCHMARK(BM_TreeRevokeLocal)->Arg(32)->Arg(128)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMicrosecond);

void BM_TreeRevokeTwelveKernels(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    bench::ReportSpan(state, RevokeTree(13, n));
  }
}
BENCHMARK(BM_TreeRevokeTwelveKernels)->Arg(32)->Arg(128)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace semperos

SEMPEROS_BENCH_MAIN(semperos::PrintFigure)
