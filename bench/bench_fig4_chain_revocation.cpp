// Figure 4: revoking capability chains of varying sizes.
//
// "In the chain revocation benchmark we measure the time to revoke a number
// of capabilities forming a chain. ... A local chain comprises only
// applications managed by one kernel ... The group-spanning chain depicts a
// scenario in which an ill-behaving application repeatedly exchanges a
// capability between two VPEs, which are managed by different kernels. This
// creates a circular dependency between the two involved kernels during
// revocation." (paper §5.2)
//
// Series: local chain (SemperOS), group-spanning chain (SemperOS), local
// chain (M3). Y axis: revocation time in K cycles.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "system/client.h"

namespace semperos {
namespace {

std::vector<uint32_t> Lengths() {
  return bench::Sweep<uint32_t>({1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
}

void PrintFigure() {
  bench::Header("Figure 4: Revoking capability chains of varying sizes",
                "Hille et al., SemperOS (ATC'19), Figure 4");
  std::printf("%-8s %22s %28s %18s\n", "chain", "local (SemperOS)", "group-spanning (SemperOS)",
              "local (M3)");
  std::printf("%-8s %22s %28s %18s\n", "length", "[K cycles]", "[K cycles]", "[K cycles]");
  double local100 = 0;
  double spanning100 = 0;
  double m3_100 = 0;
  for (uint32_t len : Lengths()) {
    Cycles local = RevokeChain(1, KernelMode::kSemperOSMulti, len);
    Cycles spanning = RevokeChain(2, KernelMode::kSemperOSMulti, len);
    Cycles m3 = RevokeChain(1, KernelMode::kM3SingleKernel, len);
    std::printf("%-8u %22.1f %28.1f %18.1f\n", len, local / 1000.0, spanning / 1000.0,
                m3 / 1000.0);
    if (len == 100) {
      local100 = static_cast<double>(local);
      spanning100 = static_cast<double>(spanning);
      m3_100 = static_cast<double>(m3);
    }
  }
  if (local100 > 0) {
    std::printf("\n  shape checks (paper §5.2):\n");
    std::printf("  - SemperOS local vs M3 at length 100: %.2fx (paper: \"about twice\")\n",
                local100 / m3_100);
    std::printf("  - spanning vs local at length 100:    %.2fx (paper: \"about three times\")\n",
                spanning100 / local100);
  }
}

void BM_ChainLocal(benchmark::State& state) {
  uint32_t len = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    bench::ReportSpan(state, RevokeChain(1, KernelMode::kSemperOSMulti, len));
  }
}
BENCHMARK(BM_ChainLocal)->Arg(10)->Arg(50)->Arg(100)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMicrosecond);

void BM_ChainSpanning(benchmark::State& state) {
  uint32_t len = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    bench::ReportSpan(state, RevokeChain(2, KernelMode::kSemperOSMulti, len));
  }
}
BENCHMARK(BM_ChainSpanning)->Arg(10)->Arg(50)->Arg(100)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace semperos

SEMPEROS_BENCH_MAIN(semperos::PrintFigure)
