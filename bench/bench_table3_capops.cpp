// Table 3: runtimes of capability operations (cycles).
//
//     Operation  Scope      SemperOS   M3       Increase
//     Exchange   Local      3597       3250     10.7%
//     Exchange   Spanning   6484       —        —
//     Revoke     Local      1997       1423     40.3%
//     Revoke     Spanning   3876       —        —
//
// Setup per paper §5.2: "we start two applications where the second
// application obtains a capability from the first, followed by a revoke by
// the first application". Group-local uses one kernel (comparable to M3,
// which has exactly one kernel); group-spanning uses two kernels, one
// application each.
//
// The binary prints the reproduced table and then runs the same operations
// under google-benchmark with manual (simulated) time.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "system/client.h"

namespace semperos {
namespace {

void PrintTable() {
  bench::Header("Table 3: Runtimes of capability operations",
                "Hille et al., SemperOS (ATC'19), Table 3");
  ObtainRevokeTimes local = MeasureObtainRevoke(1, KernelMode::kSemperOSMulti);
  ObtainRevokeTimes spanning = MeasureObtainRevoke(2, KernelMode::kSemperOSMulti);
  ObtainRevokeTimes m3 = MeasureObtainRevoke(1, KernelMode::kM3SingleKernel);

  std::printf("%-10s %-9s %10s %8s %10s   %s\n", "Operation", "Scope", "SemperOS", "M3",
              "Increase", "(paper: SemperOS / M3 / increase)");
  std::printf("%-10s %-9s %10llu %8llu %9.1f%%   (3597 / 3250 / 10.7%%)\n", "Exchange", "Local",
              (unsigned long long)local.exchange, (unsigned long long)m3.exchange,
              100.0 * (double(local.exchange) - double(m3.exchange)) / double(m3.exchange));
  std::printf("%-10s %-9s %10llu %8s %10s   (6484 / - / -)\n", "Exchange", "Spanning",
              (unsigned long long)spanning.exchange, "-", "-");
  std::printf("%-10s %-9s %10llu %8llu %9.1f%%   (1997 / 1423 / 40.3%%)\n", "Revoke", "Local",
              (unsigned long long)local.revoke, (unsigned long long)m3.revoke,
              100.0 * (double(local.revoke) - double(m3.revoke)) / double(m3.revoke));
  std::printf("%-10s %-9s %10llu %8s %10s   (3876 / - / -)\n", "Revoke", "Spanning",
              (unsigned long long)spanning.revoke, "-", "-");
  bench::Footnote("cycles at 2 GHz; SemperOS pays DDL-key decoding over M3's plain pointers");
}

void BM_ExchangeLocal(benchmark::State& state) {
  for (auto _ : state) {
    ObtainRevokeTimes t = MeasureObtainRevoke(1, KernelMode::kSemperOSMulti);
    bench::ReportSpan(state, t.exchange);
  }
}
BENCHMARK(BM_ExchangeLocal)->UseManualTime()->Iterations(3)->Unit(benchmark::kMicrosecond);

void BM_ExchangeSpanning(benchmark::State& state) {
  for (auto _ : state) {
    ObtainRevokeTimes t = MeasureObtainRevoke(2, KernelMode::kSemperOSMulti);
    bench::ReportSpan(state, t.exchange);
  }
}
BENCHMARK(BM_ExchangeSpanning)->UseManualTime()->Iterations(3)->Unit(benchmark::kMicrosecond);

void BM_RevokeLocal(benchmark::State& state) {
  for (auto _ : state) {
    ObtainRevokeTimes t = MeasureObtainRevoke(1, KernelMode::kSemperOSMulti);
    bench::ReportSpan(state, t.revoke);
  }
}
BENCHMARK(BM_RevokeLocal)->UseManualTime()->Iterations(3)->Unit(benchmark::kMicrosecond);

void BM_RevokeSpanning(benchmark::State& state) {
  for (auto _ : state) {
    ObtainRevokeTimes t = MeasureObtainRevoke(2, KernelMode::kSemperOSMulti);
    bench::ReportSpan(state, t.revoke);
  }
}
BENCHMARK(BM_RevokeSpanning)->UseManualTime()->Iterations(3)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace semperos

SEMPEROS_BENCH_MAIN(semperos::PrintTable)
