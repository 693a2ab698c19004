// Ablations of the reproduction's own design choices (docs/benchmarks.md,
// "Ablations", describes them; its letters skip the retired (a), (c), (d)).
//
// Not a paper figure — quantifies how the reproduction's knobs shape the
// headline results:
//  (b) the DDL-decode cost that separates SemperOS from the M3 baseline
//      (Table 3's +10.7% / +40.3% columns);
//  (e) the epoch-invalidated remote-DDL cache against the Figure 8
//      observation that kernels are "mostly handling capability
//      operations".
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "system/client.h"

namespace semperos {
namespace {

Cycles LocalExchange(Cycles ddl_decode) {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 2;
  pc.timing.ddl_decode = ddl_decode;
  DriverRig rig = MakeDriverRig(pc);
  CapSel owner_sel = rig.Grant(0);
  return rig.TimedOp([&](std::function<void()> done) {
    rig.client(1).env().Obtain(rig.vpe(0), owner_sel, [done](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk);
      done();
    });
  });
}

void AblationDdl() {
  bench::Header("Ablation (b): DDL key-decode cost",
                "Table 3: \"Analyzing the DDL key ... introduces overhead in the local case\"");
  std::printf("%-18s %18s %14s\n", "ddl_decode [cyc]", "local exchange", "vs M3 (+%)");
  Cycles m3 = LocalExchange(0);
  for (Cycles ddl : {0u, 58u, 115u, 230u, 460u}) {
    Cycles t = LocalExchange(ddl);
    std::printf("%-18llu %18llu %13.1f%%\n", (unsigned long long)ddl, (unsigned long long)t,
                100.0 * (double(t) / double(m3) - 1.0));
  }
  bench::Footnote("115 cycles x 3 decodes reproduces the paper's +10.7%");
}

// The cross-kernel hot-owner storm: every remote client obtains the same
// capability from client 0 concurrently, so every remote kernel resolves
// the owner's partition again and again. This is the traffic Figure 8
// blames for kernel dependence — the app traces keep sessions group-local,
// so the remote-DDL cache is invisible there and the storm isolates it.
struct StormRun {
  Cycles span = 0;
  Cycles kernel_busy = 0;  // summed over all kernel cores
  KernelStats stats;
};

// `cache` off charges every cache hit the full decode, which is the cost of
// resolving each remote key from scratch.
StormRun ObtainStorm(uint32_t kernels, bool cache) {
  PlatformConfig pc;
  pc.kernels = kernels;
  pc.users = 8 * kernels;
  if (!cache) {
    pc.timing.ddl_cache_hit = pc.timing.ddl_decode;
  }
  DriverRig rig = MakeDriverRig(pc);
  CapSel owner_sel = rig.Grant(0);
  std::vector<Cycles> busy_before;
  for (KernelId k = 0; k < kernels; ++k) {
    busy_before.push_back(rig.p().pe(rig.p().kernel_node(k))->exec().busy_cycles());
  }
  int done = 0;
  int expected = 0;
  Cycles t0 = rig.p().sim().Now();
  for (size_t i = 1; i < rig.clients.size(); ++i) {
    if (rig.kernel_of_client(i) == rig.kernel_of_client(0)) {
      continue;  // only spanning obtains: the local ones never touch IKC
    }
    ++expected;
    rig.client(i).env().Obtain(rig.vpe(0), owner_sel, [&done](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk);
      done++;
    });
  }
  rig.p().RunToCompletion();
  CHECK(done == expected);
  StormRun run;
  run.span = rig.p().sim().Now() - t0;
  for (KernelId k = 0; k < kernels; ++k) {
    run.kernel_busy += rig.p().pe(rig.p().kernel_node(k))->exec().busy_cycles() - busy_before[k];
  }
  run.stats = rig.p().TotalKernelStats();
  return run;
}

void AblationDdlCache() {
  bench::Header("Ablation (e): remote-DDL cache",
                "paper §5.3.2 / Figure 8: kernels are \"mostly handling capability "
                "operations\" — the cache trims each remote key decode");
  std::printf("%-10s %12s %12s %14s %14s %9s %10s\n", "kernels", "off [us]", "on [us]",
              "busy off [cyc]", "busy on [cyc]", "IKC", "DDL hit%");
  for (uint32_t kernels : bench::Sweep<uint32_t>({4, 8, 16, 32})) {
    StormRun off = ObtainStorm(kernels, false);
    StormRun on = ObtainStorm(kernels, true);
    uint64_t probes = on.stats.ddl_cache_hits + on.stats.ddl_cache_misses;
    std::printf("%-10u %12.2f %12.2f %14llu %14llu %9llu %9.1f%%\n", kernels,
                CyclesToMicros(off.span), CyclesToMicros(on.span),
                (unsigned long long)off.kernel_busy, (unsigned long long)on.kernel_busy,
                (unsigned long long)on.stats.ikc_sent,
                probes == 0 ? 0.0 : 100.0 * double(on.stats.ddl_cache_hits) / double(probes));
  }
  bench::Footnote("off charges every cache hit the full ddl_decode; a kernel emits its IKC "
                  "at handler start, so the saving shows in kernel busy cycles, not in the "
                  "storm's span");
}

void BM_DdlCacheObtainStorm(benchmark::State& state) {
  bool cache = state.range(0) != 0;
  for (auto _ : state) {
    StormRun run = ObtainStorm(16, cache);
    WorkloadResult out;
    out.Add("ikc_sent", double(run.stats.ikc_sent));
    out.Add("ddl_cache_hits", double(run.stats.ddl_cache_hits));
    out.Add("kernel_busy_cycles", double(run.kernel_busy));
    bench::Report(state, run.span, out);
  }
  state.SetLabel(cache ? "ddl-cache=on" : "ddl-cache=off");
}
BENCHMARK(BM_DdlCacheObtainStorm)->Arg(0)->Arg(1)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace semperos

SEMPEROS_BENCH_MAIN(semperos::AblationDdl, semperos::AblationDdlCache)
