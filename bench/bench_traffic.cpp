// Open-loop traffic scale points (ROADMAP north star, not a paper figure).
//
// The paper's evaluation is closed-loop (fixed instance counts, makespan);
// this binary is the open-loop counterpart the perf PRs are judged against:
// seeded arrival schedules injected on the simulated clock independent of
// completions, per-request latency percentiles (measured from the scheduled
// arrival, so client-side queueing counts), and a saturation-throughput
// search per scale point (docs/benchmarks.md, "Open-loop traffic").
//
// Three poisson scale points; the last boots a 10129-PE mesh (64 kernels +
// 64 services + 5000 servers + 5000 generators + memory tile) and injects
// 1.04M requests — the "millions of users" regime. Everything reported here
// is simulated time: bit-identical across reruns and machines, and gated
// by tools/bench_compare.py.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "traffic/traffic.h"

namespace semperos {
namespace {

struct ScalePoint {
  uint32_t kernels;
  uint32_t services;
  uint32_t servers;
  double rate_rps;      // below the knee: the latency row stays sustained
  uint64_t warmup;
  uint64_t requests;    // measured arrivals (aggregate)
  double sat_rate_rps;  // saturation-search starting point
  uint64_t sat_warmup;
  uint64_t sat_requests;  // reduced per-probe budget for the search
};

const ScalePoint kPoints[] = {
    {8, 8, 16, 100'000.0, 2'000, 20'000, 100'000.0, 1'000, 10'000},
    {32, 32, 256, 1'500'000.0, 4'000, 100'000, 1'500'000.0, 2'000, 20'000},
    {64, 64, 5000, 4'000'000.0, 40'000, 1'000'000, 4'000'000.0, 8'000, 100'000},
};
constexpr int kScalePoints = 3;
constexpr int kBigPoint = 2;  // the 10k-PE / 1M-request mesh

uint64_t TotalPes(const ScalePoint& p) {
  // kernels + services + one server and one generator PE per connection +
  // the memory tile (RunTraffic's PlatformConfig).
  return p.kernels + p.services + 2ull * p.servers + 1;
}

TrafficConfig PointConfig(const ScalePoint& p) {
  TrafficConfig config;
  config.kernels = p.kernels;
  config.services = p.services;
  config.servers = p.servers;
  config.arrivals.rate_rps = p.rate_rps;
  config.warmup = p.warmup;
  config.requests = p.requests;
  return config;
}

void PrintFigure() {
  bench::Header("Open-loop traffic: latency percentiles under offered load",
                "ROADMAP north star (no paper figure; methodology in docs/benchmarks.md)");
  std::printf("%-8s %8s %12s %12s %10s %10s %10s\n", "point", "PEs", "offered", "throughput",
              "p50", "p99", "p999");
  std::printf("%-8s %8s %12s %12s %10s %10s %10s\n", "", "", "[req/s]", "[req/s]", "[us]",
              "[us]", "[us]");
  // The 10k-PE row costs ~30s of host time; fast mode leaves it to the
  // benchmark pass (it is never subsampled there).
  int rows = bench::FastMode() ? kBigPoint : kScalePoints;
  for (int i = 0; i < rows; ++i) {
    const ScalePoint& p = kPoints[i];
    TrafficResult r = RunTraffic(PointConfig(p));
    std::printf("%-8d %8llu %12.0f %12.0f %10.1f %10.1f %10.1f\n", i,
                static_cast<unsigned long long>(TotalPes(p)), r.offered_rps, r.throughput_rps,
                r.p50_us, r.p99_us, r.p999_us);
  }
  bench::Footnote(
      "latency runs from the scheduled arrival, so generator-side queueing counts");
}

void BM_TrafficOpenLoop(benchmark::State& state) {
  const ScalePoint& p = kPoints[state.range(0)];
  for (auto _ : state) {
    TrafficResult r = RunTraffic(PointConfig(p));
    WorkloadResult out;
    out.Add("p50_us", r.p50_us, "us");
    out.Add("p99_us", r.p99_us, "us");
    out.Add("p999_us", r.p999_us, "us");
    out.Add("mean_us", r.mean_us, "us");
    out.Add("offered_rps", r.offered_rps);
    out.Add("throughput_rps", r.throughput_rps);
    out.Add("injected", static_cast<double>(r.injected));
    out.Add("pes", static_cast<double>(TotalPes(p)));
    bench::Report(state, r.makespan, out);
  }
}
BENCHMARK(BM_TrafficOpenLoop)->DenseRange(0, kScalePoints - 1)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Saturation throughput per scale point: highest offered rate sustained
// within the p99 SLA (throughput >= 95% of offered). The search path is a
// pure function of the config, so saturation_rps is a pinned modeled value.
// Probes run a reduced request budget; the manual time charges the summed
// simulated cost of every probe.
void BM_TrafficSaturation(benchmark::State& state) {
  const ScalePoint& p = kPoints[state.range(0)];
  for (auto _ : state) {
    SaturationConfig config;
    config.traffic = PointConfig(p);
    config.traffic.arrivals.rate_rps = p.sat_rate_rps;
    config.traffic.warmup = p.sat_warmup;
    config.traffic.requests = p.sat_requests;
    SaturationResult r = FindSaturation(config);
    Cycles simulated = 0;
    for (const SaturationProbe& probe : r.probes) {
      simulated += probe.makespan;
    }
    WorkloadResult out;
    out.Add("saturation_rps", r.saturation_rps);
    out.Add("probes", static_cast<double>(r.probes.size()));
    bench::Report(state, simulated, out);
  }
}
BENCHMARK(BM_TrafficSaturation)->DenseRange(0, kScalePoints - 1)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Non-poisson arrival processes at the medium point, pinning the bursty and
// diurnal generator paths. Offered load is set so the *average* rate is
// sustainable while bursts/peaks overdrive the system — the tail inflation
// relative to BM_TrafficOpenLoop/1 is the point of the row.
void BM_TrafficBursty(benchmark::State& state) {
  for (auto _ : state) {
    TrafficConfig config = PointConfig(kPoints[1]);
    config.arrivals.process = ArrivalProcess::kBursty;
    config.arrivals.rate_rps = 400'000.0;
    config.requests = 50'000;
    config.warmup = 2'000;
    TrafficResult r = RunTraffic(config);
    WorkloadResult out;
    out.Add("p50_us", r.p50_us, "us");
    out.Add("p99_us", r.p99_us, "us");
    out.Add("p999_us", r.p999_us, "us");
    out.Add("throughput_rps", r.throughput_rps);
    bench::Report(state, r.makespan, out);
  }
}
BENCHMARK(BM_TrafficBursty)->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_TrafficDiurnal(benchmark::State& state) {
  for (auto _ : state) {
    TrafficConfig config = PointConfig(kPoints[1]);
    config.arrivals.process = ArrivalProcess::kDiurnal;
    config.arrivals.rate_rps = 800'000.0;
    config.requests = 50'000;
    config.warmup = 2'000;
    TrafficResult r = RunTraffic(config);
    WorkloadResult out;
    out.Add("p50_us", r.p50_us, "us");
    out.Add("p99_us", r.p99_us, "us");
    out.Add("p999_us", r.p999_us, "us");
    out.Add("throughput_rps", r.throughput_rps);
    bench::Report(state, r.makespan, out);
  }
}
BENCHMARK(BM_TrafficDiurnal)->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

// PostMark request mix (create+write, read, unlink per request) at the two
// smaller points: the write path through the FS services saturates far
// earlier than the nginx document fetch.
void BM_TrafficPostmark(benchmark::State& state) {
  const ScalePoint& p = kPoints[state.range(0)];
  for (auto _ : state) {
    TrafficConfig config = PointConfig(p);
    config.request = "postmark";
    config.arrivals.rate_rps = p.rate_rps * 0.5;
    config.requests = p.requests / 2;
    TrafficResult r = RunTraffic(config);
    WorkloadResult out;
    out.Add("p50_us", r.p50_us, "us");
    out.Add("p99_us", r.p99_us, "us");
    out.Add("p999_us", r.p999_us, "us");
    out.Add("offered_rps", r.offered_rps);
    out.Add("throughput_rps", r.throughput_rps);
    bench::Report(state, r.makespan, out);
  }
}
BENCHMARK(BM_TrafficPostmark)->DenseRange(0, 1)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semperos

SEMPEROS_BENCH_MAIN(semperos::PrintFigure)
