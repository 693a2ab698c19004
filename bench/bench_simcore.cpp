// Engine-room microbenchmark: wall-clock throughput of the simulator
// substrate itself.
//
// Unlike every other bench binary, this one measures HOST time, not
// simulated time: it tracks how fast the discrete-event engine executes
// (events/sec through the queue's fine and coarse rings, the 4-ary
// heap behind them and the InlineFn slab) and how fast the NoC+DTU stack
// moves messages (messages/sec including pooled body allocation, tag
// dispatch and per-link reservation). Every figure sweep is bounded by
// these two rates, so regressions here show up as wall-clock regressions
// everywhere (see docs/benchmarks.md, "Wall-clock vs modeled cycles").
// BM_AppPostmarkSerial and BM_AppPostmark1024 add the whole request
// path (kernels, asks, IKCs, m3fs) at a small shape and at the largest.
//
// Compare runs with:  tools/bench_compare.py OLD NEW --wallclock
// (generous tolerance; host timing is noisy where simulated time is not).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "dtu/dtu.h"
#include "dtu/msg_pool.h"
#include "noc/noc.h"
#include "sim/simulation.h"
#include "system/experiment.h"

namespace semperos {
namespace {

// Message-sized event payload: the engine's typical closure captures a
// Message (~40 bytes) plus a few scalars. Copying itself into the next
// Schedule exercises exactly the path every handler-chain takes.
struct ChainEvent {
  Simulation* sim;
  uint64_t* remaining;
  uint64_t payload[5] = {0, 1, 2, 3, 4};

  void operator()() const {
    if (*remaining == 0) {
      return;
    }
    --*remaining;
    sim->Schedule(1 + payload[*remaining % 5], *this);
  }
};

// Events/sec: 64 interleaved self-rescheduling chains drain a fixed event
// budget. About 64 events stay pending, each at most five cycles ahead —
// all in the serial queue's near-future ring.
void BM_EventChurn(benchmark::State& state) {
  constexpr uint64_t kEvents = 1'000'000;
  uint64_t total = 0;
  for (auto _ : state) {
    Simulation sim;
    uint64_t remaining = kEvents;
    for (int chain = 0; chain < 64; ++chain) {
      sim.Schedule(static_cast<Cycles>(chain), ChainEvent{&sim, &remaining});
    }
    sim.RunUntilIdle();
    total += sim.EventsRun();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
}

// The same churn with the workloads' delay mix: one reschedule in five
// lands 1-3 epochs (Simulation::kEpochCycles) ahead, so those events take
// the serial queue's fine ring when due within the next epoch and its
// coarse ring otherwise, and move into the fine ring as the clock closes
// in. The perfbench workloads send 13-25% of their events at least an
// epoch ahead; BM_EventChurn stays within a few cycles.
//
// With `kFarCycles` set past the coarse range, the same one in five takes
// the overflow heap instead (BM_EventChurnHeap), which the workloads
// almost never reach but which keeps its own wall-clock row.
template <Cycles kFarCycles>
struct FarChainEvent {
  Simulation* sim;
  uint64_t* remaining;
  uint64_t payload[5] = {0, 1, 2, 3, 4};

  void operator()() const {
    if (*remaining == 0) {
      return;
    }
    uint64_t n = --*remaining;
    Cycles delay = 1 + payload[n % 5];
    if (n % 5 == 0) {
      // A pseudo-random point up to two epochs past kFarCycles.
      delay = kFarCycles + (n * 0x9e3779b97f4a7c15ull) % (2 * Simulation::kEpochCycles);
    }
    sim->Schedule(delay, *this);
  }
};

template <Cycles kFarCycles>
void EventChurnFar(benchmark::State& state) {
  constexpr uint64_t kEvents = 1'000'000;
  uint64_t total = 0;
  for (auto _ : state) {
    Simulation sim;
    uint64_t remaining = kEvents;
    for (int chain = 0; chain < 64; ++chain) {
      sim.Schedule(static_cast<Cycles>(chain), FarChainEvent<kFarCycles>{&sim, &remaining});
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(sim.Now());
    total += sim.EventsRun();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
}

void BM_EventChurnFar(benchmark::State& state) {
  EventChurnFar<Simulation::kEpochCycles>(state);
}

// Past the coarse range: (kCoarseEpochs + 2) epochs from the start of the
// current epoch is the heap's lower bound.
void BM_EventChurnHeap(benchmark::State& state) {
  EventChurnFar<(Simulation::kCoarseEpochs + 2) * Simulation::kEpochCycles>(state);
}

struct PingMsg : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kTest;
  PingMsg() : MsgBody(kKind) {}
};

// Messages/sec: a credit-limited ping-pong between two DTUs across a small
// mesh. Each round trip allocates two pooled bodies, reserves NoC links,
// delivers into receive slots and returns a credit — the full per-message
// cost the kernels pay on every syscall and IKC.
void BM_MessageDelivery(benchmark::State& state) {
  constexpr uint64_t kRoundTrips = 200'000;
  constexpr uint32_t kPipeline = 8;
  uint64_t total = 0;
  for (auto _ : state) {
    Simulation sim;
    NocConfig noc_config;
    noc_config.width = 4;
    noc_config.height = 1;
    Noc noc(&sim, noc_config);
    DtuFabric fabric(&noc);
    Dtu a(&sim, &fabric, 0);
    Dtu b(&sim, &fabric, 3);

    uint64_t sent = 0;
    a.ConfigureSend(/*ep=*/0, /*dst_node=*/3, /*dst_ep=*/0, /*credits=*/kPipeline);
    a.ConfigureRecv(/*ep=*/1, kPipeline, [&](EpId, const Message&) {
      if (sent < kRoundTrips) {
        ++sent;
        CHECK(a.Send(0, NewMsg<PingMsg>(), /*reply_ep=*/1).ok());
      }
    });
    b.ConfigureRecv(/*ep=*/0, 32, [&](EpId ep, const Message& msg) {
      CHECK(msg.As<PingMsg>() != nullptr);
      CHECK(b.Reply(ep, msg.slot, NewMsg<PingMsg>()).ok());
    });
    for (uint32_t i = 0; i < kPipeline; ++i) {
      ++sent;
      CHECK(a.Send(0, NewMsg<PingMsg>(), /*reply_ep=*/1).ok());
    }
    sim.RunUntilIdle();
    CHECK_EQ(a.stats().msgs_dropped + b.stats().msgs_dropped, 0u);
    total += a.stats().msgs_sent + b.stats().msgs_sent;
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
  state.counters["messages_per_sec"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_EventChurn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EventChurnFar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EventChurnHeap)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MessageDelivery)->Unit(benchmark::kMillisecond);

// The request path on the wall clock: RunApp with PostMark, so syscalls,
// asks, IKCs, endpoint configuration and m3fs service work all count, not
// only the event core. events_per_sec divides the run's events by RunApp's
// wall time, platform construction and boot included.
void AppPostmark(benchmark::State& state, uint32_t kernels, uint32_t instances) {
  uint64_t events = 0;
  double seconds = 0;
  for (auto _ : state) {
    AppRunConfig config;
    config.app = "postmark";
    config.kernels = kernels;
    config.services = kernels;
    config.instances = instances;
    auto t0 = std::chrono::steady_clock::now();
    AppRunResult result = RunApp(config);
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    events += result.events;
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["events_per_sec"] = static_cast<double>(events) / seconds;
}

// A small shape: 8 kernels, 8 services, 256 instances.
void BM_AppPostmarkSerial(benchmark::State& state) { AppPostmark(state, 8, 256); }
BENCHMARK(BM_AppPostmarkSerial)->Unit(benchmark::kMillisecond);

// The 1024-instance/64-kernel scale point (1153 PEs, full fidelity), run
// once: the largest app run this binary times.
void BM_AppPostmark1024(benchmark::State& state) { AppPostmark(state, 64, 1024); }
BENCHMARK(BM_AppPostmark1024)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semperos

BENCHMARK_MAIN();
