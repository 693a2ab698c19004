// Parallel discrete-event engine: sharded kernels with conservative
// NoC-lookahead synchronization.
//
// The serial engine (sim/simulation.h) executes every event of the whole
// platform on one host thread; the 1024-instance/64-kernel scale point
// saturates one core while the rest idle. This engine shards the simulation:
// each shard owns a contiguous band of mesh rows — and therefore the
// kernels, PEs and DTUs on those nodes — with its own Simulation event
// queue, and shards execute in lockstep time windows on a pool of worker
// threads.
//
// Conservative synchronization (Chandy–Misra–Bryant lookahead). The NoC
// guarantees every cross-node message costs at least
//     Noc::kMinCrossNodeLatency (router + wire + minimum packet)
// cycles between send and delivery, and every cross-shard continuation
// (remote endpoint configuration) at least kConfigApplyCycles. The minimum
// of these is the engine's lookahead L: an event executing at time t can
// only affect another shard at time >= t + L. Shards therefore drain their
// local heaps independently inside a window [T, T+L); no event inside the
// window can create work for another shard inside the same window.
//
// Cross-shard effects are not applied live. Every non-loopback Noc::Send
// and every cross-shard ScheduleAt executed during a window is recorded in
// the executing shard's outbox, stamped with the executing event's serial
// order key (when, icycle, depth, anchor — see Simulation::Entry). At the
// window barrier the coordinator merges all outboxes in that key's
// ascending order — the serial engine's execution order of the recording
// events — and applies them one by one: sends reserve their full XY link
// path against the (now exclusively owned) link state and schedule the
// delivery into the destination shard's queue; cross-shard schedules
// insert directly. Link reservations therefore happen in the serial
// engine's send order, and the merged application is independent of the
// number of worker threads. Modeled results (cycle counts, NoC stats,
// kernel counters, benchmark JSON) are bit-identical at any thread count
// >= 2, and equal to the serial engine wherever the colliding events'
// serial order is defined by the key — which the equivalence suite
// verifies for every workload family.
//
// Driver strand. Platform-level orchestration scheduled from outside the
// shards (kernel kills, migration chains, monitor callbacks) runs on a
// dedicated driver queue. Its events execute at exact-time barriers: the
// window is cut at the driver event's timestamp, every shard advances to
// exactly that cycle, and the driver event runs with exclusive access to
// the whole platform — direct calls into any kernel behave exactly as in
// the serial engine, including executor timing.
//
// PlatformConfig::threads (system/platform.h) is the only way in; at 1, the
// default, this engine is never constructed and the serial single-queue
// path runs unchanged, so committed modeled baselines remain valid.
#ifndef SEMPEROS_SIM_ENGINE_H_
#define SEMPEROS_SIM_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/types.h"
#include "sim/inline_fn.h"
#include "sim/simulation.h"

namespace semperos {

class Noc;

// Observability counters, aggregated by the engine. Read by
// perfbench/driver.cpp's --threads diagnostic (the engine.* per-layer
// metrics) and asserted in the engine's tests; they go with the engine
// after the benchmark PR (ROADMAP, "The benchmark PR, then delete the
// sharded parallel engine").
struct EngineStats {
  uint64_t windows = 0;            // lockstep windows executed (one barrier each)
  uint64_t handoffs = 0;           // cross-shard records merged (sends + schedules)
  uint64_t handoff_sends = 0;      // of which NoC sends
  uint64_t handoff_schedules = 0;  // of which cross-shard ScheduleAt
  uint64_t driver_events = 0;      // driver-strand events executed at barriers
  uint64_t fast_forwards = 0;      // windows whose start skipped idle cycles
  uint64_t solo_windows = 0;       // sparse windows run inline by the coordinator
  // Per-shard event counts over the run: the imbalance ratio
  // max/mean tells how evenly the node partition spreads the load.
  std::vector<uint64_t> shard_events;
  double ImbalanceRatio() const {
    if (shard_events.empty()) {
      return 0.0;
    }
    uint64_t max = 0;
    uint64_t total = 0;
    for (uint64_t e : shard_events) {
      max = e > max ? e : max;
      total += e;
    }
    if (total == 0) {
      return 0.0;
    }
    double mean = static_cast<double>(total) / static_cast<double>(shard_events.size());
    return static_cast<double>(max) / mean;
  }
};

// A deferred cross-shard effect, recorded during window execution and
// applied in deterministic merged order at the barrier. The merge key —
// (when, parent_icycle, parent_depth, parent_anchor, outbox position), the
// executing event's own heap order key — replays cross-shard sends in the
// serial engine's execution order (see Simulation::Entry for why that key
// reproduces the serial insertion counter).
struct CrossRecord {
  enum class Kind : uint8_t { kSend, kSchedule };
  Kind kind;
  Cycles when = 0;             // executing event's time (merge key, major)
  Cycles parent_icycle = 0;    // executing event's insertion cycle
  uint64_t parent_anchor = 0;  // executing event's lineage anchor
  uint32_t parent_depth = 0;   // executing event's chain depth
  // kSend
  NodeId src = 0;
  NodeId dst = 0;
  uint32_t bytes = 0;
  // kSchedule
  Simulation* target = nullptr;  // queue to insert into
  Cycles target_when = 0;        // absolute event time
  InlineFn fn;                   // delivery / scheduled closure
};

class ParallelEngine {
 public:
  // `shards` queues own the node ranges produced by the platform's
  // partitioner; `lookahead` is the conservative window width derived from
  // the NoC config (must be >= 1).
  ParallelEngine(std::vector<std::unique_ptr<Simulation>> shards, Cycles lookahead,
                 uint32_t threads);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  // The NoC applies deferred sends at barriers through this back-pointer.
  void BindNoc(Noc* noc) { noc_ = noc; }

  Simulation* shard(uint32_t i) { return shards_[i].get(); }
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  Simulation* driver() { return &driver_; }
  Cycles lookahead() const { return lookahead_; }

  // Runs windows until every queue is idle and every outbox is drained.
  // Returns events executed (summed over shards + driver).
  uint64_t RunUntilIdle(uint64_t max_events = UINT64_MAX);

  // Runs windows until all events with when <= until have executed, then
  // advances every queue to exactly `until` (legacy RunUntil semantics).
  uint64_t RunUntil(Cycles until, uint64_t max_events = UINT64_MAX);

  // Global time: max over all queues (only meaningful between runs).
  Cycles Now() const;
  uint64_t EventsRun() const;
  bool Idle() const;

  const EngineStats& stats();

  // --- Called from Simulation / Noc on shard threads ---

  // Appends a cross-shard schedule record to the current thread's outbox.
  void RecordCrossSchedule(Simulation* target, Cycles when, InlineFn fn);

  // Appends a deferred NoC send to the current thread's outbox.
  void RecordSend(NodeId src, NodeId dst, uint32_t bytes, InlineFn deliver);

  // Next lineage anchor for an engine-exclusive insertion (boot, driver
  // events, barrier-applied records). Single-threaded contexts only; the
  // allocation order is exactly the serial insertion order of these events.
  uint64_t AllocExclusiveVseq() { return global_vseq_++; }

  // The simulated cycle the current engine-exclusive insertion happens at
  // (serial's insertion time): the record's send time during barrier
  // replay, the driver event's cycle during driver phases, the global
  // clock otherwise.
  Cycles ExclusiveICycle() const { return exclusive_icycle_; }

 private:
  // Windows with at most this many event-bearing shards run inline on the
  // coordinator instead of fanning out to the worker pool.
  static constexpr uint32_t kSoloShardLimit = 2;

  struct Outbox {
    std::vector<CrossRecord> records;
  };

  // Worker protocol: workers park until `epoch_` advances, then run their
  // assigned shards up to `window_end_` and report back.
  void WorkerLoop(uint32_t worker);
  void RunShardsOfWorker(uint32_t worker);
  void StartWindow(Cycles until);

  // Applies all outbox records with deterministic merged ordering.
  void ApplyRecords();

  // Earliest pending event time across shards, driver, or kInfinite.
  Cycles NextEventTime() const;

  static constexpr Cycles kInfinite = UINT64_MAX;

  std::vector<std::unique_ptr<Simulation>> shards_;
  Simulation driver_;
  Noc* noc_ = nullptr;
  Cycles lookahead_;
  uint32_t threads_;

  // One outbox per shard (the worker running a shard writes that shard's
  // outbox; barrier application reads them all).
  std::vector<Outbox> outboxes_;

  // Worker pool. The coordinator (calling thread) doubles as worker 0.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  // Hybrid spin-then-block handshake: workers and the coordinator spin on
  // these atomics for spin_budget_ iterations (windows are microseconds
  // apart on a busy run, so parking in the kernel every window costs more
  // than the window itself), then fall back to the condition variables.
  // A single-core host gets a zero budget: spinning there only steals the
  // timeslice the other side needs.
  std::atomic<uint64_t> epoch_{0};   // incremented to release workers
  std::atomic<uint32_t> running_{0}; // workers still executing the window
  uint32_t spin_budget_ = 0;
  bool shutdown_ = false;
  Cycles window_end_ = 0;
  uint64_t global_vseq_ = 0;       // exclusive-context lineage anchors
  Cycles exclusive_icycle_ = 0;    // see ExclusiveICycle()

  EngineStats stats_;
};

// Engine facade owned by the platform. Presents the legacy Simulation
// surface (Now / Schedule / ScheduleAt / RunUntil / RunUntilIdle /
// EventsRun / Idle) so workloads, tests and benches drive serial and
// sharded platforms through identical code. Dispatch rules in sharded mode:
//
//   * Now()        — the executing shard's clock on a worker thread; the
//                    global clock (max over queues) elsewhere.
//   * Schedule*()  — the executing shard's queue on a worker thread (local
//                    insertion, legacy semantics); the driver strand from
//                    the main thread and driver events, so orchestration
//                    runs at exact-time barriers with the platform quiesced.
//   * Run*()       — the engine's lockstep window loop.
class SimHost {
 public:
  SimHost() = default;
  SimHost(const SimHost&) = delete;
  SimHost& operator=(const SimHost&) = delete;

  // Switches to sharded mode. `shards` queues are handed to the engine;
  // call before any event is scheduled.
  void InitParallel(std::vector<std::unique_ptr<Simulation>> shards, Cycles lookahead,
                    uint32_t threads) {
    engine_ = std::make_unique<ParallelEngine>(std::move(shards), lookahead, threads);
  }

  bool parallel() const { return engine_ != nullptr; }
  ParallelEngine* engine() { return engine_.get(); }
  // The single queue of the legacy path (also handed to the Noc as the
  // default queue; unused once an engine is attached).
  Simulation* legacy() { return &legacy_; }

  Cycles Now() const {
    if (engine_ == nullptr) {
      return legacy_.Now();
    }
    return ShardContext::current != nullptr ? ShardContext::current->Now() : engine_->Now();
  }

  template <typename F>
  void ScheduleAt(Cycles when, F&& fn) {
    if (engine_ == nullptr) {
      legacy_.ScheduleAt(when, std::forward<F>(fn));
    } else if (ShardContext::current != nullptr) {
      ShardContext::current->ScheduleAt(when, std::forward<F>(fn));
    } else {
      engine_->driver()->ScheduleAt(when, std::forward<F>(fn));
    }
  }

  template <typename F>
  void Schedule(Cycles delay, F&& fn) {
    ScheduleAt(Now() + delay, std::forward<F>(fn));
  }

  uint64_t RunUntilIdle(uint64_t max_events = UINT64_MAX) {
    return engine_ == nullptr ? legacy_.RunUntilIdle(max_events)
                              : engine_->RunUntilIdle(max_events);
  }

  uint64_t RunUntil(Cycles until) {
    return engine_ == nullptr ? legacy_.RunUntil(until) : engine_->RunUntil(until);
  }

  bool Idle() const { return engine_ == nullptr ? legacy_.Idle() : engine_->Idle(); }

  uint64_t EventsRun() const {
    return engine_ == nullptr ? legacy_.EventsRun() : engine_->EventsRun();
  }

 private:
  Simulation legacy_;
  std::unique_ptr<ParallelEngine> engine_;
};

}  // namespace semperos

#endif  // SEMPEROS_SIM_ENGINE_H_
