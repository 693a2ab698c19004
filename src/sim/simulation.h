// Discrete-event simulation engine.
//
// This is the substrate that replaces the paper's gem5 full-system simulation
// (see DESIGN.md §2). Time is a 64-bit cycle counter; events are closures
// ordered by (time, insertion sequence) so that runs are fully deterministic.
//
// The engine is built for wall-clock throughput, because every benchmark
// sweep pays its cost on every event (see docs/benchmarks.md, "Wall-clock vs
// modeled cycles").
//
// Closures. Every event is a small-buffer-optimized callback (InlineFn, no
// allocation for typical captures) built exactly once, in its slot of a
// recycled slab: Schedule/ScheduleAt, and Executor::Post and Noc::Send on
// top of them, forward the callable rather than taking an InlineFn by
// value. The slab is a list of fixed 256-slot chunks that never move, so a
// closure runs in place while the events it schedules grow the slab, and
// one indirect call runs it and destroys it.
//
// Order. The serial queue is a calendar queue (Brown, CACM 1988) in front
// of a heap:
//  * the ring — kRingCycles (W) per-cycle FIFO buckets covering
//    [now, now + W). An event due less than W cycles ahead is appended to
//    its cycle's bucket in O(1). Buckets are intrusive lists linked through
//    one per-slot `next` array and found through a two-level occupancy
//    bitmap (a bit per bucket, a bit per 64-bucket word), so the next
//    non-empty cycle is two count-trailing-zeros away;
//  * the heap — an indexed 4-ary min-heap of 40-byte Entry keys over a
//    flat vector, holding the events W or more cycles ahead;
//  * migration — whenever now advances (the event pop, RunUntil's final
//    advance, AdvanceTo, RunUntilIdle's trailing-horizon jump), the heap
//    events now less than W ahead move to their buckets, before anything
//    at the new cycle runs.
// Each bucket holds its cycle's events in insertion order: a heap event
// for cycle w was inserted at some time t0 <= w - W, a ring event for w at
// some t1 > w - W, so the heap event came first, and it reached its bucket
// on the advance that brought w within W, before anything could be
// appended behind it. The current cycle's bucket is the same-cycle FIFO.
//
// W = 2,048: on the perfbench workloads 75-87% of all pushes land inside
// it. Rings from 1,024 to 8,192 cycles ran within run-to-run noise of
// each other (docs/benchmarks.md, "Serial event core"), although the
// heap's share of pushes fell from 25-31% to 3-7% across that range. The
// smaller ring keeps its 16 KiB bucket array and 256-byte bitmap in L1.
//
// A per-cycle timing wheel once lost to the plain heap here. It kept one
// std::vector per cycle slot, so every push touched a separate heap block
// and the pending set scattered over cold cache lines, and it had no
// bitmap to skip empty slots. Here a bucket is two indices in one flat
// array, the closures stay in the slab, and a push touches the bucket,
// one bitmap word and the slot's `next` entry.
//
// Sharded queues (sim/engine.h): the parallel engine's shards and its
// driver strand keep every event in the heap, since their events carry
// the engine's five-field order key, which a bucket cannot hold.
#ifndef SEMPEROS_SIM_SIMULATION_H_
#define SEMPEROS_SIM_SIMULATION_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/log.h"
#include "base/types.h"
#include "sim/inline_fn.h"

namespace semperos {

class ParallelEngine;
class Simulation;

// Which event queue the calling thread is currently draining. Null on the
// main thread and in all engine-exclusive phases (boot, barriers, driver
// events), where direct insertion into any queue is safe. Set by the
// parallel engine's workers around window execution (sim/engine.h).
struct ShardContext {
  static thread_local Simulation* current;
};

class Simulation {
 public:
  // Width W of the serial queue's near-future ring: an event due less than
  // W cycles after Now() goes into its cycle's bucket, a later one into the
  // heap (see the file comment for why 2,048).
  static constexpr Cycles kRingCycles = 2048;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated time in cycles.
  Cycles Now() const { return now_; }

  // Schedules fn to run `delay` cycles from now. "Now" is the executing
  // shard's clock when another shard's queue is targeted mid-window — in
  // that case this queue's own clock must not even be *read* (its owner
  // thread is advancing it concurrently). The legacy single-queue engine
  // has engine_ == nullptr and never takes that branch.
  template <typename F>
  void Schedule(Cycles delay, F&& fn) {
    if (engine_ != nullptr && ShardContext::current != nullptr &&
        ShardContext::current != this) {
      CrossScheduleAt(ShardContext::current->Now() + delay, std::forward<F>(fn));
      return;
    }
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Records that modeled work extends to `when` without scheduling an
  // event. Pure charge-time accounting (Executor::Occupy) uses this instead
  // of a do-nothing closure: RunUntilIdle still ends at the same Now() —
  // exactly where the trailing no-op event would have advanced it — but the
  // queue never sees the event. Roughly a third of all events in a figure
  // sweep were such no-ops.
  void NoteTime(Cycles when) {
    CHECK_GE(when, now_);
    horizon_ = when > horizon_ ? when : horizon_;
  }

  // Schedules fn at an absolute time (must not be in the past). When the
  // simulation is a shard of the parallel engine and the calling thread is
  // mid-window on a *different* shard, the insertion is deferred to the
  // shard's outbox and applied in deterministic merged order at the next
  // window barrier (sim/engine.h); the legacy path pays one null check.
  // The callable is built once, in its slab slot.
  template <typename F>
  void ScheduleAt(Cycles when, F&& fn) {
    if (engine_ != nullptr && ShardContext::current != nullptr &&
        ShardContext::current != this) {
      CrossScheduleAt(when, std::forward<F>(fn));
      return;
    }
    NoteTime(when);
    uint32_t slot = AllocSlot();
    SlotFn(slot).Emplace(std::forward<F>(fn));
    Enqueue(when, slot);
  }

  // Runs events until the queue is empty. Returns the number of events run.
  // `max_events` guards against runaway simulations.
  uint64_t RunUntilIdle(uint64_t max_events = UINT64_MAX);

  // Runs events with time <= `until`. Pending later events stay queued.
  // Advances Now() to `until` even if the queue drains earlier — unless
  // `max_events` stopped the run with events due by `until` still pending.
  uint64_t RunUntil(Cycles until, uint64_t max_events = UINT64_MAX);

  bool Idle() const { return occupied_words_ == 0 && heap_.empty(); }
  uint64_t EventsRun() const { return events_run_; }

  // --- Parallel-engine support (sim/engine.h). The legacy single-queue
  // --- engine never calls these; engine_ stays null and every hot path
  // --- behaves exactly as before.

  // Marks this queue as shard `index` of `engine`. Cross-shard ScheduleAt
  // calls are deferred to the engine's outboxes from then on.
  void BindEngine(ParallelEngine* engine, uint32_t index) {
    CHECK(Idle()) << "bind the engine before scheduling anything";
    engine_ = engine;
    shard_index_ = index;
  }
  uint32_t shard_index() const { return shard_index_; }

  // Order key of the event currently executing on this queue (stamps
  // cross-shard records so the barrier merge replays serial send order).
  Cycles current_event_icycle() const { return current_icycle_; }
  uint64_t current_event_anchor() const { return current_anchor_; }
  uint32_t current_event_depth() const { return current_depth_; }

  // Runs every event with when < until (exclusive); Now() is left on the
  // last executed event, never advanced artificially. Window building block.
  uint64_t RunWindow(Cycles until);

  // Advances the clock without running anything (no-op if t <= Now()).
  // Used to quiesce shards at exact-time driver barriers and to land every
  // queue on the common final cycle.
  void AdvanceTo(Cycles t) {
    if (t > now_) {
      AdvanceClock(t);
    }
  }

  // Earliest pending event time, or UINT64_MAX when idle. Every heap event
  // lies at least a ring width past now_, so a non-empty ring holds it.
  Cycles NextEventWhen() const {
    if (occupied_words_ != 0) {
      uint32_t from = static_cast<uint32_t>(now_) & kRingMask;
      return now_ + ((NextOccupied(from) - from) & kRingMask);
    }
    return heap_.empty() ? UINT64_MAX : heap_.front().when;
  }

  // Latest time any work (event or pure charge) reaches on this queue.
  Cycles WorkHorizon() const { return horizon_ > now_ ? horizon_ : now_; }

 private:
  // Out-of-line cross-shard deferral and sharded-key insertion (keep
  // engine.h out of this header).
  void CrossScheduleAt(Cycles when, InlineFn fn);
  void ParallelPush(Cycles when, uint32_t slot);

  struct Entry {
    Cycles when;
    // Serial order key for same-`when` events: the serial engine breaks
    // such ties by its global insertion counter, and the sharded engine
    // reproduces that order with (icycle, depth, anchor, lseq):
    //  * icycle — the cycle the insertion happened at: serial's counter is
    //    monotone in time, so an event inserted during an earlier cycle
    //    always has the smaller seq;
    //  * depth — same-cycle chains (an event at cycle c scheduling at c):
    //    the serial engine's bucket for c is a FIFO, which runs competing
    //    chains in generation waves, so the chain link count orders them;
    //  * anchor — the lineage id: engine-exclusive insertions (boot,
    //    driver events, barrier-merged records) mint one from the global
    //    counter in single-threaded order — exactly their serial insertion
    //    order — and every in-window insertion inherits the executing
    //    event's anchor, so competing same-cycle insertions on different
    //    shards order by their nearest exclusive ancestors, which the
    //    serial engine executed in exactly that order;
    //  * lseq — queue-local insertion counter: lineages never span shards
    //    (cross-shard effects re-anchor at the barrier), so any remaining
    //    tie is within one shard, where insertion order is serial order.
    // On the legacy path icycle/anchor/lseq all follow the one insertion
    // counter and depth is 0: the order is exactly the historical
    // (when, seq).
    Cycles icycle;
    uint64_t anchor;
    uint64_t lseq;
    uint32_t depth;
    uint32_t slot;  // slab slot of the callback
  };

  static bool Before(const Entry& a, const Entry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    if (a.icycle != b.icycle) {
      return a.icycle < b.icycle;
    }
    if (a.depth != b.depth) {
      return a.depth < b.depth;
    }
    if (a.anchor != b.anchor) {
      return a.anchor < b.anchor;
    }
    return a.lseq < b.lseq;
  }

  // 4-ary heap primitives. Children of node i are 4i+1..4i+4. Insertion and
  // removal move the hole, not the elements pairwise, so each level costs
  // one Entry move.
  void Push(Entry entry);
  Entry PopEntry();

  // Files a freshly filled slot: sharded queues key it into the heap; the
  // serial queue appends it to its cycle's ring bucket when that cycle is
  // less than a ring width away, and heaps it otherwise.
  void Enqueue(Cycles when, uint32_t slot) {
    if (engine_ != nullptr) {
      // Sharded queue: events carry the engine's serial-order key
      // (insertion cycle, chain depth, lineage anchor — see Entry), which
      // a bucket cannot hold, so everything goes through the heap.
      ParallelPush(when, slot);
    } else if (when - now_ < kRingCycles) {
      RingAppend(when, slot);
    } else {
      Entry entry;
      entry.when = when;
      entry.icycle = now_;
      entry.anchor = next_seq_++;
      entry.lseq = entry.anchor;
      entry.depth = 0;
      entry.slot = slot;
      Push(entry);
    }
  }

  // Appends `slot` to the FIFO bucket of cycle `when` (< now_ + ring width).
  void RingAppend(Cycles when, uint32_t slot) {
    uint32_t b = static_cast<uint32_t>(when) & kRingMask;
    uint64_t bit = uint64_t{1} << (b & 63);
    uint64_t& word = occupied_[b >> 6];
    if ((word & bit) != 0) {
      next_[ring_[b].tail] = slot;
    } else {
      ring_[b].head = slot;
      word |= bit;
      occupied_words_ |= uint64_t{1} << (b >> 6);
    }
    ring_[b].tail = slot;
  }

  // Unlinks and returns the first slot of the (non-empty) bucket `b`.
  uint32_t RingPopFront(uint32_t b) {
    Bucket& bucket = ring_[b];
    uint32_t slot = bucket.head;
    if (slot == bucket.tail) {
      uint64_t& word = occupied_[b >> 6];
      word &= ~(uint64_t{1} << (b & 63));
      if (word == 0) {
        occupied_words_ &= ~(uint64_t{1} << (b >> 6));
      }
    } else {
      bucket.head = next_[slot];
    }
    return slot;
  }

  // First occupied bucket at or after `from` in ring order, i.e. the
  // earliest pending ring cycle. The ring must not be empty.
  uint32_t NextOccupied(uint32_t from) const {
    uint32_t w = from >> 6;
    uint64_t bits = occupied_[w] & (~uint64_t{0} << (from & 63));
    if (bits == 0) {
      // Later words first; wrapping round, the lowest occupied word (which
      // may be `w` itself, below `from`) holds the earliest cycle.
      uint64_t later = occupied_words_ & ((~uint64_t{0} << w) << 1);
      w = static_cast<uint32_t>(std::countr_zero(later != 0 ? later : occupied_words_));
      bits = occupied_[w];
    }
    return (w << 6) | static_cast<uint32_t>(std::countr_zero(bits));
  }

  // Moves the clock forward to `t` and, on the serial queue, migrates every
  // heap event now less than a ring width away into its bucket — before
  // anything at `t` runs, so each bucket keeps insertion order.
  void AdvanceClock(Cycles t);

  // Runs the earliest pending event, due at `when` (== NextEventWhen()).
  void RunOne(Cycles when);

  InlineFn& SlotFn(uint32_t slot) { return chunks_[slot >> kChunkBits][slot & kChunkMask]; }

  // An empty slab slot: the most recently freed one, else a new one.
  uint32_t AllocSlot() {
    uint32_t slot = free_head_;
    if (slot != kNil) {
      free_head_ = next_[slot];
      return slot;
    }
    slot = static_cast<uint32_t>(next_.size());
    if ((slot & kChunkMask) == 0) {
      chunks_.push_back(std::make_unique<InlineFn[]>(kChunkSlots));
    }
    next_.push_back(kNil);
    return slot;
  }

  // Runs the callback in slot `slot` in place, then recycles the slot.
  void RunSlot(uint32_t slot) {
    SlotFn(slot).Fire();
    next_[slot] = free_head_;
    free_head_ = slot;
  }

  static constexpr uint32_t kRingMask = static_cast<uint32_t>(kRingCycles - 1);
  static_assert(kRingCycles / 64 <= 64, "one summary word covers the occupancy bitmap");
  static constexpr uint32_t kNil = UINT32_MAX;
  // Slab chunk: 256 closures (28 KiB). Chunks never move, so a closure
  // runs in place while the events it schedules grow the slab.
  static constexpr uint32_t kChunkBits = 8;
  static constexpr uint32_t kChunkSlots = 1u << kChunkBits;
  static constexpr uint32_t kChunkMask = kChunkSlots - 1;

  ParallelEngine* engine_ = nullptr;  // null on the legacy single-queue path
  uint32_t shard_index_ = 0;
  Cycles current_icycle_ = 0;         // order key of the executing event...
  uint64_t current_anchor_ = 0;       // ...its lineage anchor...
  uint32_t current_depth_ = 0;        // ...and same-cycle chain depth
  uint64_t next_lseq_ = 0;            // per-queue insertion counter (tiebreak)
  Cycles now_ = 0;
  Cycles horizon_ = 0;  // latest time any work (event or charge) reaches
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  std::vector<Entry> heap_;  // serial: events W or more ahead; sharded: all
  std::vector<std::unique_ptr<InlineFn[]>> chunks_;  // callback slab
  // Per slot: the next slot in its ring bucket, or in the free list.
  std::vector<uint32_t> next_;
  uint32_t free_head_ = kNil;          // most recently freed slot
  // Near-future ring: bucket b holds the events due at the one cycle in
  // [now_, now_ + kRingCycles) congruent to b, oldest insertion first.
  // A bucket's head/tail are valid only while its occupancy bit is set.
  struct Bucket {
    uint32_t head;
    uint32_t tail;
  };
  uint64_t occupied_words_ = 0;        // bit w: occupied_[w] != 0
  uint64_t occupied_[kRingCycles / 64] = {};
  Bucket ring_[kRingCycles] = {};
};

}  // namespace semperos

#endif  // SEMPEROS_SIM_SIMULATION_H_
