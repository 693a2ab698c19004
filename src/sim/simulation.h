// Discrete-event simulation engine.
//
// This is the substrate that replaces the paper's gem5 full-system simulation
// (see docs/architecture.md, "Execution substrate"). Time is a 64-bit cycle
// counter; events are closures ordered by (time, insertion sequence) so
// that runs are fully deterministic.
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
// Order. The serial queue is a two-level calendar queue (Brown, CACM 1988)
// in front of an overflow heap, with the levels of a hierarchical timing
// wheel (Varghese & Lauck, SOSP 1987). Time is split into epochs of
// kEpochCycles (E) cycles; ep(x) = x / E.
//  * the fine ring: 2E one-cycle FIFO buckets covering the current and the
//    next epoch, [E * ep(now), E * (ep(now) + 2)). An event due there is
//    appended to its cycle's bucket in O(1). Buckets are intrusive lists
//    linked through one per-slot `next` array and found through a
//    two-level occupancy bitmap (a bit per bucket, a bit per 64-bucket
//    word), so the next non-empty cycle is two count-trailing-zeros away;
//  * the coarse ring: kCoarseEpochs (C) per-epoch FIFO buckets for the C
//    epochs after those, about 1 ms ahead. They are linked through the same
//    `next` array (an event sits in one list at a time) and have their own
//    two-level bitmap. Each keeps its earliest due time, so NextEventWhen()
//    stays O(1) when only coarse events are pending, and each event in one
//    keeps its due time in a per-slot array, which draining the bucket
//    needs;
//  * the heap: an indexed 4-ary min-heap of 24-byte Entry keys (due time,
//    insertion counter, slot) over a flat vector, holding only the events
//    beyond the coarse range.
// The clock moves in one place, AdvanceClock (the event pop, RunUntil's
// final advance, RunUntilIdle's trailing-horizon jump). When
// the epoch changes it first drains, in list order, every coarse bucket
// whose epoch entered the fine range into its cycles' fine buckets, then
// moves the heap events whose epoch entered the coarse range to their
// coarse bucket, or straight to their fine bucket after a long jump. Both
// happen before anything at the new cycle runs.
//
// AdvanceClock is also where the observation tick (SetTick) fires, before
// the clock moves: an unarmed queue pays one compare per clock advance.
//
// So events run in exactly (when, insertion) order:
//  * which level takes an event due at cycle w depends only on
//    ep(w) - ep(now), and the fine limit and the coarse limit only grow.
//    So for any w, every heap insertion happened before every coarse
//    insertion, and every coarse insertion before every fine insertion,
//    and all of w's pending events sit in one level at any time;
//  * each level's bucket for w is emptied into the next level at the
//    advance that brings w into that level's range, before anything can be
//    appended behind it there. The target bucket is empty then: draining
//    the coarse ring first frees the coarse buckets that the heap refills;
//  * FIFO lists keep insertion order within a bucket, the heap pops equal
//    times in insertion order, and the current cycle's fine bucket is the
//    same-cycle FIFO.
//
// E = 2,048 and C = 1,024, from measurements on the perfbench workloads
// (docs/benchmarks.md, "Serial event core"). Behind one 2,048-cycle ring
// the heap took 13.5-24.8% of all serial pushes (seed 1); behind these two
// rings it takes 0.62% on postmark_spanning, 0.007% on nginx_local and
// none on apps_postmark: C epochs, about 1 ms at 2 GHz, hold nearly every
// event scheduled past the fine ring. nginx_local's run_s fell to 0.87x,
// faster in 10 of 10 alternating pairs. A prototype of this design with
// E = 1,024 and C = 2,048 gained only 0.90x there, and a single ring
// widened to 4,096 cycles 0.80-0.94x, against 0.69-0.87x for these
// values. The rings and bitmaps take 48.6 KiB, plus 8 bytes of due time
// per slab slot.
//
// A per-cycle timing wheel once lost to the plain heap here. It kept one
// std::vector per cycle slot, so every push touched a separate heap block
// and the pending set scattered over cold cache lines, and it had no
// bitmap to skip empty slots. Here a bucket is two indices in one flat
// array, the closures stay in the slab, and a push touches the bucket,
// one bitmap word and the slot's `next` entry.
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

class Simulation {
 public:
  // The serial queue's levels (see the file comment for why these values):
  // an epoch is kEpochCycles cycles; the fine ring holds the current and the
  // next epoch cycle by cycle, the coarse ring the kCoarseEpochs epochs
  // after those epoch by epoch, and the heap everything later.
  static constexpr Cycles kEpochCycles = 2048;
  static constexpr uint32_t kCoarseEpochs = 1024;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated time in cycles.
  Cycles Now() const { return now_; }

  // Schedules fn to run `delay` cycles from now.
  template <typename F>
  void Schedule(Cycles delay, F&& fn) {
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

  // Schedules fn at an absolute time (must not be in the past). The
  // callable is built once, in its slab slot.
  template <typename F>
  void ScheduleAt(Cycles when, F&& fn) {
    NoteTime(when);
    uint32_t slot = AllocSlot();
    SlotFn(slot).Emplace(std::forward<F>(fn));
    Enqueue(when, slot);
  }

  // Runs events until the queue is empty. Returns the number of events run.
  // `max_events` guards against runaway simulations.
  uint64_t RunUntilIdle(uint64_t max_events = UINT64_MAX);

  // Runs events with time <= `until`. Pending later events stay queued.
  // Advances Now() to `until` even if the queue drains earlier.
  uint64_t RunUntil(Cycles until);

  bool Idle() const {
    return (fine_occupied_.words | coarse_occupied_.words) == 0 && heap_.empty();
  }
  uint64_t EventsRun() const { return events_run_; }

  // Arms the observation tick before the clock moves: `tick` is called with
  // each multiple of `interval` the clock moves past, in order, after every
  // event due by that boundary and before any later one (Now() still reads
  // the last event's time). A tick schedules nothing, so the events, their
  // order and the clock are those of an unobserved queue.
  void SetTick(Cycles interval, Callback<void(Cycles)> tick);

  // Earliest pending event time, or UINT64_MAX when idle. Each level's
  // events lie past every event of the level before it, so the first
  // non-empty level holds it: the fine ring's first occupied cycle, else
  // the earliest due time of the coarse ring's first occupied epoch.
  Cycles NextEventWhen() const {
    if (fine_occupied_.Any()) {
      uint32_t from = static_cast<uint32_t>(now_) & kFineMask;
      return now_ + ((fine_occupied_.NextFrom(from) - from) & kFineMask);
    }
    if (coarse_occupied_.Any()) {
      return coarse_[coarse_occupied_.NextFrom(CoarseIndex(Epoch(now_) + 2))].earliest;
    }
    return heap_.empty() ? UINT64_MAX : heap_.front().when;
  }

 private:
  // A heap event: its due time, then the insertion counter, which breaks
  // ties between equal due times in insertion order.
  struct Entry {
    Cycles when;
    uint64_t seq;
    uint32_t slot;  // slab slot of the callback
  };
  static_assert(sizeof(Entry) == 24, "a heap key is a due time, a counter and a slot");

  static bool Before(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  // 4-ary heap primitives. Children of node i are 4i+1..4i+4. Insertion and
  // removal move the hole, not the elements pairwise, so each level costs
  // one Entry move.
  void Push(Entry entry);
  Entry PopEntry();

  // Files a freshly filled slot: appends it to its fine or coarse bucket
  // when `when` lies in that ring's range, and heaps it otherwise.
  // AdvanceClock refiles heap events through here too, once they are
  // within the coarse range.
  void Enqueue(Cycles when, uint32_t slot) {
    // Cycles past the start of the current epoch: the fine ring covers two
    // epochs from there, the coarse ring the next kCoarseEpochs.
    Cycles ahead = when - (now_ & ~kEpochMask);
    if (ahead < kFineCycles) {
      FineAppend(when, slot);
    } else if (ahead < kCalendarCycles) {
      CoarseAppend(when, slot);
    } else {
      HeapPush(when, slot);
    }
  }

  // Two-level occupancy bitmap over a ring of N buckets: a bit per bucket,
  // and a summary bit per 64-bucket word.
  template <uint32_t N>
  struct Occupancy {
    static_assert(N % 64 == 0 && N / 64 <= 64, "one summary word covers the bitmap");
    uint64_t words = 0;  // bit w: bits[w] != 0
    uint64_t bits[N / 64] = {};

    bool Any() const { return words != 0; }
    bool Has(uint32_t b) const { return ((bits[b >> 6] >> (b & 63)) & 1) != 0; }
    void Set(uint32_t b) {
      bits[b >> 6] |= uint64_t{1} << (b & 63);
      words |= uint64_t{1} << (b >> 6);
    }
    void Clear(uint32_t b) {
      uint64_t& word = bits[b >> 6];
      word &= ~(uint64_t{1} << (b & 63));
      if (word == 0) {
        words &= ~(uint64_t{1} << (b >> 6));
      }
    }
    // First occupied bucket at or after `from` in ring order. Any() must
    // hold.
    uint32_t NextFrom(uint32_t from) const {
      uint32_t w = from >> 6;
      uint64_t set = bits[w] & (~uint64_t{0} << (from & 63));
      if (set == 0) {
        // Later words first; wrapping round, the lowest occupied word
        // (which may be `w` itself, below `from`) holds the next bucket.
        uint64_t later = words & ((~uint64_t{0} << w) << 1);
        w = static_cast<uint32_t>(std::countr_zero(later != 0 ? later : words));
        set = bits[w];
      }
      return (w << 6) | static_cast<uint32_t>(std::countr_zero(set));
    }
  };

  // A FIFO list of slots, linked through next_. Its head and tail are valid
  // only while its occupancy bit is set.
  struct Bucket {
    uint32_t head;
    uint32_t tail;
  };
  struct CoarseBucket {
    Bucket list;
    Cycles earliest;  // earliest due time in the list
  };

  // Appends `slot` to `list`, bucket `b` of `occupied`. Returns whether the
  // list was empty.
  template <uint32_t N>
  bool Append(Occupancy<N>& occupied, Bucket& list, uint32_t b, uint32_t slot) {
    bool was_empty = !occupied.Has(b);
    if (was_empty) {
      list.head = slot;
      occupied.Set(b);
    } else {
      next_[list.tail] = slot;
    }
    list.tail = slot;
    return was_empty;
  }

  static Cycles Epoch(Cycles t) { return t >> kEpochBits; }
  static uint32_t CoarseIndex(Cycles epoch) { return static_cast<uint32_t>(epoch) & kCoarseMask; }

  // Appends `slot` to the fine bucket of cycle `when` (in the fine range).
  void FineAppend(Cycles when, uint32_t slot) {
    uint32_t b = static_cast<uint32_t>(when) & kFineMask;
    Append(fine_occupied_, fine_[b], b, slot);
  }

  // Appends `slot` to the coarse bucket of `when`'s epoch (in the coarse
  // range) and records its due time.
  void CoarseAppend(Cycles when, uint32_t slot) {
    uint32_t b = CoarseIndex(Epoch(when));
    CoarseBucket& bucket = coarse_[b];
    due_[slot] = when;
    if (Append(coarse_occupied_, bucket.list, b, slot) || when < bucket.earliest) {
      bucket.earliest = when;
    }
  }

  // Unlinks and returns the first slot of the (non-empty) fine bucket `b`.
  uint32_t FinePopFront(uint32_t b) {
    Bucket& bucket = fine_[b];
    uint32_t slot = bucket.head;
    if (slot == bucket.tail) {
      fine_occupied_.Clear(b);
    } else {
      bucket.head = next_[slot];
    }
    return slot;
  }

  // Keys an event beyond the coarse range into the heap.
  void HeapPush(Cycles when, uint32_t slot) { Push(Entry{when, next_seq_++, slot}); }

  // Moves the clock forward to `t`, first calling the tick for every
  // boundary before `t`; entering a new epoch first moves events one level
  // toward the fine ring (EnterEpoch).
  void AdvanceClock(Cycles t) {
    if (t > next_tick_) {
      Tick(t);
    }
    Cycles from = Epoch(now_);
    now_ = t;
    if (Epoch(t) != from) {
      EnterEpoch(from);
    }
  }

  // The clock just left epoch `from` for Epoch(now_). Drains the coarse
  // buckets whose epoch entered the fine range into their fine buckets,
  // then refiles the heap events now within the coarse range — in that
  // order, before anything at the new cycle runs, so every bucket keeps
  // insertion order (see the file comment).
  void EnterEpoch(Cycles from);

  // Calls the tick for every boundary before `t` (> next_tick_).
  void Tick(Cycles t);

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
    return GrowSlab();
  }
  // Appends a slot to the slab (and a chunk when the last one is full).
  uint32_t GrowSlab();

  // Runs the callback in slot `slot` in place, then recycles the slot.
  void RunSlot(uint32_t slot) {
    SlotFn(slot).Fire();
    next_[slot] = free_head_;
    free_head_ = slot;
  }

  static_assert(std::has_single_bit(kEpochCycles) && std::has_single_bit(kCoarseEpochs));
  static constexpr uint32_t kEpochBits = static_cast<uint32_t>(std::countr_zero(kEpochCycles));
  static constexpr Cycles kEpochMask = kEpochCycles - 1;
  static constexpr uint32_t kFineCycles = static_cast<uint32_t>(2 * kEpochCycles);
  static constexpr uint32_t kFineMask = kFineCycles - 1;
  static constexpr uint32_t kCoarseMask = kCoarseEpochs - 1;
  // Cycles past the current epoch's start that the two rings cover.
  static constexpr Cycles kCalendarCycles = kFineCycles + kCoarseEpochs * kEpochCycles;
  static constexpr uint32_t kNil = UINT32_MAX;
  // Slab chunk: 256 closures (28 KiB). Chunks never move, so a closure
  // runs in place while the events it schedules grow the slab.
  static constexpr uint32_t kChunkBits = 8;
  static constexpr uint32_t kChunkSlots = 1u << kChunkBits;
  static constexpr uint32_t kChunkMask = kChunkSlots - 1;

  Cycles now_ = 0;
  Cycles horizon_ = 0;  // latest time any work (event or charge) reaches
  Cycles next_tick_ = UINT64_MAX;  // next boundary to report; UINT64_MAX: none
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  std::vector<Entry> heap_;  // events past the coarse range
  std::vector<std::unique_ptr<InlineFn[]>> chunks_;  // callback slab
  // Per slot: the next slot in its bucket, or in the free list.
  std::vector<uint32_t> next_;
  // Per slot: the due time of an event in a coarse bucket.
  std::vector<Cycles> due_;
  uint32_t free_head_ = kNil;  // most recently freed slot
  // Fine ring: bucket b holds the events due at the one cycle of the current
  // and the next epoch congruent to b, oldest insertion first.
  Occupancy<kFineCycles> fine_occupied_;
  Bucket fine_[kFineCycles] = {};
  // Coarse ring: bucket b holds the events due in the one epoch of the
  // kCoarseEpochs after the fine range congruent to b, oldest insertion
  // first.
  Occupancy<kCoarseEpochs> coarse_occupied_;
  CoarseBucket coarse_[kCoarseEpochs] = {};
  // Cold, read only when a boundary is passed, so kept behind the hot state.
  Callback<void(Cycles)> tick_;
  Cycles tick_interval_ = 0;
};

}  // namespace semperos

#endif  // SEMPEROS_SIM_SIMULATION_H_
