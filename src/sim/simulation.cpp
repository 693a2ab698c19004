#include "sim/simulation.h"

#include <utility>

#include "sim/engine.h"

namespace semperos {

thread_local Simulation* ShardContext::current = nullptr;

void Simulation::CrossScheduleAt(Cycles when, InlineFn fn) {
  engine_->RecordCrossSchedule(this, when, std::move(fn));
}

void Simulation::ParallelPush(Cycles when, uint32_t slot) {
  Entry entry;
  entry.when = when;
  entry.slot = slot;
  entry.lseq = next_lseq_++;
  if (ShardContext::current == this) {
    // In-window insertion into the executing shard's own queue (anything
    // cross-shard was deferred in ScheduleAt): inherit the executing
    // event's lineage anchor; count chain depth for same-cycle children.
    entry.icycle = now_;
    entry.anchor = current_anchor_;
    entry.depth = when == now_ ? current_depth_ + 1 : 0;
    CHECK_LT(entry.depth, UINT32_MAX);
  } else {
    // Engine-exclusive context (boot, driver events, barrier-merged
    // records): mint a fresh anchor from the global counter — these
    // insertions happen in single-threaded order, so the counter is
    // exactly their serial insertion order.
    entry.icycle = engine_->ExclusiveICycle();
    entry.anchor = engine_->AllocExclusiveVseq();
    entry.depth = 0;
  }
  Push(entry);
}

uint32_t Simulation::GrowSlab() {
  uint32_t slot = static_cast<uint32_t>(next_.size());
  if ((slot & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<InlineFn[]>(kChunkSlots));
  }
  next_.push_back(kNil);
  due_.push_back(0);
  return slot;
}

void Simulation::HeapPush(Cycles when, uint32_t slot) {
  Entry entry;
  entry.when = when;
  entry.icycle = now_;
  entry.anchor = next_seq_++;
  entry.lseq = entry.anchor;
  entry.depth = 0;
  entry.slot = slot;
  Push(entry);
}

void Simulation::EnterEpoch(Cycles from) {
  const Cycles epoch = Epoch(now_);
  // The coarse ring held epochs [from + 2, from + 2 + C); the fine range is
  // now [epoch, epoch + 2). Drain, earliest first, every coarse bucket that
  // entered it: one bitmap search per drained bucket, one more to stop.
  const uint32_t first = CoarseIndex(from + 2);
  while (coarse_occupied_.Any()) {
    uint32_t b = coarse_occupied_.NextFrom(first);
    if (from + 2 + ((b - first) & kCoarseMask) >= epoch + 2) {
      break;
    }
    coarse_occupied_.Clear(b);
    const Bucket& list = coarse_[b].list;
    for (uint32_t slot = list.head;;) {
      uint32_t next = next_[slot];
      FineAppend(due_[slot], slot);
      if (slot == list.tail) {
        break;
      }
      slot = next;
    }
  }
  // Then the heap events whose epoch entered the coarse range, in heap
  // order, into the buckets the drain just emptied (or the fine ring).
  const Cycles start = now_ & ~kEpochMask;
  while (!heap_.empty() && heap_.front().when - start < kCalendarCycles) {
    Entry entry = PopEntry();
    Enqueue(entry.when, entry.slot);
  }
}

void Simulation::SetTick(Cycles interval, Callback<void(Cycles)> tick) {
  CHECK(engine_ == nullptr && now_ == 0 && interval > 0)
      << "arm a nonzero tick on a serial queue before its clock moves";
  tick_ = std::move(tick);
  tick_interval_ = interval;
  next_tick_ = 0;
}

void Simulation::Tick(Cycles t) {
  do {
    tick_(next_tick_);
    next_tick_ += tick_interval_;
  } while (t > next_tick_);
}

void Simulation::RunOne(Cycles when) {
  CHECK_GE(when, now_) << "event inserted into the queue's past";
  uint32_t slot;
  if (engine_ == nullptr) {
    if (when != now_) {
      AdvanceClock(when);
    }
    slot = FinePopFront(static_cast<uint32_t>(when) & kFineMask);
  } else {
    Entry top = PopEntry();
    now_ = top.when;
    current_icycle_ = top.icycle;
    current_anchor_ = top.anchor;
    current_depth_ = top.depth;
    slot = top.slot;
  }
  RunSlot(slot);
}

uint64_t Simulation::RunWindow(Cycles until) {
  uint64_t ran = 0;
  for (Cycles when; !Idle() && (when = NextEventWhen()) < until; ++ran) {
    RunOne(when);
  }
  events_run_ += ran;
  return ran;
}

void Simulation::Push(Entry entry) {
  size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    size_t parent = (i - 1) / 4;
    if (!Before(entry, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

Simulation::Entry Simulation::PopEntry() {
  Entry top = heap_.front();
  Entry last = heap_.back();
  heap_.pop_back();
  size_t n = heap_.size();
  if (n == 0) {
    return top;
  }
  // Sift the root hole down towards the smallest child, then drop `last` in.
  size_t i = 0;
  for (;;) {
    size_t first_child = 4 * i + 1;
    if (first_child >= n) {
      break;
    }
    size_t end = first_child + 4 < n ? first_child + 4 : n;
    size_t best = first_child;
    for (size_t c = first_child + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

uint64_t Simulation::RunUntilIdle(uint64_t max_events) {
  uint64_t ran = 0;
  for (; ran < max_events && !Idle(); ++ran) {
    RunOne(NextEventWhen());
  }
  if (Idle() && now_ < horizon_) {
    // Trailing charge-only work (NoteTime) extends past the last event;
    // idle time lands exactly where the old no-op events ended.
    AdvanceClock(horizon_);
  }
  events_run_ += ran;
  return ran;
}

uint64_t Simulation::RunUntil(Cycles until) {
  uint64_t ran = 0;
  for (Cycles when; !Idle() && (when = NextEventWhen()) <= until; ++ran) {
    RunOne(when);
  }
  if (now_ < until) {
    AdvanceClock(until);
  }
  events_run_ += ran;
  return ran;
}

}  // namespace semperos
