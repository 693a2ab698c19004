#include "sim/engine.h"

#include <algorithm>
#include <utility>

#include "base/log.h"
#include "noc/noc.h"

namespace semperos {

ParallelEngine::ParallelEngine(std::vector<std::unique_ptr<Simulation>> shards, Cycles lookahead,
                               uint32_t threads)
    : shards_(std::move(shards)), lookahead_(lookahead) {
  CHECK_GE(shards_.size(), 2u) << "sharded engine needs >= 2 shards (use the legacy path)";
  CHECK_GE(lookahead_, 1u) << "NoC lookahead must be >= 1 cycle for conservative windows";
  threads_ = threads < 1 ? 1 : threads;
  if (threads_ > shards_.size()) {
    threads_ = static_cast<uint32_t>(shards_.size());
  }
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->BindEngine(this, i);
  }
  // The driver strand never executes inside a window, but closures that
  // reach it from shard threads must be deferred like any cross-shard
  // schedule; give it the one-past-the-end shard index.
  driver_.BindEngine(this, static_cast<uint32_t>(shards_.size()));
  outboxes_.resize(shards_.size());
  stats_.shard_events.assign(shards_.size(), 0);
  spin_budget_ = std::thread::hardware_concurrency() > 1 ? 4096 : 0;
  // Workers 1..threads-1; the coordinating thread doubles as worker 0.
  workers_.reserve(threads_ - 1);
  for (uint32_t w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ParallelEngine::~ParallelEngine() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
    epoch_.fetch_add(1, std::memory_order_release);  // unblock spinners
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ParallelEngine::WorkerLoop(uint32_t worker) {
  uint64_t seen = 0;
  for (;;) {
    // Spin first (the next window usually starts within microseconds),
    // then park on the condition variable.
    uint32_t spins = 0;
    while (epoch_.load(std::memory_order_acquire) == seen && spins < spin_budget_) {
      ++spins;
    }
    if (epoch_.load(std::memory_order_acquire) == seen) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] {
        return shutdown_ || epoch_.load(std::memory_order_acquire) != seen;
      });
    }
    if (shutdown_) {
      return;
    }
    seen = epoch_.load(std::memory_order_acquire);
    RunShardsOfWorker(worker);
    if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      { std::lock_guard<std::mutex> lk(mu_); }  // pair with the coordinator's wait
      cv_done_.notify_all();
    }
  }
}

void ParallelEngine::RunShardsOfWorker(uint32_t worker) {
  // Static round-robin shard->worker assignment: deterministic, and each
  // shard is only ever touched by one thread per window.
  for (uint32_t i = worker; i < shards_.size(); i += threads_) {
    ShardContext::current = shards_[i].get();
    shards_[i]->RunWindow(window_end_);
    ShardContext::current = nullptr;
  }
}

void ParallelEngine::StartWindow(Cycles until) {
  // Solo-window fast path: most windows of a sparse phase have events on
  // only one or two shards. Waking the pool costs two syscall-laden
  // handshakes per window — far more than draining a couple of small heaps
  // inline — so the coordinator runs sparse windows itself. Results are
  // unaffected: shards are independent inside a window, so who executes
  // them (and in what order) is invisible to the model.
  uint32_t active = 0;
  for (const auto& shard : shards_) {
    active += shard->NextEventWhen() < until ? 1 : 0;
  }
  if (active <= kSoloShardLimit || threads_ == 1) {
    window_end_ = until;
    for (auto& shard : shards_) {
      if (shard->NextEventWhen() < until) {
        ShardContext::current = shard.get();
        shard->RunWindow(until);
        ShardContext::current = nullptr;
      }
    }
    ++stats_.solo_windows;
    return;
  }
  window_end_ = until;
  running_.store(threads_, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  cv_start_.notify_all();
  RunShardsOfWorker(0);
  if (running_.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    uint32_t spins = 0;
    while (running_.load(std::memory_order_acquire) != 0 && spins < spin_budget_) {
      ++spins;
    }
    if (running_.load(std::memory_order_acquire) != 0) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [&] { return running_.load(std::memory_order_acquire) == 0; });
    }
  }
}

void ParallelEngine::RecordCrossSchedule(Simulation* target, Cycles when, InlineFn fn) {
  CHECK(ShardContext::current != nullptr) << "cross-shard schedule outside a window";
  Outbox& box = outboxes_[ShardContext::current->shard_index()];
  CrossRecord rec;
  rec.kind = CrossRecord::Kind::kSchedule;
  rec.when = ShardContext::current->Now();
  rec.parent_icycle = ShardContext::current->current_event_icycle();
  rec.parent_anchor = ShardContext::current->current_event_anchor();
  rec.parent_depth = ShardContext::current->current_event_depth();
  rec.target = target;
  rec.target_when = when;
  rec.fn = std::move(fn);
  box.records.push_back(std::move(rec));
}

void ParallelEngine::RecordSend(NodeId src, NodeId dst, uint32_t bytes, InlineFn deliver) {
  CHECK(ShardContext::current != nullptr) << "deferred NoC send outside a window";
  Outbox& box = outboxes_[ShardContext::current->shard_index()];
  CrossRecord rec;
  rec.kind = CrossRecord::Kind::kSend;
  rec.when = ShardContext::current->Now();
  rec.parent_icycle = ShardContext::current->current_event_icycle();
  rec.parent_anchor = ShardContext::current->current_event_anchor();
  rec.parent_depth = ShardContext::current->current_event_depth();
  rec.src = src;
  rec.dst = dst;
  rec.bytes = bytes;
  rec.fn = std::move(deliver);
  box.records.push_back(std::move(rec));
}

void ParallelEngine::ApplyRecords() {
  // Merge all outboxes in the recording events' execution-key order —
  // (when, parent_icycle, parent_depth, parent_anchor) — i.e. the serial
  // engine's execution order of those events. Each outbox is already
  // sorted (shard-local execution follows the same key, and an event's
  // records are appended consecutively), so a k-way min pick suffices;
  // equal keys only occur within one shard, where outbox position
  // preserves execution order, so the merge is a total order.
  size_t total = 0;
  for (const Outbox& box : outboxes_) {
    total += box.records.size();
  }
  if (total == 0) {
    return;
  }
  auto before = [](const CrossRecord& a, const CrossRecord& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    if (a.parent_icycle != b.parent_icycle) {
      return a.parent_icycle < b.parent_icycle;
    }
    if (a.parent_depth != b.parent_depth) {
      return a.parent_depth < b.parent_depth;
    }
    return a.parent_anchor < b.parent_anchor;
  };
  std::vector<size_t> head(outboxes_.size(), 0);
  for (size_t done = 0; done < total; ++done) {
    uint32_t best = UINT32_MAX;
    for (uint32_t s = 0; s < outboxes_.size(); ++s) {
      if (head[s] >= outboxes_[s].records.size()) {
        continue;
      }
      if (best == UINT32_MAX ||
          before(outboxes_[s].records[head[s]], outboxes_[best].records[head[best]])) {
        best = s;
      }
    }
    CrossRecord& rec = outboxes_[best].records[head[best]++];
    exclusive_icycle_ = rec.when;  // serial inserted this effect at send time
    ++stats_.handoffs;
    if (rec.kind == CrossRecord::Kind::kSend) {
      ++stats_.handoff_sends;
      CHECK(noc_ != nullptr);
      noc_->ApplyDeferredSend(rec.src, rec.dst, rec.bytes, rec.when, window_end_,
                              std::move(rec.fn));
    } else {
      ++stats_.handoff_schedules;
      // Conservative-lookahead invariant: a cross-shard schedule may never
      // target a time the destination shard has already executed past.
      CHECK_GE(rec.target_when, window_end_)
          << "cross-shard schedule violates the NoC lookahead window";
      rec.target->ScheduleAt(rec.target_when, std::move(rec.fn));
    }
  }
  for (Outbox& box : outboxes_) {
    box.records.clear();
  }
}

Cycles ParallelEngine::NextEventTime() const {
  Cycles next = kInfinite;
  for (const auto& shard : shards_) {
    next = std::min(next, shard->NextEventWhen());
  }
  return next;
}

Cycles ParallelEngine::Now() const {
  Cycles now = driver_.Now();
  for (const auto& shard : shards_) {
    now = std::max(now, shard->Now());
  }
  return now;
}

uint64_t ParallelEngine::EventsRun() const {
  uint64_t total = driver_.EventsRun();
  for (const auto& shard : shards_) {
    total += shard->EventsRun();
  }
  return total;
}

bool ParallelEngine::Idle() const {
  if (!driver_.Idle()) {
    return false;
  }
  for (const auto& shard : shards_) {
    if (!shard->Idle()) {
      return false;
    }
  }
  return true;
}

uint64_t ParallelEngine::RunUntilIdle(uint64_t max_events) {
  return RunUntil(kInfinite, max_events);
}

uint64_t ParallelEngine::RunUntil(Cycles until, uint64_t max_events) {
  uint64_t start_events = EventsRun();
  Cycles last_window_end = 0;
  for (;;) {
    if (EventsRun() - start_events >= max_events) {
      break;  // runaway guard; the caller's Idle() CHECK reports it
    }
    Cycles snext = NextEventTime();
    Cycles dnext = driver_.NextEventWhen();
    Cycles next = std::min(snext, dnext);
    if (next == kInfinite || (until != kInfinite && next > until)) {
      break;
    }
    if (dnext <= snext) {
      // Exact-time driver barrier: quiesce every shard at the driver
      // event's cycle, then run the driver with exclusive access to the
      // whole platform — direct calls into kernels behave exactly like the
      // serial engine at this timestamp.
      for (auto& shard : shards_) {
        shard->AdvanceTo(dnext);
      }
      exclusive_icycle_ = dnext;
      uint64_t before = driver_.EventsRun();
      driver_.RunUntil(dnext);
      stats_.driver_events += driver_.EventsRun() - before;
      continue;
    }
    // Normal lockstep window [snext, snext + lookahead), cut early by a
    // pending driver event or an explicit RunUntil bound.
    Cycles end = snext + lookahead_ < snext ? kInfinite : snext + lookahead_;
    end = std::min(end, dnext);
    if (until != kInfinite) {
      end = std::min(end, until + 1);
    }
    if (snext > last_window_end && last_window_end != 0) {
      ++stats_.fast_forwards;  // idle gap skipped between windows
    }
    last_window_end = end;
    StartWindow(end);
    ++stats_.windows;
    ApplyRecords();
  }
  // Drained (or bounded): land every queue on the same final cycle, exactly
  // where the serial engine ends — the explicit RunUntil bound, or the
  // latest work horizon (matching Simulation::RunUntilIdle's trailing
  // charge-only advance).
  Cycles target = until;
  if (until == kInfinite) {
    target = driver_.WorkHorizon();
    for (const auto& shard : shards_) {
      target = std::max(target, shard->WorkHorizon());
    }
  }
  for (auto& shard : shards_) {
    shard->AdvanceTo(target);
  }
  driver_.AdvanceTo(target);
  exclusive_icycle_ = target;  // post-run insertions happen at the new Now()
  return EventsRun() - start_events;
}

const EngineStats& ParallelEngine::stats() {
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    stats_.shard_events[i] = shards_[i]->EventsRun();
  }
  return stats_;
}

}  // namespace semperos
