#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/flat.h"
#include "base/rng.h"
#include "sim/executor.h"
#include "sim/inline_fn.h"
#include "sim/simulation.h"

namespace semperos {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.Now(), 0u);
  EXPECT_TRUE(sim.Idle());
}

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(Simulation, TieBrokenByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(5, [&] { order.push_back(1); });
  sim.Schedule(5, [&] { order.push_back(2); });
  sim.Schedule(5, [&] { order.push_back(3); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    sim.Schedule(1, [&] {
      sim.Schedule(1, [&] { fired++; });
      fired++;
    });
    fired++;
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.Now(), 3u);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(10, [&] { fired++; });
  sim.Schedule(20, [&] { fired++; });
  sim.Schedule(30, [&] { fired++; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20u);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, RunUntilAdvancesClockWhenQueueDrains) {
  Simulation sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.Now(), 1000u);
}

TEST(Simulation, MaxEventsBudget) {
  Simulation sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(i, [&] { fired++; });
  }
  EXPECT_EQ(sim.RunUntilIdle(4), 4u);
  EXPECT_EQ(fired, 4);
}

TEST(Simulation, CountsEventsRun) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(i, [] {});
  }
  sim.RunUntilIdle();
  EXPECT_EQ(sim.EventsRun(), 7u);
}

TEST(Executor, SerializesWork) {
  Simulation sim;
  Executor exec(&sim);
  std::vector<Cycles> finish_times;
  exec.Post(100, [&] { finish_times.push_back(sim.Now()); });
  exec.Post(50, [&] { finish_times.push_back(sim.Now()); });
  sim.RunUntilIdle();
  ASSERT_EQ(finish_times.size(), 2u);
  EXPECT_EQ(finish_times[0], 100u);  // first job finishes after its cost
  EXPECT_EQ(finish_times[1], 150u);  // second queues behind the first
}

TEST(Executor, IdleGapsAreNotCharged) {
  Simulation sim;
  Executor exec(&sim);
  Cycles t1 = 0;
  exec.Post(10, [&] { t1 = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(t1, 10u);
  // Nothing posted for a while; the core is idle.
  sim.Schedule(100, [] {});  // fires at t=110 (relative to now=10)
  sim.RunUntilIdle();
  Cycles t2 = 0;
  exec.Post(5, [&] { t2 = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(t2, 115u);  // starts at now=110, not at old busy_until=10
  EXPECT_EQ(exec.busy_cycles(), 15u);
}

TEST(Executor, TracksUtilization) {
  Simulation sim;
  Executor exec(&sim);
  exec.Occupy(40);
  exec.Occupy(60);
  sim.RunUntilIdle();
  EXPECT_EQ(exec.busy_cycles(), 100u);
  EXPECT_EQ(exec.busy_until(), 100u);
}

TEST(Executor, FifoOrderPreserved) {
  Simulation sim;
  Executor exec(&sim);
  std::vector<int> order;
  // Post from two different sim events; FIFO across posts must hold.
  sim.Schedule(0, [&] { exec.Post(100, [&] { order.push_back(1); }); });
  sim.Schedule(1, [&] { exec.Post(1, [&] { order.push_back(2); }); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- Queue order against a brute-force reference -------------------------
//
// The serial queue files an event into a fine ring of one-cycle buckets
// (the current and the next epoch), a coarse ring of one-epoch buckets
// (the kCoarseEpochs epochs after those) or a heap (everything later), and
// moves events one level toward the fine ring as the clock's epoch
// advances. Seeded random schedules drive the queue and a reference that
// picks the first pending event of a stable sort by (when, insertion
// index); both must execute the same (when, id) sequence and agree on
// Now(), Idle(), NextEventWhen() and EventsRun() at every stop.

constexpr Cycles kE = Simulation::kEpochCycles;
constexpr Cycles kC = Simulation::kCoarseEpochs;

// Delays at every level boundary: the epoch edges (E, 2E) that bound the
// fine ring, the ends of the coarse range ((C + 1)E, (C + 2)E), each +-1,
// counted from now or from the start of the current epoch, plus anywhere
// in the coarse range and far into the heap.
Cycles BoundaryDelay(Rng& rng, Cycles now) {
  constexpr Cycles kEdges[] = {kE, 2 * kE, (kC + 1) * kE, (kC + 2) * kE};
  switch (rng.NextBelow(8)) {
    case 0:
      return 0;
    case 1:
    case 2: {
      // Edge + {-1, 0, 1}: as a delay, or as a point past the epoch start.
      Cycles delay = kEdges[rng.NextBelow(4)] + rng.NextBelow(3) - 1;
      return rng.NextBelow(2) == 0 ? delay : delay - now % kE;
    }
    case 3:
      return (2 + rng.NextBelow(kC)) * kE + rng.NextBelow(kE);  // coarse range
    case 4:
      return (kC + 2 + rng.NextBelow(3 * kC)) * kE + rng.NextBelow(kE);  // heap
    default:
      return rng.NextBelow(2 * kE);
  }
}

// What an event does depends only on its id and on how much spawn budget
// is left, so both sides replay one script as long as they run events in
// the same order.
struct Script {
  struct Step {
    std::vector<std::pair<Cycles, uint64_t>> children;  // (delay, id)
    Cycles note = 0;  // charge-only work past Now(), 0 = none
  };

  uint64_t seed;
  uint64_t budget;
  uint64_t next_id = 0;

  uint64_t NewId() { return next_id++; }

  Step Run(uint64_t id, Cycles now) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + id);
    Step step;
    // Zero to two children, a third of them in the same cycle: chains of
    // same-cycle events compete with each other and with earlier arrivals.
    for (uint64_t n = rng.NextBelow(3); n > 0 && budget > 0; --n, --budget) {
      Cycles delay = rng.NextBelow(3) == 0 ? 0 : BoundaryDelay(rng, now);
      step.children.emplace_back(delay, NewId());
    }
    if (rng.NextBelow(8) == 0) {
      step.note = 1 + rng.NextBelow(6 * kE);
    }
    return step;
  }
};

using Trace = std::vector<std::pair<Cycles, uint64_t>>;  // (when, id) executed

struct EngineSide {
  Simulation sim;
  Script script;
  Trace fired;
  // Each tick: (boundary, events fired when it ran).
  std::vector<std::pair<Cycles, size_t>> ticks;

  void ArmTick(Cycles interval) {
    sim.SetTick(interval, [this](Cycles boundary) { ticks.emplace_back(boundary, fired.size()); });
  }

  void Add(Cycles delay, uint64_t id) {
    sim.Schedule(delay, [this, id] { Fire(id); });
  }

  void Fire(uint64_t id) {
    fired.emplace_back(sim.Now(), id);
    Script::Step step = script.Run(id, sim.Now());
    for (const auto& [delay, child] : step.children) {
      Add(delay, child);
    }
    if (step.note != 0) {
      sim.NoteTime(sim.Now() + step.note);
    }
  }
};

struct ReferenceSide {
  struct Pending {
    Cycles when;
    uint64_t index;  // insertion index
    uint64_t id;
  };

  Script script;
  Trace fired;
  std::vector<Pending> pending;
  uint64_t inserted = 0;
  uint64_t run = 0;
  Cycles now = 0;
  Cycles horizon = 0;

  void Add(Cycles delay, uint64_t id) {
    pending.push_back({now + delay, inserted++, id});
    horizon = std::max(horizon, now + delay);
  }

  std::vector<Pending>::iterator Earliest() {
    return std::min_element(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
      return a.when != b.when ? a.when < b.when : a.index < b.index;
    });
  }

  Cycles NextEventWhen() { return pending.empty() ? UINT64_MAX : Earliest()->when; }

  void RunOne() {
    auto it = Earliest();
    Pending ev = *it;
    pending.erase(it);
    now = ev.when;
    ++run;
    fired.emplace_back(now, ev.id);
    Script::Step step = script.Run(ev.id, now);
    for (const auto& [delay, child] : step.children) {
      Add(delay, child);
    }
    if (step.note != 0) {
      horizon = std::max(horizon, now + step.note);
    }
  }

  void RunUntil(Cycles until) {
    while (!pending.empty() && NextEventWhen() <= until) {
      RunOne();
    }
    now = std::max(now, until);
  }

  void RunUntilIdle() {
    while (!pending.empty()) {
      RunOne();
    }
    now = std::max(now, horizon);
  }
};

// Both sides, and the check that they agree at a stop.
struct Sides {
  Sides(uint64_t seed, uint64_t budget)
      : engine{Simulation(), Script{seed, budget}, {}, {}}, ref{Script{seed, budget}, {}, {}} {}

  void Add(Cycles delay) {
    uint64_t id = engine.script.NewId();
    ref.script.NewId();
    engine.Add(delay, id);
    ref.Add(delay, id);
  }
  void RunUntil(Cycles until) {
    engine.sim.RunUntil(until);
    ref.RunUntil(until);
  }
  // Drains both sides, ending on a charge-only horizon `note` past now.
  void RunUntilIdle(Cycles note) {
    engine.sim.NoteTime(engine.sim.Now() + note);
    ref.horizon = std::max(ref.horizon, ref.now + note);
    engine.sim.RunUntilIdle();
    ref.RunUntilIdle();
  }
  void ExpectSame(const char* where) {
    SCOPED_TRACE(where);
    ASSERT_EQ(engine.fired, ref.fired);
    EXPECT_EQ(engine.sim.Now(), ref.now);
    EXPECT_EQ(engine.sim.Idle(), ref.pending.empty());
    EXPECT_EQ(engine.sim.NextEventWhen(), ref.NextEventWhen());
    EXPECT_EQ(engine.sim.EventsRun(), ref.run);
  }

  EngineSide engine;
  ReferenceSide ref;
};

// The tick of an armed side: every multiple of `interval` before Now()
// ticked once, in order, after every event due by it and before any later
// one.
void ExpectTicks(const EngineSide& side, Cycles interval) {
  const Cycles now = side.sim.Now();
  ASSERT_EQ(side.ticks.size(), now == 0 ? 0 : (now - 1) / interval + 1);
  for (size_t i = 0; i < side.ticks.size(); ++i) {
    const auto [boundary, seen] = side.ticks[i];
    ASSERT_EQ(boundary, i * interval);
    ASSERT_LE(seen, side.fired.size());
    if (seen > 0) {
      ASSERT_LE(side.fired[seen - 1].first, boundary) << "tick " << i << " came too early";
    }
    if (seen < side.fired.size()) {
      ASSERT_GT(side.fired[seen].first, boundary) << "tick " << i << " came too late";
    }
  }
}

class QueueOrder : public ::testing::TestWithParam<uint64_t> {};

// Drives seeded random schedules through both sides. With `tick` > 0 the
// engine side is observed by a tick of that interval, which must not change
// what it runs or when, and must see every boundary at the right point.
void ExpectQueueMatchesStableSort(uint64_t seed, Cycles tick) {
  Rng rng(seed);
  Sides sides(seed, 4000);
  Simulation& sim = sides.engine.sim;
  if (tick != 0) {
    sides.engine.ArmTick(tick);
  }

  // A cycle both sides keep targeting from the main thread as the clock
  // closes in on it: the early insertions wait in the heap, later ones in
  // its coarse bucket, the last ones go straight to its fine bucket, and
  // insertion order must survive every move.
  Cycles hot = (kC + 4) * kE;
  for (int round = 0; round < 80; ++round) {
    for (uint64_t n = 1 + rng.NextBelow(6); n > 0; --n) {
      sides.Add(BoundaryDelay(rng, sim.Now()));
    }
    if (hot < sim.Now()) {
      hot = sim.Now() + (kC + 2 + rng.NextBelow(2)) * kE + rng.NextBelow(kE);
    }
    sides.Add(hot - sim.Now());

    // Every tenth round drains both sides through an idle jump longer than
    // C epochs to a charge-only horizon in mid-epoch.
    if (round % 10 == 9) {
      sides.RunUntilIdle((kC + 3 + rng.NextBelow(kC)) * kE + 1 + rng.NextBelow(kE - 1));
      sides.ExpectSame("RunUntilIdle");
      continue;
    }
    // Stop at a random cycle: now, short of the hot cycle, inside a ring,
    // on a level's edge or past it.
    Cycles until = sim.Now();
    switch (rng.NextBelow(4)) {
      case 0:
        until += rng.NextBelow(kE / 4);
        break;
      case 1:
        until = std::max(until, hot - rng.NextBelow(3 * kE));
        break;
      default:
        until += BoundaryDelay(rng, sim.Now());
    }
    sides.RunUntil(until);
    sides.ExpectSame("RunUntil");
  }

  sides.RunUntilIdle(50 * kE + 7);
  sides.ExpectSame("final RunUntilIdle");
  EXPECT_TRUE(sim.Idle());
  EXPECT_GT(sides.engine.fired.size(), 1000u);
  if (tick != 0) {
    ExpectTicks(sides.engine, tick);
  }
}

TEST_P(QueueOrder, MatchesStableSortAcrossEveryLevel) {
  ExpectQueueMatchesStableSort(GetParam(), 0);
}

// Ticks at the scale of the fine ring, the coarse ring and the heap: the
// boundaries fall between events of every level and inside idle jumps.
TEST_P(QueueOrder, TickedQueueRunsTheSameEventsAtTheSameTimes) {
  const uint64_t seed = GetParam();
  const Cycles intervals[] = {kE / 3 + seed, 3 * kE + seed, (kC + 1) * kE + seed};
  ExpectQueueMatchesStableSort(seed, intervals[seed % 3]);
}

// Only the coarse ring holds events: NextEventWhen() is the earliest due
// time of the first occupied epoch, also when a later insertion into that
// epoch is due earlier than the first.
TEST(QueueLevels, OnlyCoarseEventsPending) {
  Sides sides(1, 0);
  Simulation& sim = sides.engine.sim;
  for (Cycles delay : {3 * kE + 100, 5 * kE, 3 * kE + 5, 3 * kE + 100, (kC + 1) * kE + 3}) {
    sides.Add(delay);
  }
  sides.ExpectSame("scheduled");
  EXPECT_EQ(sim.NextEventWhen(), 3 * kE + 5);
  // Into epoch 1: the fine range reaches epoch 2, so epoch 3 stays coarse.
  sides.RunUntil(kE + 10);
  sides.ExpectSame("epoch 1");
  EXPECT_EQ(sim.NextEventWhen(), 3 * kE + 5);
  sides.RunUntil(3 * kE + 5);
  sides.ExpectSame("first coarse event");
  EXPECT_EQ(sides.engine.fired.size(), 1u);
  sides.RunUntilIdle(0);
  sides.ExpectSame("drained");
}

// Only the heap holds events: NextEventWhen() is its front, and a jump of
// more than C epochs files its events straight into the fine ring or into
// the coarse ring, behind nothing.
TEST(QueueLevels, OnlyHeapEventsPending) {
  Sides sides(1, 0);
  Simulation& sim = sides.engine.sim;
  for (Cycles delay : {(kC + 5) * kE, (kC + 2) * kE + 7, (kC + 2) * kE + 7, (3 * kC) * kE + 1}) {
    sides.Add(delay);
  }
  sides.ExpectSame("scheduled");
  EXPECT_EQ(sim.NextEventWhen(), (kC + 2) * kE + 7);
  sides.RunUntil((kC + 2) * kE + 6);
  sides.ExpectSame("jump past C epochs");
  EXPECT_TRUE(sides.engine.fired.empty());
  sides.Add(0);
  sides.Add(1);
  sides.RunUntil((kC + 3) * kE);
  sides.ExpectSame("fine ring");
  EXPECT_EQ(sides.engine.fired.size(), 4u);
  sides.RunUntilIdle(kC * kE + 3);
  sides.ExpectSame("drained");
}

// One event on each level, ticked every epoch: the boundaries before the
// fine event, between it and the coarse one, and the kC + 2 the jump to the
// heap event passes at once each tick once, in order.
TEST(QueueTick, FiresOncePerBoundaryFromEveryLevel) {
  Sides sides(1, 0);
  sides.engine.ArmTick(kE);
  for (Cycles delay : {kE / 2, 3 * kE + 5, (kC + 5) * kE + 1}) {
    sides.Add(delay);
  }
  sides.RunUntilIdle(0);
  sides.ExpectSame("drained");
  ExpectTicks(sides.engine, kE);
  EXPECT_EQ(sides.engine.ticks.size(), kC + 6);
}

// RunUntil's landing and RunUntilIdle's horizon jump tick like an event
// pop, and a boundary the clock lands on ticks only once the clock leaves
// it: an event due there still runs first.
TEST(QueueTick, LandingsAndIdleJumps) {
  Simulation sim;
  std::vector<Cycles> ticks;
  int events = 0;
  std::vector<int> seen;
  sim.SetTick(100, [&](Cycles boundary) {
    ticks.push_back(boundary);
    seen.push_back(events);
  });
  sim.RunUntil(250);  // an idle jump past three boundaries
  EXPECT_EQ(ticks, (std::vector<Cycles>{0, 100, 200}));
  sim.RunUntil(300);  // lands on a boundary without passing it
  EXPECT_EQ(ticks.size(), 3u);
  sim.ScheduleAt(300, [&] { ++events; });
  sim.NoteTime(850);
  sim.RunUntilIdle();  // the event, then the horizon jump
  EXPECT_EQ(events, 1);
  EXPECT_EQ(sim.Now(), 850u);
  EXPECT_EQ(ticks, (std::vector<Cycles>{0, 100, 200, 300, 400, 500, 600, 700, 800}));
  EXPECT_EQ(seen, (std::vector<int>{0, 0, 0, 1, 1, 1, 1, 1, 1}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueOrder, ::testing::Range<uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// InlineFunction: the one callback type (sim/inline_fn.h)
// ---------------------------------------------------------------------------

// Counts constructions, destructions and calls of one functor type. `Pad`
// bytes of payload decide whether it fits a Callback in place.
template <size_t Pad>
struct Counted {
  static int alive;
  static int calls;
  unsigned char pad[Pad] = {};
  int add = 0;
  explicit Counted(int a) : add(a) { ++alive; }
  Counted(const Counted& o) : add(o.add) { ++alive; }
  Counted(Counted&& o) noexcept : add(o.add) { ++alive; }
  ~Counted() { --alive; }
  int operator()(int x) {
    ++calls;
    return x + add + pad[0];
  }
};
template <size_t Pad>
int Counted<Pad>::alive = 0;
template <size_t Pad>
int Counted<Pad>::calls = 0;

using IntFn = Callback<int(int)>;
using SmallFn = Counted<8>;    // 12 bytes: in place
using LargeFn = Counted<120>;  // 124 bytes: on the heap

static_assert(!std::is_copy_constructible_v<IntFn>);
static_assert(!std::is_copy_assignable_v<IntFn>);
static_assert(std::is_nothrow_move_constructible_v<IntFn>);
static_assert(std::is_nothrow_move_assignable_v<IntFn>);
static_assert(sizeof(IntFn) == 64, "a callback is one cache line");

template <typename Fn>
void CheckDestroysOnce() {
  Fn::alive = 0;
  Fn::calls = 0;
  {
    IntFn a = Fn(1);
    EXPECT_EQ(Fn::alive, 1);
    EXPECT_EQ(a(1), 2);
    IntFn b = std::move(a);
    EXPECT_FALSE(a);
    EXPECT_TRUE(b);
    EXPECT_EQ(Fn::alive, 1);
    IntFn c;
    c = std::move(b);
    EXPECT_FALSE(b);
    EXPECT_EQ(c(2), 3);
    EXPECT_EQ(Fn::alive, 1);
    // Assigning over a live callable destroys the old one first.
    c = Fn(5);
    EXPECT_EQ(Fn::alive, 1);
    EXPECT_EQ(c(1), 6);
    // Fire calls once, destroys, and leaves the object empty.
    EXPECT_EQ(c.Fire(10), 15);
    EXPECT_FALSE(c);
    EXPECT_EQ(Fn::alive, 0);
    IntFn d = Fn(0);
    d = nullptr;
    EXPECT_FALSE(d);
    EXPECT_EQ(Fn::alive, 0);
    IntFn e = Fn(0);
  }
  EXPECT_EQ(Fn::alive, 0);
  EXPECT_EQ(Fn::calls, 4);
}

TEST(InlineFunction, InlinePathDestroysExactlyOnce) {
  CheckDestroysOnce<SmallFn>();
}

TEST(InlineFunction, HeapPathDestroysExactlyOnce) {
  CheckDestroysOnce<LargeFn>();
}

TEST(InlineFunction, StorageFollowsSizeAndPoolsSwitch) {
#ifdef SEMPEROS_DISABLE_POOLS
  // Pools off: everything lives on the heap, so ASan sees stale captures.
  EXPECT_FALSE(IntFn::StoresInline<SmallFn>());
  EXPECT_FALSE(InlineFn::StoresInline<Callback<void()>>());
#else
  EXPECT_TRUE(IntFn::StoresInline<SmallFn>());
  // An event closure carries a callback plus 40 bytes of scalars in place.
  struct CallbackAndScalars {
    Callback<void()> cb;
    uint64_t a[5];
    void operator()() {}
  };
  EXPECT_TRUE(InlineFn::StoresInline<CallbackAndScalars>());
#endif
  EXPECT_FALSE(IntFn::StoresInline<LargeFn>());
}

TEST(InlineFunction, ForwardsArgumentsAndReturnsValues) {
  Callback<std::string(const std::string&, int)> join = [](const std::string& s, int n) {
    return s + std::to_string(n);
  };
  EXPECT_EQ(join("x", 7), "x7");
  // By-value arguments are moved through, so move-only ones work.
  Callback<int(std::unique_ptr<int>)> take = [](std::unique_ptr<int> p) { return *p; };
  EXPECT_EQ(take(std::make_unique<int>(42)), 42);
  EXPECT_EQ(take.Fire(std::make_unique<int>(43)), 43);
  EXPECT_FALSE(take);
  // Move-only captures.
  auto owned = std::make_unique<int>(9);
  Callback<int()> get = [p = std::move(owned)] { return *p; };
  Callback<int()> moved = std::move(get);
  EXPECT_EQ(moved(), 9);
}

TEST(InlineFunction, NullAndBool) {
  Callback<void()> empty;
  EXPECT_FALSE(empty);
  Callback<void()> null = nullptr;
  EXPECT_FALSE(null);
  int hits = 0;
  Callback<void()> set = [&hits] { ++hits; };
  EXPECT_TRUE(set);
  set();
  set();
  EXPECT_EQ(hits, 2);
  set = nullptr;
  EXPECT_FALSE(set);
}

TEST(InlineFunction, EmplaceBuildsInPlaceAndWrapsOtherInstances) {
  SmallFn::alive = 0;
  InlineFn event;
  int out = 0;
  event.Emplace([&out] { out = 1; });
  event.Fire();
  EXPECT_EQ(out, 1);
  // A Callback moved into an event closure is stored whole and fired once.
  Callback<void()> cb = [&out] { out = 2; };
  event.Emplace(std::move(cb));
  EXPECT_FALSE(cb);
  event.Fire();
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(event);
}

// ---------------------------------------------------------------------------
// Ring and RecordPool (base/flat.h)
// ---------------------------------------------------------------------------

TEST(Ring, FifoAcrossGrowthAndWrap) {
  Ring<std::shared_ptr<int>> ring;
  std::deque<int> ref;
  Rng rng(3);
  int next = 0;
  std::weak_ptr<int> popped;
  for (int step = 0; step < 5000; ++step) {
    if (ref.empty() || rng.NextBelow(3) != 0) {
      ring.push_back(std::make_shared<int>(next));
      ref.push_back(next++);
    } else {
      ASSERT_EQ(*ring.front(), ref.front());
      popped = ring.front();
      ring.pop_front();
      ref.pop_front();
      EXPECT_TRUE(popped.expired()) << "a popped slot must release what it held";
    }
    ASSERT_EQ(ring.size(), ref.size());
  }
  std::weak_ptr<int> last = ring.front();
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(last.expired());
}

struct PoolRecord {
  uint32_t pool_slot = 0;
  int value = 0;
  std::vector<int> items;
  void Reset() {
    value = 0;
    items.clear();
  }
};

TEST(RecordPool, RecyclesRecordsAndKeepsCapacity) {
  RecordPool<PoolRecord> pool;
  PoolRecord* a = pool.New();
  PoolRecord* b = pool.New();
  EXPECT_NE(a, b);
  a->value = 1;
  a->items.assign(100, 7);
  EXPECT_EQ(pool.live(), 2u);
  pool.Delete(a);
  EXPECT_EQ(pool.live(), 1u);
  PoolRecord* c = pool.New();
  EXPECT_EQ(c->value, 0);
  EXPECT_TRUE(c->items.empty());
#ifndef SEMPEROS_DISABLE_POOLS
  // Recycled: the same block, its vector capacity kept.
  EXPECT_EQ(c, a);
  EXPECT_GE(c->items.capacity(), 100u);
#endif
  pool.Delete(b);
  pool.Delete(c);
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace semperos
