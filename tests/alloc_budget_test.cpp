// Allocation budget of the request path.
//
// A syscall's way from its arrival at the kernel to the reply — asks, IKCs,
// DTU endpoint configuration, the m3fs service — runs on recycled storage:
// operation records, flat capability tables, rings and one-cache-line
// callbacks (base/flat.h, sim/inline_fn.h). This binary replaces the global
// operator new with a counting one and runs reduced versions of the three
// benchmark workloads on the serial engine, counting allocations during
// RunToCompletion only (construction and boot are excluded). What remains
// is container growth to the peak live count, per-instance setup (session
// and file records, capability tables) and m3fs image growth; each shape
// asserts a per-event budget a little above those residuals, so a closure
// or record that starts allocating per event fails here as its own test.
//
// Skipped where the count does not describe the default build:
// SEMPEROS_DISABLE_POOLS (every closure and record is a fresh allocation by
// design), SEMPEROS_TRACE (span recording) and SEMPEROS_THREADS (the
// sharded engine's outboxes).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fs/fs_image.h"
#include "system/experiment.h"
#include "system/platform.h"
#include "trace/replayer.h"
#include "traffic/arrivals.h"
#include "traffic/traffic.h"
#include "workloads/nginx.h"
#include "workloads/workloads.h"

namespace {

// Serial engine only: one thread allocates while counting is on.
bool g_counting = false;
uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t n) {
  if (g_counting) {
    ++g_allocs;
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  if (g_counting) {
    ++g_allocs;
  }
  std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace semperos {
namespace {

struct Count {
  uint64_t allocs = 0;
  uint64_t events = 0;
  double PerEvent() const { return static_cast<double>(allocs) / static_cast<double>(events); }
};

// Runs the booted platform to completion with the allocation counter on.
Count CountRun(Platform* platform) {
  g_allocs = 0;
  g_counting = true;
  uint64_t events = platform->RunToCompletion();
  g_counting = false;
  Count count{g_allocs, events};
  std::printf("  %llu allocations in %llu events: %.5f per event\n",
              static_cast<unsigned long long>(count.allocs),
              static_cast<unsigned long long>(count.events), count.PerEvent());
  return count;
}

bool SkipReason(std::string* why) {
#ifdef SEMPEROS_DISABLE_POOLS
  *why = "SEMPEROS_DISABLE_POOLS: closures and records are fresh allocations by design";
  return true;
#else
  for (const char* var : {"SEMPEROS_TRACE", "SEMPEROS_THREADS"}) {
    const char* value = std::getenv(var);
    if (value != nullptr && *value != '\0') {
      *why = std::string(var) + " is set: the count covers the untraced serial engine";
      return true;
    }
  }
  return false;
#endif
}

PlatformConfig ShapeConfig(uint32_t kernels, uint32_t services, uint32_t users, bool open_loop,
                           const TimingModel& timing) {
  PlatformConfig pc;
  pc.kernels = kernels;
  pc.services = services;
  pc.users = users;
  pc.loadgens = open_loop ? users : 0;
  pc.mem_tiles = 1;
  pc.timing = timing;
  pc.threads = kForceSerialThreads;
  return pc;
}

// Open-loop shape (the perfbench traffic workloads, scaled down): one nginx
// server per user PE, one Poisson generator per server.
Count RunOpenLoopShape(const std::string& request, uint32_t kernels, uint32_t services,
                       uint32_t servers, double rate_rps, uint64_t requests) {
  const TimingModel timing = TimingModel::SemperOs();
  Platform platform(ShapeConfig(kernels, services, servers, /*open_loop=*/true, timing));
  const bool postmark = request == "postmark";
  const uint64_t warmup = requests / 10;
  FsImage image;
  uint64_t growth = kGrowthHeadroom;
  if (postmark) {
    PopulatePostmarkRequestImage(&image, servers);
    growth += (warmup + requests) * kFsExtentBytes;
  } else {
    PopulateNginxImage(&image);
  }
  image.Freeze();
  AttachServices(&platform, image, timing, image.bytes_used() + growth);
  for (uint32_t i = 0; i < servers; ++i) {
    NodeId node = platform.user_nodes().at(i);
    NodeId kernel_node = platform.kernel_node(platform.membership().KernelOf(node));
    Trace trace = postmark ? MakePostmarkRequestTrace(i) : MakeNginxRequestTrace();
    platform.pe(node)->AttachProgram(
        std::make_unique<NginxServer>(std::move(trace), kernel_node, timing));
  }
  ArrivalSpec arrivals;
  arrivals.rate_rps = rate_rps;
  std::vector<OpenLoopGen*> gens;
  for (uint32_t i = 0; i < servers; ++i) {
    uint64_t warm = warmup / servers;
    uint64_t meas = requests / servers;
    std::vector<Cycles> schedule =
        BuildArrivalSchedule(arrivals, /*seed=*/7, i, servers, warm + meas);
    auto gen = std::make_unique<OpenLoopGen>(platform.user_nodes().at(i), std::move(schedule),
                                             warm, meas, /*pipeline=*/8);
    gens.push_back(gen.get());
    platform.pe(platform.loadgen_nodes().at(i))->AttachProgram(std::move(gen));
  }
  platform.Boot();
  Count count = CountRun(&platform);
  uint64_t completed = 0;
  for (OpenLoopGen* gen : gens) {
    completed += gen->completed();
  }
  EXPECT_EQ(completed, (warmup / servers + requests / servers) * servers);
  return count;
}

// Closed-loop shape (perfbench apps_postmark, scaled down): one PostMark
// trace replay per user PE.
Count RunAppsShape(uint32_t kernels, uint32_t services, uint32_t instances) {
  const TimingModel timing = TimingModel::For(KernelMode::kSemperOSMulti);
  Platform platform(ShapeConfig(kernels, services, instances, /*open_loop=*/false, timing));
  FsImage image;
  PopulateImage(&image, "postmark", instances);
  image.Freeze();
  AttachServices(&platform, image, timing, image.bytes_used() + instances * kGrowthHeadroom);
  std::vector<TraceReplayer*> replayers;
  for (uint32_t i = 0; i < instances; ++i) {
    NodeId node = platform.user_nodes().at(i);
    NodeId kernel_node = platform.kernel_node(platform.membership().KernelOf(node));
    auto replayer = std::make_unique<TraceReplayer>(MakeTrace("postmark", i), kernel_node, timing);
    replayers.push_back(replayer.get());
    platform.pe(node)->AttachProgram(std::move(replayer));
  }
  platform.Boot();
  Count count = CountRun(&platform);
  for (TraceReplayer* r : replayers) {
    EXPECT_TRUE(r->result().done);
  }
  return count;
}

// Budgets: allocations per event during RunToCompletion. On these shapes
// the request path measured 0.0017 (nginx), 0.015 (postmark spanning, almost
// all of it m3fs image growth for the mail files) and 0.093 (apps: the
// per-instance session, file-record and selector-table setup of only 64
// short replays, and image growth) allocations per event. With
// std::function continuations and node-based kernel and m3fs tables the
// same shapes allocated 0.96, 1.04 and 1.16 per event.

TEST(AllocBudget, NginxLocal) {
  std::string why;
  if (SkipReason(&why)) {
    GTEST_SKIP() << why;
  }
  Count c = RunOpenLoopShape("nginx", /*kernels=*/4, /*services=*/4, /*servers=*/32,
                             /*rate_rps=*/400'000, /*requests=*/20'000);
  EXPECT_LT(c.PerEvent(), 0.005) << c.allocs << " allocations in " << c.events << " events";
}

TEST(AllocBudget, PostmarkSpanning) {
  std::string why;
  if (SkipReason(&why)) {
    GTEST_SKIP() << why;
  }
  // One service for four kernels: three quarters of the obtains span
  // kernels (IKC, remote-DDL cache, relays of the capability exchange).
  Count c = RunOpenLoopShape("postmark", /*kernels=*/4, /*services=*/1, /*servers=*/32,
                             /*rate_rps=*/100'000, /*requests=*/10'000);
  EXPECT_LT(c.PerEvent(), 0.03) << c.allocs << " allocations in " << c.events << " events";
}

TEST(AllocBudget, AppsPostmark) {
  std::string why;
  if (SkipReason(&why)) {
    GTEST_SKIP() << why;
  }
  Count c = RunAppsShape(/*kernels=*/4, /*services=*/4, /*instances=*/64);
  EXPECT_LT(c.PerEvent(), 0.15) << c.allocs << " allocations in " << c.events << " events";
}

}  // namespace
}  // namespace semperos
