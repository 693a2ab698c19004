// Allocation and memory budgets.
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
// The byte budgets hold the largest scale point (4,096 instances) in
// check: the frozen m3fs image and a service's copy of it, one instance's
// trace as built and 4,096 replayers holding theirs packed, and
// constructing and booting the platform (DTU endpoints, per-kernel VPE
// tables), both what that allocates and what it still holds once boot
// returned, and again after the first platform was destroyed. Two more
// hold a VPE's selector table to its live capabilities under
// derive/revoke churn, and a load generator's arrival schedule to about 3
// bytes a request.
//
// The per-event budgets, and the byte budgets that run a platform, are
// skipped where the count does not describe the default build:
// SEMPEROS_DISABLE_POOLS (every closure and record is a fresh allocation by
// design) and SEMPEROS_TRACE (span recording).
#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fs/fs_image.h"
#include "system/client.h"
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
uint64_t g_bytes = 0;  // bytes asked of operator new
// Bytes held: the usable size of every block allocated minus that of every
// block freed, while counting.
int64_t g_held = 0;

void* Counted(void* p, std::size_t n) {
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  if (g_counting) {
    ++g_allocs;
    g_bytes += n;
    g_held += static_cast<int64_t>(malloc_usable_size(p));
  }
  return p;
}

void* CountedAlloc(std::size_t n) { return Counted(std::malloc(n == 0 ? 1 : n), n); }

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  std::size_t a = static_cast<std::size_t>(align);
  return Counted(std::aligned_alloc(a, (n + a - 1) / a * a), n);
}

void CountedFree(void* p) {
  if (g_counting && p != nullptr) {
    g_held -= static_cast<int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }

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

struct Bytes {
  uint64_t allocated = 0;  // asked of operator new
  int64_t held = 0;        // still held when the counted code returned
};

// Bytes operator new handed out, and bytes still held, when `fn` returned.
template <typename Fn>
Bytes BytesOf(Fn&& fn) {
  g_bytes = 0;
  g_held = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return Bytes{g_bytes, g_held};
}

bool SkipReason(std::string* why) {
#ifdef SEMPEROS_DISABLE_POOLS
  *why = "SEMPEROS_DISABLE_POOLS: closures and records are fresh allocations by design";
  return true;
#else
  const char* trace = std::getenv("SEMPEROS_TRACE");
  if (trace != nullptr && *trace != '\0') {
    *why = "SEMPEROS_TRACE is set: the count covers the untraced serial engine";
    return true;
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
  return pc;
}

// Open-loop shape (the perfbench traffic workloads, scaled down): one nginx
// server per user PE, one Poisson generator per server.
Count RunOpenLoopShape(const std::string& request, uint32_t kernels, uint32_t services,
                       uint32_t servers, double rate_rps, uint64_t requests) {
  const TimingModel timing = TimingModel::SemperOs();
  Platform platform(ShapeConfig(kernels, services, servers, /*open_loop=*/true, timing));
  const RequestShape& shape = FindRequestShape(request);
  const uint64_t warmup = requests / 10;
  FsImage image;
  shape.populate(&image, servers);
  image.Freeze();
  uint64_t growth = kGrowthHeadroom + (warmup + requests) * shape.growth_per_request;
  AttachServices(&platform, image, timing, image.bytes_used() + growth);
  for (uint32_t i = 0; i < servers; ++i) {
    NodeId node = platform.user_nodes().at(i);
    NodeId kernel_node = platform.kernel_node(platform.membership().KernelOf(node));
    platform.pe(node)->AttachProgram(
        std::make_unique<NginxServer>(shape.build(i), kernel_node, timing));
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
// the request path measured 0.0017 (nginx), 0.016 (postmark spanning,
// almost all of it m3fs image growth for the mail files) and 0.096 (apps:
// the per-instance session, file-record and selector-table setup of only
// 64 short replays, and image growth) allocations per event. That includes
// the pools growing back to the run's peak after boot freed its leftovers;
// while boot's stayed parked, the same shapes measured 0.0015, 0.015 and
// 0.092. With std::function continuations and node-based kernel and m3fs
// tables they allocated 0.96, 1.04 and 1.16 per event.

TEST(AllocBudget, NginxLocal) {
  std::string why;
  if (SkipReason(&why)) {
    GTEST_SKIP() << why;
  }
  Count c = RunOpenLoopShape("nginx", /*kernels=*/4, /*services=*/4, /*servers=*/32,
                             /*rate_rps=*/400'000, /*requests=*/20'000);
  EXPECT_LT(c.PerEvent(), 0.003) << c.allocs << " allocations in " << c.events << " events";
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
  EXPECT_LT(c.PerEvent(), 0.017) << c.allocs << " allocations in " << c.events << " events";
}

TEST(AllocBudget, AppsPostmark) {
  std::string why;
  if (SkipReason(&why)) {
    GTEST_SKIP() << why;
  }
  Count c = RunAppsShape(/*kernels=*/4, /*services=*/4, /*instances=*/64);
  EXPECT_LT(c.PerEvent(), 0.1) << c.allocs << " allocations in " << c.events << " events";
}

// A service's copy of a frozen image shares the base and starts with an
// empty overlay. An overlay emptied by clear() keeps its bucket array, and
// every copy allocates one of its own: 336,344 bytes for this image.
TEST(MemoryBudget, FrozenImageCopy) {
  FsImage image;
  PopulateImage(&image, "postmark", 4096);
  image.Freeze();
  std::optional<FsImage> copy;
  uint64_t bytes = BytesOf([&] { copy.emplace(image); }).allocated;
  std::printf("  copy of a %zu-inode image: %llu bytes\n", image.inode_count(),
              static_cast<unsigned long long>(bytes));
  EXPECT_LE(bytes, 4096u);
  EXPECT_EQ(copy->inode_count(), image.inode_count());
  EXPECT_EQ(copy->bytes_used(), image.bytes_used());
}

// The frozen base of the 4,096-instance PostMark image: 36,865 inodes in
// one entry table, one string of path bytes and an index at most half
// full, 2.77 MB. As a node map, with a heap block per inode and per path
// longer than the small-string buffer, it held 3.65 MB.
TEST(MemoryBudget, FrozenImageBase) {
  std::optional<FsImage> image;
  int64_t held = BytesOf([&] {
                   image.emplace();
                   PopulateImage(&*image, "postmark", 4096);
                   image->Freeze();
                 }).held;
  std::printf("  frozen %zu-inode image: %lld bytes held\n", image->inode_count(),
              static_cast<long long>(held));
  EXPECT_EQ(image->inode_count(), 36'865u);
  EXPECT_LT(held, 3'200'000);
}

// 4,096 PostMark replayers built as the benchmark builds them: each
// instance's 81-op trace behind a start-jitter compute op. A replayer holds
// its trace packed: 891 bytes a replayer, the replayer included. Holding
// the Trace (16-byte ops and a path table) took 2,023.
TEST(MemoryBudget, PostmarkReplayers) {
  const uint32_t kInstances = 4096;
  const TimingModel timing = TimingModel::For(KernelMode::kSemperOSMulti);
  std::vector<std::unique_ptr<TraceReplayer>> replayers;
  replayers.reserve(kInstances);
  int64_t held = BytesOf([&] {
                   for (uint32_t i = 0; i < kInstances; ++i) {
                     Trace trace = MakeTrace("postmark", i);
                     trace.ops.insert(trace.ops.begin(), TraceOp::Compute(1 + i % 4000));
                     replayers.push_back(
                         std::make_unique<TraceReplayer>(std::move(trace), 0, timing));
                   }
                 }).held;
  std::printf("  %u replayers: %lld bytes held, %lld each\n", kInstances,
              static_cast<long long>(held), static_cast<long long>(held / kInstances));
  EXPECT_LT(held, 1'400 * static_cast<int64_t>(kInstances));
}

// One PostMark instance's trace: 81 operations on 13 paths. With 72-byte
// operations that each held their path, the op vector's growth alone came
// to about 18 KiB.
TEST(MemoryBudget, PostmarkTraceBuild) {
  Trace trace;
  uint64_t bytes = BytesOf([&] { trace = MakeTrace("postmark", 1234); }).allocated;
  std::printf("  %zu-op trace: %llu bytes\n", trace.ops.size(),
              static_cast<unsigned long long>(bytes));
  EXPECT_LT(bytes, 8u * 1024) << trace.ops.size() << " ops";
  EXPECT_EQ(trace.expected_cap_ops, 38u);
}

// A load generator keeps its arrival schedule as packed gaps, at the byte
// width of its widest gap, and lets the vector go. nginx_local's first
// generator (seed 1, 256 generators at 1.5M req/s, its share of 2,000 +
// 200,000 requests) has 790 arrivals a mean 341k cycles apart, so every gap
// fits 3 bytes. Holding the vector took 8 bytes an arrival.
TEST(MemoryBudget, PackedArrivalSchedule) {
  ArrivalSpec arrivals;
  arrivals.rate_rps = 1'500'000;
  const uint64_t kArrivals = 790;
  std::optional<OpenLoopGen> gen;
  int64_t held = BytesOf([&] {
                   gen.emplace(/*server_node=*/0,
                               BuildArrivalSchedule(arrivals, /*seed=*/1, /*generator=*/0,
                                                    /*generators=*/256, kArrivals),
                               /*measure_from=*/8, /*measure_count=*/782, /*pipeline=*/8);
                 }).held;
  std::printf("  %llu arrivals: %lld bytes held\n", static_cast<unsigned long long>(kArrivals),
              static_cast<long long>(held));
  EXPECT_LE(held, static_cast<int64_t>(4 * kArrivals));
}

// A VPE's selector table holds its live capabilities only. Selectors are
// never reused, so 10,000 derive/revoke cycles name 10,000 selectors while
// at most two capabilities are live. A table indexed by selector grew with
// every one of them: 260,096 bytes over these cycles, where everything else
// the cycles use is recycled (0 bytes now). The budget counts every
// allocation of the cycles, so it runs on the default build only, like the
// per-event budgets.
TEST(MemoryBudget, SelectorTableUnderDeriveRevokeChurn) {
  std::string why;
  if (SkipReason(&why)) {
    GTEST_SKIP() << why;
  }
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 1;
  DriverRig rig = MakeDriverRig(pc);
  CapSel root = rig.Grant(0, 1 << 20);
  UserEnv& env = rig.client(0).env();
  auto cycle = [&] {
    SyscallReply derived;
    env.DeriveMem(root, 0, 4096, kPermR, [&](const SyscallReply& r) { derived = r; });
    rig.p().RunToCompletion();
    ASSERT_EQ(derived.err, ErrCode::kOk);
    SyscallReply revoked;
    env.Revoke(derived.sel, [&](const SyscallReply& r) { revoked = r; });
    rig.p().RunToCompletion();
    ASSERT_EQ(revoked.err, ErrCode::kOk);
  };
  for (int i = 0; i < 100; ++i) {
    cycle();  // pools and rings reach their peak
  }
  uint64_t bytes = BytesOf([&] {
    for (int i = 0; i < 10'000; ++i) {
      cycle();
    }
  }).allocated;
  std::printf("  10,000 derive/revoke cycles: %llu bytes\n",
              static_cast<unsigned long long>(bytes));
  EXPECT_LT(bytes, 4096u);
  EXPECT_EQ(rig.kernel_of_client(0)->FindVpe(rig.vpe(0))->table.size(), 2u);
}

// Construction and boot of the largest scale point: 64 kernels, 64 m3fs
// PEs, 4,096 instances, no programs attached. Boot's closures and spans
// are allocations of their own with pools off or tracing on, so these
// budgets run on the default build only.
Bytes ConstructAndBootLargestPlatform(std::optional<Platform>* platform) {
  PlatformConfig pc;
  pc.kernels = 64;
  pc.services = 64;
  pc.users = 4096;
  // Nothing earlier tests' platforms used is still parked in the message
  // pools (a destroyed platform frees it), so boot's own pool trim counts
  // only this platform's bodies as freed.
  Bytes bytes = BytesOf([&] {
    platform->emplace(pc);
    (*platform)->Boot();
  });
  std::printf("  %zu-PE platform: %llu bytes allocated, %lld still held\n",
              (*platform)->user_nodes().size(), static_cast<unsigned long long>(bytes.allocated),
              static_cast<long long>(bytes.held));
  return bytes;
}

// 11.2 MB. Each PE's DTU keeps its 16 endpoints inline, 32 bytes each, each
// kernel's VPE table indexes its own group only, the kernels share the
// platform's membership table and PE-type list, and an IKC that finds its
// peer's credit free never touches the per-peer queue. With a heap vector
// of 96-byte endpoints per DTU and a slot for every PE in every kernel's
// VPE table this allocated 20.3 MB; with a membership table, a PE-type
// list and eight queue slots per peer in every kernel, 13.1 MB.
TEST(MemoryBudget, LargestPlatformConstructAndBoot) {
  std::string why;
  if (SkipReason(&why)) {
    GTEST_SKIP() << why;
  }
  std::optional<Platform> platform;
  Bytes bytes = ConstructAndBootLargestPlatform(&platform);
  EXPECT_LT(bytes.allocated, 12'400'000u);
}

// What the platform holds once Boot() returned: 5.5 MB. Boot's handshakes
// put an IKC to every peer in flight at once; when they settled, boot frees
// the message bodies, operation records, index tables and rings they left
// parked (Kernel::Trim, TrimMsgPools). Kept for the whole run, as they
// were before, they and the per-kernel tables held 11.2 MB.
TEST(MemoryBudget, LargestPlatformHeldAfterBoot) {
  std::string why;
  if (SkipReason(&why)) {
    GTEST_SKIP() << why;
  }
  std::optional<Platform> platform;
  Bytes bytes = ConstructAndBootLargestPlatform(&platform);
  EXPECT_LT(bytes.held, 6'100'000);
}

// A destroyed platform leaves no message bodies parked in the thread's
// pools: the next platform of the process allocates what the first did.
// Boot frees its own leftovers, so the first platform also runs: every
// kernel shuts down, announcing it to all 63 peers, and those IKC bodies
// park once delivered. While they stayed parked past the platform, the
// second one's boot handshake reused them and allocated 9.11 MB where the
// first allocated 11.24 MB.
TEST(MemoryBudget, DestroyedPlatformLeavesNoBodiesParked) {
  std::string why;
  if (SkipReason(&why)) {
    GTEST_SKIP() << why;
  }
  std::optional<Platform> platform;
  Bytes first = ConstructAndBootLargestPlatform(&platform);
  for (KernelId k = 0; k < platform->kernel_count(); ++k) {
    platform->kernel(k)->AdminShutdown(nullptr);
  }
  platform->RunToCompletion();
  platform.reset();
  Bytes second = ConstructAndBootLargestPlatform(&platform);
  EXPECT_NEAR(static_cast<double>(second.allocated), static_cast<double>(first.allocated),
              0.01 * static_cast<double>(first.allocated));
}

}  // namespace
}  // namespace semperos
