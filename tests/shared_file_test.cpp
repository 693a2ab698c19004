// Concurrent access to shared files: multiple sessions hold extent
// capabilities for the same file at once, and revocations of one session's
// capabilities never disturb another's.
#include <gtest/gtest.h>

#include "fs/service.h"
#include "system/platform.h"
#include "trace/replayer.h"
#include "workloads/workloads.h"

namespace semperos {
namespace {

constexpr uint64_t KiB = 1024;
constexpr uint64_t MiB = 1024 * 1024;

struct SharedRig {
  std::unique_ptr<Platform> platform;
  FsService* service = nullptr;
  std::vector<TraceReplayer*> replayers;
};

SharedRig MakeShared(uint32_t kernels, const std::vector<Trace>& traces, const FsImage& image) {
  PlatformConfig pc;
  pc.kernels = kernels;
  pc.services = 1;
  pc.users = static_cast<uint32_t>(traces.size());
  SharedRig rig;
  rig.platform = std::make_unique<Platform>(pc);
  Platform& p = *rig.platform;
  NodeId svc = p.service_nodes()[0];
  CapSel mem =
      p.kernel_of(svc)->AdminGrantMem(svc, p.mem_nodes()[0], 0, 1ull << 32, kPermRW);
  auto service = std::make_unique<FsService>(
      "m3fs", image, p.kernel_node(p.kernel_of(svc)->id()), pc.timing, mem);
  rig.service = service.get();
  p.pe(svc)->AttachProgram(std::move(service));
  for (size_t i = 0; i < traces.size(); ++i) {
    NodeId node = p.user_nodes()[i];
    auto replayer = std::make_unique<TraceReplayer>(
        traces[i], p.kernel_node(p.membership().KernelOf(node)), pc.timing);
    rig.replayers.push_back(replayer.get());
    p.pe(node)->AttachProgram(std::move(replayer));
  }
  p.Boot();
  return rig;
}

Trace ReaderTrace(uint64_t bytes) {
  Trace trace;
  trace.app = "reader";
  trace.Open("/shared/data", kOpenRead);
  trace.Read("/shared/data", bytes);
  trace.Close("/shared/data");
  return trace;
}

TEST(SharedFile, ManyConcurrentReaders) {
  FsImage image;
  image.AddDir("/shared");
  image.AddFile("/shared/data", 2 * MiB);
  std::vector<Trace> traces(6, ReaderTrace(2 * MiB));
  SharedRig rig = MakeShared(3, traces, image);
  rig.platform->RunToCompletion();
  for (TraceReplayer* r : rig.replayers) {
    ASSERT_TRUE(r->result().done);
    // session + open + 1 next-extent + 2 close revokes.
    EXPECT_EQ(r->result().cap_ops, 5u);
  }
  // Six independent derivation subtrees under the same file.
  EXPECT_EQ(rig.service->stats().extents_handed, 12u);
  EXPECT_EQ(rig.service->stats().caps_revoked, 12u);
}

TEST(SharedFile, OneClosesOthersKeepReading) {
  FsImage image;
  image.AddDir("/shared");
  image.AddFile("/shared/data", 64 * KiB);
  // Reader 0 closes early; readers 1..2 read a lot more afterwards.
  Trace early = ReaderTrace(4 * KiB);
  Trace late;
  late.app = "late";
  late.Open("/shared/data", kOpenRead);
  late.Compute(50'000);  // outlive reader 0's close
  late.Read("/shared/data", 64 * KiB);
  late.Close("/shared/data");
  SharedRig rig = MakeShared(2, {early, late, late}, image);
  rig.platform->RunToCompletion();
  for (TraceReplayer* r : rig.replayers) {
    ASSERT_TRUE(r->result().done);  // nobody was disturbed by the early close
    EXPECT_EQ(r->result().cap_ops, 3u);
  }
  EXPECT_EQ(rig.platform->TotalDrops(), 0u);
}

TEST(SharedFile, UnlinkRevokesEverySessionsCaps) {
  // One client unlinks the shared file while others hold extent
  // capabilities: only the unlinking session's capabilities are revoked at
  // unlink time (each session owns its own derivation subtree), the file
  // vanishes from the namespace, and later opens fail cleanly.
  FsImage image;
  image.AddDir("/shared");
  image.AddFile("/shared/data", 16 * KiB);
  Trace holder;
  holder.app = "holder";
  holder.Open("/shared/data", kOpenRead);
  holder.Read("/shared/data", 16 * KiB);
  holder.Compute(100'000);
  holder.Unlink("/shared/data");
  holder.Close("/shared/data");
  SharedRig rig = MakeShared(2, {holder}, image);
  rig.platform->RunToCompletion();
  ASSERT_TRUE(rig.replayers[0]->result().done);
  EXPECT_EQ(rig.service->image().Lookup("/shared/data"), nullptr);
  // open(1) + unlink revoke(1) + session(1).
  EXPECT_EQ(rig.replayers[0]->result().cap_ops, 3u);
}

}  // namespace
}  // namespace semperos
