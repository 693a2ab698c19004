// m3fs: image model and end-to-end service behaviour over the capability
// system (paper §2.2, §5.3.1).
#include <gtest/gtest.h>

#include "fs/fs_image.h"
#include "fs/service.h"
#include "system/experiment.h"
#include "system/platform.h"
#include "trace/replayer.h"
#include "workloads/workloads.h"

namespace semperos {
namespace {

constexpr uint64_t KiB = 1024;
constexpr uint64_t MiB = 1024 * 1024;

// ---------------------------------------------------------------------------
// FsImage unit tests
// ---------------------------------------------------------------------------

TEST(FsImage, RootExists) {
  FsImage image;
  const Inode* root = image.Lookup("/");
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->is_dir);
}

TEST(FsImage, AddAndLookupFile) {
  FsImage image;
  image.AddDir("/a");
  image.AddFile("/a/f", 100);
  const Inode* inode = image.Lookup("/a/f");
  ASSERT_NE(inode, nullptr);
  EXPECT_FALSE(inode->is_dir);
  EXPECT_EQ(inode->size, 100u);
  EXPECT_EQ(image.Lookup("/a/missing"), nullptr);
}

TEST(FsImage, FilesGetDisjointExtentAlignedRegions) {
  FsImage image;
  image.AddFile("/f1", 300 * KiB);
  image.AddFile("/f2", 1500 * KiB);
  const Inode* f1 = image.Lookup("/f1");
  const Inode* f2 = image.Lookup("/f2");
  EXPECT_EQ(f1->reserved, kFsExtentBytes);
  EXPECT_EQ(f2->reserved, 2 * kFsExtentBytes);
  EXPECT_GE(f2->offset, f1->offset + f1->reserved);
}

TEST(FsImage, CountEntriesIsDirectChildrenOnly) {
  FsImage image;
  image.AddDir("/d");
  image.AddDir("/d/sub");
  image.AddFile("/d/a", 1);
  image.AddFile("/d/b", 1);
  image.AddFile("/d/sub/c", 1);
  EXPECT_EQ(image.CountEntries("/d"), 3u);  // a, b, sub
  EXPECT_EQ(image.CountEntries("/d/sub"), 1u);
}

TEST(FsImage, UnlinkRemovesFilesNotDirs) {
  FsImage image;
  image.AddDir("/d");
  image.AddFile("/d/f", 10);
  EXPECT_TRUE(image.Unlink("/d/f"));
  EXPECT_EQ(image.Lookup("/d/f"), nullptr);
  EXPECT_FALSE(image.Unlink("/d/f"));  // already gone
  EXPECT_FALSE(image.Unlink("/d"));    // directories are not unlinkable
}

TEST(FsImage, GrowExtendsAndRelocates) {
  FsImage image;
  image.AddFile("/f", 10 * KiB);
  Inode* inode = image.LookupMutable("/f");
  uint64_t offset_before = inode->offset;
  image.Grow(inode, 100 * KiB);  // within the reserved extent
  EXPECT_EQ(inode->offset, offset_before);
  EXPECT_EQ(inode->size, 100 * KiB);
  image.Grow(inode, 3 * MiB);  // beyond: relocated to the log end
  EXPECT_EQ(inode->reserved, 3 * MiB);
  EXPECT_EQ(inode->size, 3 * MiB);
}

TEST(FsImage, CreateAfterUnlinkWorks) {
  FsImage image;
  image.AddFile("/f", 10);
  EXPECT_TRUE(image.Unlink("/f"));
  image.AddFile("/f", 20);
  EXPECT_EQ(image.Lookup("/f")->size, 20u);
}

TEST(FsImage, OpenCreatesOnlyUnderAnExistingParent) {
  FsImage image;
  image.AddDir("/d");
  image.AddFile("/d/f", 10);
  size_t inodes = image.inode_count();
  EXPECT_EQ(image.Open("/d/new", false), nullptr);
  EXPECT_EQ(image.Open("/nodir/new", true), nullptr);
  EXPECT_EQ(image.Lookup("/nodir/new"), nullptr);
  EXPECT_EQ(image.inode_count(), inodes);
  EXPECT_EQ(image.Open("/d/f", true), image.LookupMutable("/d/f"));
  Inode* created = image.Open("/d/new", true);
  ASSERT_NE(created, nullptr);
  EXPECT_EQ(created->size, 0u);
  EXPECT_EQ(image.inode_count(), inodes + 1);
  EXPECT_EQ(image.CountEntries("/d"), 2u);
}

TEST(FsImage, CopiesOfAFrozenImageDivergeIndependently) {
  FsImage base;
  base.AddDir("/d");
  base.AddFile("/d/a", 10);
  base.AddFile("/d/b", 20);
  base.Freeze();
  FsImage left = base;
  FsImage right = base;
  // A promotion and its growth stay in their copy.
  left.Grow(left.LookupMutable("/d/a"), 2 * MiB);
  EXPECT_EQ(left.Lookup("/d/a")->size, 2 * MiB);
  EXPECT_EQ(right.Lookup("/d/a")->size, 10u);
  EXPECT_EQ(base.Lookup("/d/a")->size, 10u);
  // Unlinking a promoted or a plain base entry hides it in that copy only.
  EXPECT_TRUE(left.Unlink("/d/a"));
  EXPECT_TRUE(right.Unlink("/d/b"));
  EXPECT_FALSE(right.Unlink("/d/b"));
  EXPECT_EQ(left.Lookup("/d/a"), nullptr);
  EXPECT_EQ(right.Lookup("/d/b"), nullptr);
  EXPECT_NE(left.Lookup("/d/b"), nullptr);
  EXPECT_NE(right.Lookup("/d/a"), nullptr);
  EXPECT_EQ(left.CountEntries("/d"), 1u);
  EXPECT_EQ(right.CountEntries("/d"), 1u);
  EXPECT_EQ(base.CountEntries("/d"), 2u);
  EXPECT_EQ(right.inode_count(), base.inode_count() - 1);
  // Re-creating over the tombstone makes a new inode.
  const Inode* again = right.AddFile("/d/b", 5);
  EXPECT_NE(again->ino, base.Lookup("/d/b")->ino);
  EXPECT_EQ(right.Lookup("/d/b")->size, 5u);
  EXPECT_EQ(right.CountEntries("/d"), 2u);
  // Freezing a copy merges its overlay into a base of its own.
  EXPECT_TRUE(right.Unlink("/d/a"));
  right.Freeze();
  EXPECT_EQ(right.Lookup("/d/a"), nullptr);
  EXPECT_EQ(right.Lookup("/d/b")->size, 5u);
  EXPECT_EQ(right.CountEntries("/d"), 1u);
  EXPECT_EQ(right.inode_count(), 3u);  // "/", "/d", "/d/b"
  EXPECT_EQ(base.Lookup("/d/b")->size, 20u);
}

TEST(FsImage, MutableInodesStayPutWhileFilesComeAndGo) {
  FsImage image;
  image.AddDir("/d");
  image.AddFile("/d/held", 10);
  Inode* held = image.LookupMutable("/d/held");
  auto name = [](int i) { return "/d/f" + std::to_string(i); };
  for (int step = 2; step < 6; ++step) {
    for (int i = 0; i < 500; ++i) {
      image.AddFile(name(i), 1);
    }
    for (int i = 0; i < 500; i += step) {
      EXPECT_TRUE(image.Unlink(name(i)));
    }
    for (int i = 0; i < 500; ++i) {
      EXPECT_EQ(image.Lookup(name(i)) == nullptr, i % step == 0) << name(i);
    }
    for (int i = 0; i < 500; ++i) {
      EXPECT_EQ(image.Unlink(name(i)), i % step != 0) << name(i);
    }
  }
  EXPECT_EQ(image.LookupMutable("/d/held"), held);
  EXPECT_EQ(held->size, 10u);
  EXPECT_EQ(image.CountEntries("/d"), 1u);
  EXPECT_EQ(image.inode_count(), 3u);
}

// ---------------------------------------------------------------------------
// End-to-end: a hand-written trace against a real service
// ---------------------------------------------------------------------------

struct E2eRig {
  std::unique_ptr<Platform> platform;
  FsService* service = nullptr;
  TraceReplayer* replayer = nullptr;
};

E2eRig MakeE2e(Trace trace, const FsImage& image, uint32_t kernels = 1) {
  PlatformConfig pc;
  pc.kernels = kernels;
  pc.services = 1;
  pc.users = 1;
  E2eRig rig;
  rig.platform = std::make_unique<Platform>(pc);
  Platform& p = *rig.platform;

  NodeId svc_node = p.service_nodes()[0];
  Kernel* svc_kernel = p.kernel_of(svc_node);
  uint64_t region = image.bytes_used() + (64 * MiB);
  CapSel mem_sel = svc_kernel->AdminGrantMem(svc_node, p.mem_nodes()[0], 0, region, kPermRW);
  auto service = std::make_unique<FsService>("m3fs", image, p.kernel_node(svc_kernel->id()),
                                             pc.timing, mem_sel, region);
  rig.service = service.get();
  p.pe(svc_node)->AttachProgram(std::move(service));

  NodeId user_node = p.user_nodes()[0];
  NodeId ker_node = p.kernel_node(p.membership().KernelOf(user_node));
  auto replayer = std::make_unique<TraceReplayer>(std::move(trace), ker_node, pc.timing);
  rig.replayer = replayer.get();
  p.pe(user_node)->AttachProgram(std::move(replayer));

  p.Boot();
  return rig;
}

TEST(FsService, OpenReadCloseHandsAndRevokesOneExtent) {
  FsImage image;
  image.AddFile("/f", 100 * KiB);
  Trace trace;
  trace.app = "test";
  trace.Open("/f", kOpenRead);
  trace.Read("/f", 100 * KiB);
  trace.Close("/f");

  E2eRig rig = MakeE2e(trace, image);
  rig.platform->RunToCompletion();

  const TraceReplayer::Result& result = rig.replayer->result();
  ASSERT_TRUE(result.done);
  // session(1) + open(1) + close revoke(1).
  EXPECT_EQ(result.cap_ops, 3u);
  EXPECT_EQ(rig.service->stats().opens, 1u);
  EXPECT_EQ(rig.service->stats().extents_handed, 1u);
  EXPECT_EQ(rig.service->stats().caps_revoked, 1u);
}

TEST(FsService, CrossingExtentBoundaryObtainsAnotherCapability) {
  // "If the application exceeds this range ... it is provided with an
  // additional memory capability to the next range" (§5.3.1).
  FsImage image;
  image.AddFile("/big", 2048 * KiB);  // 2 extents at 1 MiB
  Trace trace;
  trace.app = "test";
  trace.Open("/big", kOpenRead);
  trace.Read("/big", 2048 * KiB);
  trace.Close("/big");

  E2eRig rig = MakeE2e(trace, image);
  rig.platform->RunToCompletion();

  const TraceReplayer::Result& result = rig.replayer->result();
  ASSERT_TRUE(result.done);
  // session(1) + open(1) + next-extent(1) + 2 close revokes.
  EXPECT_EQ(result.cap_ops, 5u);
  EXPECT_EQ(rig.service->stats().extents_handed, 2u);
  EXPECT_EQ(rig.service->stats().caps_revoked, 2u);
}

TEST(FsService, WritingGrowsAFreshFile) {
  FsImage image;
  image.AddDir("/out");
  Trace trace;
  trace.app = "test";
  trace.Open("/out/new", kOpenWrite | kOpenCreate);
  trace.Write("/out/new", 2500 * KiB);  // 3 extents
  trace.Close("/out/new");

  E2eRig rig = MakeE2e(trace, image);
  rig.platform->RunToCompletion();

  ASSERT_TRUE(rig.replayer->result().done);
  EXPECT_EQ(rig.service->stats().extents_handed, 3u);
  EXPECT_EQ(rig.replayer->result().cap_ops, 1u + 3u + 3u);
  EXPECT_NE(rig.service->image().Lookup("/out/new"), nullptr);
}

TEST(FsService, UnlinkWhileOpenRevokesImmediately) {
  // The SQLite journal pattern (§5.3.1).
  FsImage image;
  image.AddDir("/db");
  Trace trace;
  trace.app = "test";
  trace.Open("/db/journal", kOpenWrite | kOpenCreate);
  trace.Write("/db/journal", 8 * KiB);
  trace.Unlink("/db/journal");
  trace.Close("/db/journal");

  E2eRig rig = MakeE2e(trace, image);
  rig.platform->RunToCompletion();

  ASSERT_TRUE(rig.replayer->result().done);
  // session(1) + open(1) + unlink revoke(1); the close revokes nothing.
  EXPECT_EQ(rig.replayer->result().cap_ops, 3u);
  EXPECT_EQ(rig.service->stats().caps_revoked, 1u);
  EXPECT_EQ(rig.service->image().Lookup("/db/journal"), nullptr);
}

TEST(FsService, MetaOperationsNeedNoCapabilities) {
  FsImage image;
  image.AddDir("/d");
  image.AddFile("/d/f", 10 * KiB);
  Trace trace;
  trace.app = "test";
  trace.Stat("/d/f");
  trace.Stat("/d/missing");
  trace.Mkdir("/d/sub");
  trace.ReadDir("/d");

  E2eRig rig = MakeE2e(trace, image);
  rig.platform->RunToCompletion();

  ASSERT_TRUE(rig.replayer->result().done);
  EXPECT_EQ(rig.replayer->result().cap_ops, 1u);  // only the session obtain
  EXPECT_EQ(rig.service->stats().metas, 4u);
  EXPECT_NE(rig.service->image().Lookup("/d/sub"), nullptr);
}

TEST(FsService, SpanningServiceAccessWorks) {
  // Client and service in different PE groups: every open/extent/close runs
  // the group-spanning protocol (Figure 3, sequence B).
  FsImage image;
  image.AddFile("/f", 64 * KiB);
  Trace trace;
  trace.app = "test";
  trace.Open("/f", kOpenRead);
  trace.Read("/f", 64 * KiB);
  trace.Close("/f");

  // 2 kernels: service lands in group 0, the user in group 1.
  PlatformConfig pc;
  pc.kernels = 2;
  pc.services = 1;
  pc.users = 2;
  Platform platform(pc);
  NodeId svc_node = platform.service_nodes()[0];
  Kernel* svc_kernel = platform.kernel_of(svc_node);
  CapSel mem_sel =
      svc_kernel->AdminGrantMem(svc_node, platform.mem_nodes()[0], 0, 64 * MiB, kPermRW);
  auto service = std::make_unique<FsService>("m3fs", image,
                                             platform.kernel_node(svc_kernel->id()), pc.timing,
                                             mem_sel, 64 * MiB);
  FsService* service_ptr = service.get();
  platform.pe(svc_node)->AttachProgram(std::move(service));

  // Pick the user NOT managed by the service's kernel.
  NodeId user_node = kInvalidNode;
  for (NodeId node : platform.user_nodes()) {
    if (platform.kernel_of(node) != svc_kernel) {
      user_node = node;
    }
  }
  ASSERT_NE(user_node, kInvalidNode);
  auto replayer = std::make_unique<TraceReplayer>(
      trace, platform.kernel_node(platform.membership().KernelOf(user_node)), pc.timing);
  TraceReplayer* replayer_ptr = replayer.get();
  platform.pe(user_node)->AttachProgram(std::move(replayer));

  platform.Boot();
  platform.RunToCompletion();

  ASSERT_TRUE(replayer_ptr->result().done);
  EXPECT_EQ(replayer_ptr->result().cap_ops, 3u);
  EXPECT_EQ(service_ptr->stats().caps_revoked, 1u);
  KernelStats stats = platform.TotalKernelStats();
  EXPECT_GT(stats.spanning_obtains, 0u);
  EXPECT_GT(stats.spanning_revokes, 0u);
}

}  // namespace
}  // namespace semperos
