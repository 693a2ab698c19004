// m3fs service behaviour beyond the basics: session lifecycle, local-service
// preference, concurrent clients, and utilization accounting.
#include <gtest/gtest.h>

#include "audit/cap_audit.h"
#include "core/protocol.h"
#include "dtu/msg_pool.h"
#include "fs/service.h"
#include "system/experiment.h"
#include "system/platform.h"
#include "system/client.h"
#include "trace/replayer.h"
#include "workloads/workloads.h"

namespace semperos {
namespace {

constexpr uint64_t KiB = 1024;
constexpr uint64_t MiB = 1024 * 1024;

struct MultiRig {
  std::unique_ptr<Platform> platform;
  std::vector<FsService*> services;
  std::vector<TraceReplayer*> replayers;
};

MultiRig MakeMulti(uint32_t kernels, uint32_t services, const std::vector<Trace>& traces,
                   const FsImage& image) {
  PlatformConfig pc;
  pc.kernels = kernels;
  pc.services = services;
  pc.users = static_cast<uint32_t>(traces.size());
  MultiRig rig;
  rig.platform = std::make_unique<Platform>(pc);
  Platform& p = *rig.platform;
  uint32_t index = 0;
  for (NodeId node : p.service_nodes()) {
    Kernel* kernel = p.kernel_of(node);
    CapSel mem = kernel->AdminGrantMem(node, p.mem_nodes()[0],
                                       static_cast<uint64_t>(index) << 40, 1ull << 36, kPermRW);
    auto service = std::make_unique<FsService>("m3fs", image, p.kernel_node(kernel->id()),
                                               pc.timing, mem, 1ull << 36);
    rig.services.push_back(service.get());
    p.pe(node)->AttachProgram(std::move(service));
    ++index;
  }
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

Trace TinyTrace(uint32_t instance) {
  Trace trace;
  trace.app = "tiny";
  std::string path = "/i" + std::to_string(instance) + "/f";
  trace.Open(path, kOpenRead);
  trace.Read(path, 4 * KiB);
  trace.Close(path);
  return trace;
}

FsImage TinyImage(uint32_t instances) {
  FsImage image;
  for (uint32_t i = 0; i < instances; ++i) {
    image.AddDir("/i" + std::to_string(i));
    image.AddFile("/i" + std::to_string(i) + "/f", 4 * KiB);
  }
  return image;
}

TEST(ServicePreference, ClientsUseTheirGroupsService) {
  // "Kernels which host a service in their PE group prefer to connect their
  // applications to the service in their PE group" (paper §5.3.2).
  std::vector<Trace> traces;
  for (uint32_t i = 0; i < 8; ++i) {
    traces.push_back(TinyTrace(i));
  }
  MultiRig rig = MakeMulti(4, 4, traces, TinyImage(8));
  rig.platform->RunToCompletion();
  // One service per group, 2 clients per group: every service hosts exactly
  // its group's two sessions, and no exchange crosses groups.
  for (FsService* service : rig.services) {
    EXPECT_EQ(service->stats().sessions, 2u);
  }
  EXPECT_EQ(rig.platform->TotalKernelStats().spanning_obtains, 0u);
}

TEST(ServicePreference, RemoteServiceUsedWhenGroupHasNone) {
  std::vector<Trace> traces;
  for (uint32_t i = 0; i < 4; ++i) {
    traces.push_back(TinyTrace(i));
  }
  // 4 kernels but only 2 services: two groups must go remote.
  MultiRig rig = MakeMulti(4, 2, traces, TinyImage(4));
  rig.platform->RunToCompletion();
  uint64_t sessions = 0;
  for (FsService* service : rig.services) {
    sessions += service->stats().sessions;
  }
  EXPECT_EQ(sessions, 4u);
  EXPECT_GT(rig.platform->TotalKernelStats().spanning_obtains, 0u);
}

TEST(SessionGc, KilledClientsSessionIsDropped) {
  // Revoking a session capability (here: through a VPE kill) tells the
  // service to free the session state.
  std::vector<Trace> traces = {TinyTrace(0)};
  FsImage image = TinyImage(1);
  MultiRig rig = MakeMulti(1, 1, traces, image);
  rig.platform->RunToCompletion();
  ASSERT_EQ(rig.services[0]->stats().sessions, 1u);

  NodeId victim = rig.platform->user_nodes()[0];
  bool killed = false;
  rig.platform->kernel_of(victim)->AdminKillVpe(victim, [&] { killed = true; });
  rig.platform->RunToCompletion();
  EXPECT_TRUE(killed);
  // The service saw the close notification (session map emptied).
  EXPECT_EQ(rig.services[0]->stats().sessions, 1u);  // counter is cumulative
  EXPECT_EQ(rig.platform->TotalDrops(), 0u);
}

TEST(Concurrency, ManyClientsShareOneService) {
  std::vector<Trace> traces;
  for (uint32_t i = 0; i < 24; ++i) {
    traces.push_back(TinyTrace(i));
  }
  MultiRig rig = MakeMulti(2, 1, traces, TinyImage(24));
  rig.platform->RunToCompletion();
  for (TraceReplayer* replayer : rig.replayers) {
    ASSERT_TRUE(replayer->result().done);
    EXPECT_EQ(replayer->result().cap_ops, 3u);
  }
  EXPECT_EQ(rig.services[0]->stats().sessions, 24u);
  EXPECT_EQ(rig.services[0]->stats().opens, 24u);
}

TEST(Utilization, ReportedAndPlausible) {
  AppRunConfig config;
  config.app = "postmark";
  config.kernels = 4;
  config.services = 4;
  config.instances = 32;
  AppRunResult result = RunApp(config);
  EXPECT_GT(result.mean_kernel_utilization, 0.01);
  EXPECT_LE(result.max_kernel_utilization, 1.0);
  EXPECT_GE(result.max_kernel_utilization, result.mean_kernel_utilization);
  EXPECT_GT(result.mean_service_utilization, 0.01);
  EXPECT_LE(result.mean_service_utilization, 1.0);
}

TEST(Utilization, KernelsBusierWithFewerOfThem) {
  AppRunConfig config;
  config.app = "postmark";
  config.services = 8;
  config.instances = 64;
  config.kernels = 8;
  double many = RunApp(config).mean_kernel_utilization;
  config.kernels = 2;
  double few = RunApp(config).mean_kernel_utilization;
  EXPECT_GT(few, many);
}

TEST(LargeFiles, SixteenExtentRoundTrip) {
  FsImage image;
  image.AddDir("/i0");
  image.AddFile("/i0/big", 16 * MiB);
  Trace trace;
  trace.app = "big";
  trace.Open("/i0/big", kOpenRead);
  trace.Read("/i0/big", 16 * MiB);
  trace.Close("/i0/big");
  MultiRig rig = MakeMulti(1, 1, {trace}, image);
  rig.platform->RunToCompletion();
  ASSERT_TRUE(rig.replayers[0]->result().done);
  // 16 extents: 1 open + 15 next + 16 revokes + session.
  EXPECT_EQ(rig.replayers[0]->result().cap_ops, 1u + 16u + 16u);
  EXPECT_EQ(rig.services[0]->stats().extents_handed, 16u);
}

// ---------------------------------------------------------------------------
// Rejections: client input that used to abort the service
// ---------------------------------------------------------------------------

// One m3fs service and two bare clients that speak to it through UserEnv.
struct RawRig {
  std::unique_ptr<Platform> platform;
  FsImage image;  // the frozen template the service copied
  FsService* service = nullptr;
  std::vector<DriverClient*> clients;

  // Calls `send(done)`, runs the platform to completion and returns the
  // syscall reply `done` received.
  template <typename Send>
  SyscallReply Syscall(Send&& send) {
    SyscallReply got;
    got.err = ErrCode::kAborted;
    send([&got](const SyscallReply& r) { got = r; });
    platform->RunToCompletion();
    return got;
  }
  CapSel OpenSession(size_t client) {
    SyscallReply r = Syscall([&](auto cb) { clients[client]->env().OpenSession("m3fs", cb); });
    EXPECT_EQ(r.err, ErrCode::kOk);
    return r.sel;
  }
  SyscallReply Exchange(size_t client, CapSel session, std::shared_ptr<FsRequest> req) {
    return Syscall([&](auto cb) { clients[client]->env().Exchange(session, req, cb); });
  }
  // Sends `req` on the client's session channel, runs the platform to
  // completion and returns the answer's error (kAborted if none came).
  ErrCode Request(size_t client, std::shared_ptr<FsRequest> req) {
    ErrCode err = ErrCode::kAborted;
    clients[client]->env().Request(req, [&err](const Message& msg) {
      const FsReply* reply = msg.As<FsReply>();
      ASSERT_NE(reply, nullptr);
      err = reply->err;
    });
    platform->RunToCompletion();
    return err;
  }
};

RawRig MakeRawRig() {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.services = 1;
  pc.users = 2;
  RawRig rig;
  rig.platform = std::make_unique<Platform>(pc);
  Platform& p = *rig.platform;
  rig.image = TinyImage(1);  // /i0/f, 4 KiB
  rig.image.Freeze();
  AttachServices(&p, rig.image, pc.timing, rig.image.bytes_used() + kGrowthHeadroom);
  rig.service = dynamic_cast<FsService*>(p.pe(p.service_nodes()[0])->program());
  for (NodeId node : p.user_nodes()) {
    auto client = std::make_unique<DriverClient>(p.kernel_node(p.membership().KernelOf(node)),
                                               pc.timing);
    rig.clients.push_back(client.get());
    p.pe(node)->AttachProgram(std::move(client));
  }
  p.Boot();
  return rig;
}

std::shared_ptr<FsRequest> OpenRequest(const std::string& path, uint32_t flags) {
  auto req = NewMsg<FsRequest>();
  req->op = FsOp::kOpen;
  req->path = path;
  req->flags = flags;
  return req;
}

// The platform is intact and the service serves a fresh client.
void ExpectServiceHealthy(RawRig& rig) {
  CapSel session = rig.OpenSession(1);
  SyscallReply open = rig.Exchange(1, session, OpenRequest("/i0/f", kOpenRead));
  EXPECT_EQ(open.err, ErrCode::kOk);
  EXPECT_EQ(open.cap.mem_size, 4 * KiB);
  EXPECT_EQ(rig.platform->TotalDrops(), 0u);
  AuditReport audit = AuditPlatform(*rig.platform);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(Rejections, ReadOnlyCreateIsOutOfRange) {
  RawRig rig = MakeRawRig();
  ASSERT_NE(rig.service, nullptr);
  CapSel session = rig.OpenSession(0);
  size_t inodes = rig.service->image().inode_count();
  // Extent 0 of a new, empty file cannot back a read-only capability.
  SyscallReply got = rig.Exchange(0, session, OpenRequest("/i0/new", kOpenCreate));
  EXPECT_EQ(got.err, ErrCode::kOutOfRange);
  EXPECT_EQ(rig.service->stats().out_of_range, 1u);
  EXPECT_EQ(rig.service->stats().opens, 0u);
  // The rejected create left no file behind.
  EXPECT_EQ(rig.service->image().Lookup("/i0/new"), nullptr);
  EXPECT_EQ(rig.service->image().inode_count(), inodes);
  ExpectServiceHealthy(rig);
}

TEST(Rejections, CreateUnderMissingParentIsNoSuchFile) {
  RawRig rig = MakeRawRig();
  ASSERT_NE(rig.service, nullptr);
  CapSel session = rig.OpenSession(0);
  size_t inodes = rig.service->image().inode_count();
  for (uint32_t flags : {kOpenWrite | kOpenCreate, kOpenRead | kOpenCreate}) {
    SyscallReply got = rig.Exchange(0, session, OpenRequest("/nodir/new", flags));
    EXPECT_EQ(got.err, ErrCode::kNoSuchFile);
  }
  EXPECT_EQ(rig.service->stats().opens, 0u);
  EXPECT_EQ(rig.service->stats().out_of_range, 0u);
  EXPECT_EQ(rig.service->image().Lookup("/nodir/new"), nullptr);
  EXPECT_EQ(rig.service->image().inode_count(), inodes);
  ExpectServiceHealthy(rig);
}

TEST(Rejections, MkdirUnderMissingParentIsNoSuchFile) {
  RawRig rig = MakeRawRig();
  ASSERT_NE(rig.service, nullptr);
  rig.OpenSession(0);
  size_t inodes = rig.service->image().inode_count();
  auto mkdir = [](const std::string& path) {
    auto req = NewMsg<FsRequest>();
    req->op = FsOp::kMkdir;
    req->path = path;
    return req;
  };
  EXPECT_EQ(rig.Request(0, mkdir("/missing/dir")), ErrCode::kNoSuchFile);
  EXPECT_EQ(rig.service->image().Lookup("/missing/dir"), nullptr);
  EXPECT_EQ(rig.service->image().inode_count(), inodes);
  // Under an existing parent the same request creates the directory once.
  EXPECT_EQ(rig.Request(0, mkdir("/i0/dir")), ErrCode::kOk);
  EXPECT_EQ(rig.Request(0, mkdir("/i0/dir")), ErrCode::kExists);
  EXPECT_EQ(rig.service->image().inode_count(), inodes + 1);
  ExpectServiceHealthy(rig);
}

TEST(Rejections, ReadPastTheEndIsOutOfRange) {
  RawRig rig = MakeRawRig();
  ASSERT_NE(rig.service, nullptr);
  CapSel session = rig.OpenSession(0);
  SyscallReply open = rig.Exchange(0, session, OpenRequest("/i0/f", kOpenRead));
  ASSERT_EQ(open.err, ErrCode::kOk);
  const FsReply* opened = MsgAs<FsReply>(open.payload);
  ASSERT_NE(opened, nullptr);
  auto next = NewMsg<FsRequest>();
  next->op = FsOp::kNextExtent;
  next->fid = opened->fid;
  next->offset = 3 * MiB;  // the file holds 4 KiB
  SyscallReply got = rig.Exchange(0, session, next);
  EXPECT_EQ(got.err, ErrCode::kOutOfRange);
  EXPECT_EQ(rig.service->stats().out_of_range, 1u);
  EXPECT_EQ(rig.service->stats().extents_handed, 1u);  // extent 0 only
  ExpectServiceHealthy(rig);
}

TEST(Rejections, WriteExtentBeyondRegionIsOutOfRange) {
  RawRig rig = MakeRawRig();
  ASSERT_NE(rig.service, nullptr);
  CapSel session = rig.OpenSession(0);
  SyscallReply open = rig.Exchange(0, session, OpenRequest("/i0/new", kOpenWrite | kOpenCreate));
  ASSERT_EQ(open.err, ErrCode::kOk);
  const FsReply* opened = MsgAs<FsReply>(open.payload);
  ASSERT_NE(opened, nullptr);
  const FsImage& image = rig.service->image();
  uint64_t used = image.bytes_used();
  ASSERT_NE(image.Lookup("/i0/new"), nullptr);
  uint64_t size = image.Lookup("/i0/new")->size;
  auto next = NewMsg<FsRequest>();
  next->op = FsOp::kNextExtent;
  next->fid = opened->fid;
  next->offset = 1ull << 40;  // 1 TiB: far past the service's memory region
  SyscallReply got = rig.Exchange(0, session, next);
  EXPECT_EQ(got.err, ErrCode::kOutOfRange);
  EXPECT_EQ(rig.service->stats().out_of_range, 1u);
  EXPECT_EQ(rig.service->stats().extents_handed, 1u);  // extent 0 only
  // Refused before the image grew.
  EXPECT_EQ(image.bytes_used(), used);
  EXPECT_EQ(image.Lookup("/i0/new")->size, size);

  // Grow the file up to the region's end (MakeRawRig's region: the 1 MiB
  // template image plus kGrowthHeadroom), so the image fills the region.
  uint64_t region = kFsExtentBytes + kGrowthHeadroom;
  next->offset = region - image.bytes_used() - kFsExtentBytes;
  ASSERT_EQ(rig.Exchange(0, session, next).err, ErrCode::kOk);
  ASSERT_EQ(image.bytes_used(), region);
  // A new file's first extent no longer fits: the create is refused and
  // leaves no file behind.
  size_t inodes = image.inode_count();
  SyscallReply full = rig.Exchange(0, session, OpenRequest("/i0/full", kOpenWrite | kOpenCreate));
  EXPECT_EQ(full.err, ErrCode::kOutOfRange);
  EXPECT_EQ(rig.service->stats().out_of_range, 2u);
  EXPECT_EQ(image.Lookup("/i0/full"), nullptr);
  EXPECT_EQ(image.inode_count(), inodes);
  EXPECT_EQ(image.bytes_used(), region);
  ExpectServiceHealthy(rig);
}

TEST(Rejections, NonFsMessageOnSessionChannel) {
  RawRig rig = MakeRawRig();
  ASSERT_NE(rig.service, nullptr);
  rig.OpenSession(0);
  ErrCode err = ErrCode::kAborted;
  rig.clients[0]->env().Request(std::make_shared<SyscallMsg>(), [&err](const Message& msg) {
    const FsReply* reply = msg.As<FsReply>();
    ASSERT_NE(reply, nullptr);
    err = reply->err;
  });
  rig.platform->RunToCompletion();
  EXPECT_EQ(err, ErrCode::kInvalidArgs);
  EXPECT_EQ(rig.service->stats().malformed, 1u);
  ExpectServiceHealthy(rig);
}

// A read-only open, and a next-extent request on the file it opened, leave
// the inode in the frozen base every copy of the template shares: the
// service's lookup returns the very inode a fresh copy returns. A write open
// copies it into the service's own overlay.
TEST(ImageSharing, ReadOnlyOpenLeavesTheInodeInTheSharedBase) {
  RawRig rig = MakeRawRig();
  ASSERT_NE(rig.service, nullptr);
  const FsImage fresh = rig.image;
  const Inode* shared = fresh.Lookup("/i0/f");
  ASSERT_NE(shared, nullptr);
  CapSel session = rig.OpenSession(0);
  SyscallReply open = rig.Exchange(0, session, OpenRequest("/i0/f", kOpenRead));
  ASSERT_EQ(open.err, ErrCode::kOk);
  const FsReply* opened = MsgAs<FsReply>(open.payload);
  ASSERT_NE(opened, nullptr);
  auto next = NewMsg<FsRequest>();
  next->op = FsOp::kNextExtent;
  next->fid = opened->fid;
  next->offset = 0;
  ASSERT_EQ(rig.Exchange(0, session, next).err, ErrCode::kOk);
  EXPECT_EQ(rig.service->stats().extents_handed, 2u);
  EXPECT_EQ(rig.service->image().Lookup("/i0/f"), shared);

  SyscallReply write = rig.Exchange(0, session, OpenRequest("/i0/f", kOpenWrite));
  ASSERT_EQ(write.err, ErrCode::kOk);
  EXPECT_NE(rig.service->image().Lookup("/i0/f"), shared);
  EXPECT_EQ(fresh.Lookup("/i0/f"), shared);
}

// Activate binds memory capabilities only. A client reaches its service
// through the one-credit send endpoint that opening the session configured,
// and the service sizes its receive slots by one credit per client; a
// session activated on a memory endpoint would be a second credit.
TEST(Rejections, ActivatingASessionIsInvalidCapType) {
  RawRig rig = MakeRawRig();
  ASSERT_NE(rig.service, nullptr);
  CapSel session = rig.OpenSession(0);
  SyscallReply got = rig.Syscall(
      [&](auto cb) { rig.clients[0]->env().Activate(session, user_ep::kMem0, cb); });
  EXPECT_EQ(got.err, ErrCode::kInvalidCapType);
  const Dtu& dtu = rig.platform->pe(rig.platform->user_nodes()[0])->dtu();
  EXPECT_FALSE(dtu.EpValid(user_ep::kMem0));
  ExpectServiceHealthy(rig);
}

}  // namespace
}  // namespace semperos
