// Trace format and replayer behaviour, plus the Nginx programs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "audit/cap_audit.h"
#include "dtu/msg_pool.h"
#include "fs/protocol.h"
#include "fs/service.h"
#include "system/experiment.h"
#include "system/platform.h"
#include "trace/replayer.h"
#include "workloads/nginx.h"
#include "workloads/workloads.h"

namespace semperos {
namespace {

constexpr uint64_t KiB = 1024;

TEST(TraceOps, BuildersFillFields) {
  Trace trace;
  trace.Open("/x", kOpenRead);
  TraceOp open = trace.ops.back();
  EXPECT_EQ(open.kind, TraceOpKind::kOpen);
  EXPECT_EQ(trace.Path(open), "/x");
  EXPECT_EQ(open.flags, kOpenRead);
  trace.Read("/x", 123);
  EXPECT_EQ(trace.ops.back().bytes(), 123u);
  trace.Seek("/x", 77);
  EXPECT_EQ(trace.ops.back().offset(), 77u);
  TraceOp compute = TraceOp::Compute(999);
  EXPECT_EQ(compute.compute(), 999u);
  trace.Close("/x");
  EXPECT_EQ(trace.ops.back().kind, TraceOpKind::kClose);
  trace.Stat("/x");
  EXPECT_EQ(trace.ops.back().kind, TraceOpKind::kStat);
  trace.Mkdir("/x");
  EXPECT_EQ(trace.ops.back().kind, TraceOpKind::kMkdir);
  trace.Unlink("/x");
  EXPECT_EQ(trace.ops.back().kind, TraceOpKind::kUnlink);
  trace.ReadDir("/x");
  EXPECT_EQ(trace.ops.back().kind, TraceOpKind::kReadDir);
}

// `trace` packs to a block that decodes to its ops and paths exactly.
void ExpectPacksExactly(const Trace& trace) {
  PackedTrace packed(trace);
  ASSERT_EQ(packed.path_count(), trace.paths.size());
  for (uint32_t i = 0; i < trace.paths.size(); ++i) {
    EXPECT_EQ(packed.Path(i), trace.paths[i]) << "path " << i;
  }
  size_t pos = 0;
  size_t n = 0;
  TraceOp op;
  while (packed.Next(&pos, &op)) {
    ASSERT_LT(n, trace.ops.size());
    const TraceOp& want = trace.ops[n];
    EXPECT_EQ(op.kind, want.kind) << "op " << n;
    EXPECT_EQ(op.flags, want.flags) << "op " << n;
    EXPECT_EQ(op.path, want.path) << "op " << n;
    EXPECT_EQ(op.arg, want.arg) << "op " << n;
    ++n;
  }
  EXPECT_EQ(n, trace.ops.size());
  EXPECT_FALSE(packed.Next(&pos, &op));  // the end stays the end
}

TEST(PackedTrace, DecodesEveryKindFlagAndArgument) {
  constexpr uint64_t kBound = (uint64_t{1} << 48) - 1;  // kTraceTotalLimit - 1
  Trace trace;
  for (uint32_t flags : {kOpenRead, kOpenWrite, kOpenRead | kOpenWrite, kOpenCreate,
                         kOpenWrite | kOpenCreate, kOpenRead | kOpenWrite | kOpenCreate}) {
    trace.Open("/d/f" + std::to_string(flags), flags);
  }
  for (uint64_t arg : {uint64_t{0}, uint64_t{127}, uint64_t{128}, kBound, UINT64_MAX}) {
    trace.Read("/d/f1", arg);
    trace.Write("/d/f2", arg);
    trace.Seek("/d/f3", arg);
    trace.Compute(arg);
  }
  trace.Close("/d/f1");
  trace.Stat("/d/f2");
  trace.Mkdir("/d/sub");
  trace.Unlink("/d/f4");
  trace.ReadDir("/d");
  ExpectPacksExactly(trace);
}

// A parsed trace may name any number of paths: indices past 127 take a
// second varint byte, and past kScanPaths the path table indexes itself.
TEST(PackedTrace, ManyPathsTheEmptyTraceAndPostmark) {
  Trace many;
  for (int i = 0; i < 300; ++i) {
    std::string path = "/many/" + std::to_string(i);
    many.Open(path, kOpenRead);
    many.Read(path, static_cast<uint64_t>(i) << 20);
    many.Close(path);
  }
  ASSERT_EQ(many.paths.size(), 300u);
  ExpectPacksExactly(many);
  ExpectPacksExactly(Trace());
  ExpectPacksExactly(MakeTrace("postmark", 4095));
}

struct Rig {
  std::unique_ptr<Platform> platform;
  FsService* service = nullptr;
  TraceReplayer* replayer = nullptr;
};

Rig RunRig(Trace trace, const FsImage& image) {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.services = 1;
  pc.users = 1;
  Rig rig;
  rig.platform = std::make_unique<Platform>(pc);
  Platform& p = *rig.platform;
  NodeId svc_node = p.service_nodes()[0];
  CapSel mem = p.kernel_of(svc_node)->AdminGrantMem(svc_node, p.mem_nodes()[0], 0, 1ull << 32,
                                                    kPermRW);
  auto service =
      std::make_unique<FsService>("m3fs", image, p.kernel_node(0), pc.timing, mem, 1ull << 32);
  rig.service = service.get();
  p.pe(svc_node)->AttachProgram(std::move(service));
  NodeId user = p.user_nodes()[0];
  auto replayer = std::make_unique<TraceReplayer>(std::move(trace), p.kernel_node(0), pc.timing);
  rig.replayer = replayer.get();
  p.pe(user)->AttachProgram(std::move(replayer));
  p.Boot();
  p.RunToCompletion();
  return rig;
}

TEST(Replayer, SeekRepositionsCursor) {
  FsImage image;
  image.AddFile("/f", 3 * 1024 * KiB);  // 3 extents
  Trace trace;
  trace.app = "t";
  trace.Open("/f", kOpenRead);
  trace.Read("/f", 4 * KiB);  // extent 0
  trace.Seek("/f", 2 * 1024 * KiB);
  trace.Read("/f", 4 * KiB);  // extent 2: one fetch
  trace.Close("/f");
  Rig rig = RunRig(trace, image);
  ASSERT_TRUE(rig.replayer->result().done);
  // open(1) + seek-triggered extent(1) + 2 revokes + session(1) = 5; extent
  // 1 was skipped entirely.
  EXPECT_EQ(rig.replayer->result().cap_ops, 5u);
  EXPECT_EQ(rig.service->stats().extents_handed, 2u);
}

TEST(Replayer, EightConcurrentFilesSupported) {
  FsImage image;
  Trace trace;
  trace.app = "t";
  for (int i = 0; i < 8; ++i) {
    image.AddFile("/f" + std::to_string(i), 4 * KiB);
    trace.Open("/f" + std::to_string(i), kOpenRead);
  }
  for (int i = 0; i < 8; ++i) {
    trace.Read("/f" + std::to_string(i), 4 * KiB);
    trace.Close("/f" + std::to_string(i));
  }
  Rig rig = RunRig(trace, image);
  ASSERT_TRUE(rig.replayer->result().done);
  EXPECT_EQ(rig.replayer->result().cap_ops, 1u + 8u + 8u);
}

TEST(Replayer, EndpointsRecycledAcrossSequentialOpens) {
  FsImage image;
  Trace trace;
  trace.app = "t";
  for (int i = 0; i < 20; ++i) {
    std::string path = "/g" + std::to_string(i);
    image.AddFile(path, 4 * KiB);
    trace.Open(path, kOpenRead);
    trace.Read(path, 4 * KiB);
    trace.Close(path);
  }
  Rig rig = RunRig(trace, image);
  ASSERT_TRUE(rig.replayer->result().done);  // 20 opens > 8 EPs: recycling works
  EXPECT_EQ(rig.replayer->result().cap_ops, 1u + 20u + 20u);
}

TEST(Replayer, RuntimeExcludesBootTime) {
  FsImage image;
  image.AddFile("/f", 4 * KiB);
  Trace trace;
  trace.app = "t";
  trace.Compute(10'000);
  Rig rig = RunRig(trace, image);
  const TraceReplayer::Result& r = rig.replayer->result();
  EXPECT_GT(r.start, 0u);            // boot happened before the trace began
  EXPECT_GT(r.runtime(), 10'000u);   // compute + session open
  EXPECT_LT(r.runtime(), 100'000u);  // but nowhere near the boot time scale
}

// An m3fs impostor. A service PE is untrusted: this one answers the open's
// exchange with a payload, and a stat with a body, that are not FsReplies.
class WrongBodyService : public Program {
 public:
  WrongBodyService(NodeId kernel_node, CapSel mem) : kernel_node_(kernel_node), mem_(mem) {}

  void Setup() override {
    env_ = std::make_unique<UserEnv>(pe_, kernel_node_, /*ask_cost=*/0);
    env_->SetupEps(/*is_service=*/true);
    env_->SetAskHandler([this](const AskMsg& ask, UserEnv::AskReplyFn reply) {
      AskReply answer;
      answer.share_sel = ask.op == AskOp::kOpenSession ? service_sel_ : mem_;
      answer.session = 1;
      answer.payload = NewMsg<FsRequest>();
      reply.Fire(std::move(answer));
    });
    env_->SetRequestHandler(
        [this](const Message& msg) { env_->ReplyRequest(msg, NewMsg<FsRequest>()); });
  }
  void Start() override {
    env_->RegisterService("m3fs", [this](const SyscallReply& reply) { service_sel_ = reply.sel; });
  }

 private:
  NodeId kernel_node_;
  CapSel mem_;
  CapSel service_sel_ = kInvalidSel;
  std::unique_ptr<UserEnv> env_;
};

TEST(Replayer, AnswerThatIsNotAnFsReplyRefusesTheOp) {
  for (bool stat : {false, true}) {
    Trace trace;
    trace.app = "t";
    trace.Compute(100);
    if (stat) {
      trace.Stat("/f");
    } else {
      trace.Open("/f", kOpenRead);
    }
    trace.Compute(100);
    PlatformConfig pc;
    pc.kernels = 1;
    pc.services = 1;
    pc.users = 1;
    Platform p(pc);
    NodeId svc = p.service_nodes()[0];
    CapSel mem = p.kernel_of(svc)->AdminGrantMem(svc, p.mem_nodes()[0], 0, 1 << 20, kPermRW);
    p.pe(svc)->AttachProgram(std::make_unique<WrongBodyService>(p.kernel_node(0), mem));
    auto replayer = std::make_unique<TraceReplayer>(trace, p.kernel_node(0), pc.timing);
    TraceReplayer* app = replayer.get();
    p.pe(p.user_nodes()[0])->AttachProgram(std::move(replayer));
    p.Boot();
    p.RunToCompletion();
    const TraceReplayer::Result& r = app->result();
    EXPECT_FALSE(r.done) << (stat ? "stat" : "open");
    EXPECT_EQ(r.error, ErrCode::kInvalidArgs) << (stat ? "stat" : "open");
    EXPECT_EQ(r.failed_op, 1u) << (stat ? "stat" : "open");
    EXPECT_GT(r.end, r.start);
  }
}

// An m3fs impostor that refuses every ask, the session open included.
class RefusingService : public Program {
 public:
  explicit RefusingService(NodeId kernel_node) : kernel_node_(kernel_node) {}

  void Setup() override {
    env_ = std::make_unique<UserEnv>(pe_, kernel_node_, /*ask_cost=*/0);
    env_->SetupEps(/*is_service=*/true);
    env_->SetAskHandler([](const AskMsg&, UserEnv::AskReplyFn reply) {
      AskReply answer;
      answer.err = ErrCode::kNoPerm;
      reply.Fire(std::move(answer));
    });
  }
  void Start() override { env_->RegisterService("m3fs", [](const SyscallReply&) {}); }

 private:
  NodeId kernel_node_;
  std::unique_ptr<UserEnv> env_;
};

// A service PE is untrusted: a refused session open ends the replay with
// the service's error before any trace op runs, and the simulation goes on.
TEST(Replayer, RefusedSessionOpenEndsTheRun) {
  Trace trace;
  trace.app = "t";
  trace.Open("/f", kOpenRead);
  PlatformConfig pc;
  pc.kernels = 1;
  pc.services = 1;
  pc.users = 1;
  Platform p(pc);
  p.pe(p.service_nodes()[0])->AttachProgram(std::make_unique<RefusingService>(p.kernel_node(0)));
  auto replayer = std::make_unique<TraceReplayer>(trace, p.kernel_node(0), pc.timing);
  TraceReplayer* app = replayer.get();
  p.pe(p.user_nodes()[0])->AttachProgram(std::move(replayer));
  p.Boot();
  p.RunToCompletion();
  const TraceReplayer::Result& r = app->result();
  EXPECT_FALSE(r.done);
  EXPECT_FALSE(r.session);
  EXPECT_EQ(r.error, ErrCode::kNoPerm);
  EXPECT_EQ(r.cap_ops, 0u);
  EXPECT_EQ(r.syscalls, 1u);  // the session open
  EXPECT_GT(r.end, r.start);
  EXPECT_EQ(p.TotalDrops(), 0u);
}

PlatformConfig ServerConfig() {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.services = 1;
  pc.users = 1;
  pc.loadgens = 1;
  return pc;
}

// One request server running `trace` against `service` as its m3fs, fed by
// a closed-loop load generator with two requests outstanding, run to
// completion on a platform of ServerConfig().
struct ServerRun {
  ErrCode error = ErrCode::kOk;
  uint64_t served = 0;
  uint64_t completed = 0;
  uint64_t drops = 0;
  bool audit_ok = false;
};

ServerRun RunServerAgainst(Platform* p, std::unique_ptr<Program> service, Trace trace) {
  p->pe(p->service_nodes()[0])->AttachProgram(std::move(service));
  NodeId node = p->user_nodes()[0];
  auto server = std::make_unique<NginxServer>(std::move(trace), p->kernel_node(0),
                                              ServerConfig().timing);
  NginxServer* srv = server.get();
  p->pe(node)->AttachProgram(std::move(server));
  auto gen = std::make_unique<LoadGen>(node, /*pipeline=*/2);
  LoadGen* lg = gen.get();
  p->pe(p->loadgen_nodes()[0])->AttachProgram(std::move(gen));
  p->Boot();
  p->RunToCompletion();
  return ServerRun{srv->error(), srv->served(), lg->completed(), p->TotalDrops(),
                   AuditPlatform(*p).ok()};
}

// A service PE is untrusted: a refused session open stops the request
// server with the service's error, not the simulation. Its requests stay
// unanswered.
TEST(Nginx, RefusedSessionStopsTheServer) {
  Platform p(ServerConfig());
  ServerRun run = RunServerAgainst(&p, std::make_unique<RefusingService>(p.kernel_node(0)),
                                   MakeNginxRequestTrace());
  EXPECT_EQ(run.error, ErrCode::kNoPerm);
  EXPECT_EQ(run.served, 0u);
  EXPECT_EQ(run.completed, 0u);
  EXPECT_EQ(run.drops, 0u);
  EXPECT_TRUE(run.audit_ok);
}

// A request operation m3fs refuses (here a stat answered with a body that
// is not an FsReply) stops the server with the error.
TEST(Nginx, RefusedRequestOperationStopsTheServer) {
  Platform p(ServerConfig());
  NodeId svc = p.service_nodes()[0];
  CapSel mem = p.kernel_of(svc)->AdminGrantMem(svc, p.mem_nodes()[0], 0, 1 << 20, kPermRW);
  Trace trace;
  trace.app = "request";
  trace.Stat("/f");
  ServerRun run = RunServerAgainst(
      &p, std::make_unique<WrongBodyService>(p.kernel_node(0), mem), std::move(trace));
  EXPECT_EQ(run.error, ErrCode::kInvalidArgs);
  EXPECT_EQ(run.served, 0u);
  EXPECT_EQ(run.completed, 0u);
  EXPECT_EQ(run.drops, 0u);
  EXPECT_TRUE(run.audit_ok);
}

TEST(Nginx, RequestTraceShape) {
  Trace trace = MakeNginxRequestTrace();
  EXPECT_EQ(trace.expected_cap_ops, 2u);
  bool has_open = false;
  bool has_close = false;
  bool has_compute = false;
  for (const TraceOp& op : trace.ops) {
    has_open |= op.kind == TraceOpKind::kOpen;
    has_close |= op.kind == TraceOpKind::kClose;
    has_compute |= op.kind == TraceOpKind::kCompute;
  }
  EXPECT_TRUE(has_open);
  EXPECT_TRUE(has_close);
  EXPECT_TRUE(has_compute);
}

// The request server runs the applications' m3fs client: a request trace
// may seek, read across an extent boundary, mkdir and readdir.
TEST(Nginx, ServerRunsEveryTraceOp) {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.services = 1;
  pc.users = 1;
  pc.loadgens = 1;
  Platform p(pc);
  FsImage image;
  image.AddDir("/www");
  image.AddFile("/www/big", 2 * 1024 * KiB);  // two extents
  AttachServices(&p, image, pc.timing, image.bytes_used() + kGrowthHeadroom);
  Trace trace;
  trace.app = "request";
  trace.Stat("/www/big");
  trace.Open("/www/big", kOpenRead);
  trace.Seek("/www/big", 1024 * KiB - 4 * KiB);
  trace.Read("/www/big", 8 * KiB);  // crosses into extent 1
  trace.Close("/www/big");
  trace.Mkdir("/www/tmp");
  trace.ReadDir("/www");
  trace.Compute(10'000);
  NodeId server_node = p.user_nodes()[0];
  auto server = std::make_unique<NginxServer>(trace, p.kernel_node(0), pc.timing);
  NginxServer* srv = server.get();
  p.pe(server_node)->AttachProgram(std::move(server));
  auto gen = std::make_unique<LoadGen>(server_node, 1);
  LoadGen* lg = gen.get();
  p.pe(p.loadgen_nodes()[0])->AttachProgram(std::move(gen));
  p.Boot();
  p.sim().RunUntil(p.sim().Now() + 2'000'000);

  EXPECT_GE(srv->served(), 3u);
  EXPECT_GE(lg->completed() + 1, srv->served());
  const auto* fs = dynamic_cast<const FsService*>(p.pe(p.service_nodes()[0])->program());
  ASSERT_NE(fs, nullptr);
  // Every served request obtained extent 0 at open and extent 1 mid-read.
  EXPECT_GE(fs->stats().extents_handed, 2 * srv->served());
  EXPECT_NE(fs->image().Lookup("/www/tmp"), nullptr);
  EXPECT_EQ(p.TotalDrops(), 0u);
}

TEST(Nginx, ServerServesBackToBackRequests) {
  NginxRunConfig config;
  config.kernels = 1;
  config.services = 1;
  config.servers = 1;
  config.warmup = 200'000;
  config.window = 2'000'000;
  NginxRunResult result = RunNginx(config);
  // One server must sustain a steady request rate (thousands per second).
  EXPECT_GT(result.completed, 5u);
  EXPECT_GT(result.requests_per_sec, 4000.0);
}

TEST(Nginx, MoreOsResourcesNeverHurt) {
  NginxRunConfig small;
  small.kernels = 2;
  small.services = 2;
  small.servers = 16;
  small.warmup = 300'000;
  small.window = 1'000'000;
  NginxRunResult limited = RunNginx(small);
  NginxRunConfig big = small;
  big.kernels = 8;
  big.services = 8;
  NginxRunResult ample = RunNginx(big);
  EXPECT_GE(ample.requests_per_sec, limited.requests_per_sec * 0.95);
}

TEST(Experiment, SystemEfficiencyMath) {
  // 512 instances at 75% with 64 OS PEs: 0.75 * 512/576 = 66.7%.
  EXPECT_NEAR(SystemEfficiency(0.75, 512, 32, 32), 0.75 * 512.0 / 576.0, 1e-9);
  // The paper's headline: 11% of the system for the OS at 32K+32S+512.
  EXPECT_NEAR(64.0 / 576.0, 0.111, 0.001);
}

TEST(Experiment, SoloRunHasMakespanEqualRuntime) {
  AppRunConfig config;
  config.app = "find";
  config.kernels = 1;
  config.services = 1;
  config.instances = 1;
  AppRunResult result = RunApp(config);
  EXPECT_NEAR(result.mean_runtime_us, result.max_runtime_us, 1e-9);
  EXPECT_NEAR(CyclesToMicros(result.makespan), result.mean_runtime_us, 1.0);
}

TEST(Experiment, RunsAreDeterministic) {
  AppRunConfig config;
  config.app = "leveldb";
  config.kernels = 4;
  config.services = 4;
  config.instances = 16;
  AppRunResult a = RunApp(config);
  AppRunResult b = RunApp(config);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.mean_runtime_us, b.mean_runtime_us);
}

}  // namespace
}  // namespace semperos
