// Inter-kernel calls: flow control, ordering, and the service directory
// (paper §4.1).
#include <gtest/gtest.h>

#include <cstdint>

#include "audit/cap_audit.h"
#include "dtu/msg_pool.h"
#include "system/client.h"

namespace semperos {
namespace {

TEST(IkcFlowControl, CreditsNeverExceedWindow) {
  // Burst of concurrent spanning delegates between two groups; the sender
  // may never have more than M_inflight (4) requests in flight per peer —
  // excess queues at the sender (ikc_flow_queued counts those).
  DriverRig rig = MakeDriverRig(2, 16);
  std::vector<size_t> k0_clients;
  std::vector<size_t> k1_clients;
  for (size_t i = 0; i < 16; ++i) {
    (rig.kernel_of_client(i)->id() == 0 ? k0_clients : k1_clients).push_back(i);
  }
  ASSERT_EQ(k0_clients.size(), 8u);

  int done = 0;
  for (size_t i : k0_clients) {
    CapSel sel = rig.Grant(i, 4096);
    size_t peer = k1_clients[done % k1_clients.size()];
    rig.client(i).env().Delegate(sel, rig.vpe(peer), [&done](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
      done++;
    });
  }
  rig.p().RunToCompletion();
  EXPECT_EQ(done, 8);
  // 8 delegate requests at once against a window of 4: some must have been
  // flow-control queued. (DelegateReq + DelegateAck per delegate = 16
  // requests K0->K1 in a burst.)
  EXPECT_GT(rig.p().kernel(0)->stats().ikc_flow_queued, 0u);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(IkcFlowControl, SlotArithmeticSupportsMaxKernels) {
  // 8 receive EPs x 32 slots with 4 in flight per peer supports 64 kernels
  // (paper §5.1): 63 peers spread over 8 EPs -> at most 8 peers/EP, each
  // holding at most 4 slots between delivery and dispatch.
  EXPECT_EQ(Kernel::kNumKernelEps * Dtu::kDefaultSlots,
            (Kernel::kMaxKernels - 1 + Kernel::kNumKernelEps - 1) / Kernel::kNumKernelEps * 4 *
                Kernel::kNumKernelEps);
}

TEST(IkcOrdering, RepliesNeverOvertakeWithinAPair) {
  // Two sequential spanning obtains from the same client: strictly ordered
  // completion (the §4.3.1 precondition, carried by the NoC's per-link
  // FIFO).
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel a = rig.Grant(1, 4096);
  CapSel b = rig.Grant(1, 4096);
  std::vector<int> order;
  rig.client(0).env().Obtain(rig.vpe(1), a, [&](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
    order.push_back(1);
    rig.client(0).env().Obtain(rig.vpe(1), b, [&](const SyscallReply& r2) {
      ASSERT_EQ(r2.err, ErrCode::kOk);
      order.push_back(2);
    });
  });
  rig.p().RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(IkcRobustness, UnknownTokenReplyIsCountedNotFatal) {
  // Peer kernels are trusted but can be late or duplicate a reply. A reply
  // whose token matches no pending IKC is counted, and the kernel carries
  // on serving.
  DriverRig rig = MakeDriverRig(2, 2);
  Kernel* k0 = rig.p().kernel(0);
  ASSERT_EQ(k0->stats().ikc_late_replies, 0u);

  // Kernel 1 answers a request kernel 0 never sent: the reply lands on the
  // endpoint kernel 0 receives kernel 1's replies on.
  Message request;
  request.src_node = rig.p().kernel_node(0);
  request.reply_ep = Kernel::kEpKernel0 + (1 % Kernel::kNumKernelEps);
  auto reply = NewMsg<IkcReply>();
  reply->token = UINT64_MAX;
  Dtu& k1_dtu = rig.p().pe(rig.p().kernel_node(1))->dtu();
  ASSERT_TRUE(k1_dtu.SendDeferredReply(request, reply).ok());
  rig.p().RunToCompletion();

  EXPECT_EQ(k0->stats().ikc_late_replies, 1u);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
  AuditReport report = AuditPlatform(rig.p());
  EXPECT_TRUE(report.ok()) << report.ToString();

  // Kernel 0 still completes a spanning exchange afterwards.
  size_t local = rig.kernel_of_client(0) == k0 ? 0 : 1;
  size_t remote = 1 - local;
  ASSERT_EQ(rig.kernel_of_client(local), k0);
  ASSERT_NE(rig.kernel_of_client(remote), k0);
  CapSel sel = rig.Grant(remote, 4096);
  bool obtained = false;
  rig.client(local).env().Obtain(rig.vpe(remote), sel, [&obtained](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    obtained = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(obtained);
}

TEST(ServiceDirectory, AnnouncementsReachAllKernels) {
  // A service registered at one kernel becomes usable from every group
  // (IKC functional group 2).
  PlatformConfig pc;
  pc.kernels = 4;
  pc.services = 1;
  pc.users = 4;
  Platform platform(pc);
  // Minimal in-situ service: registers and accepts sessions.
  class MiniService : public Program {
   public:
    MiniService(NodeId kernel_node, const TimingModel& timing)
        : kernel_node_(kernel_node), timing_(timing) {}
    void Setup() override {
      env_ = std::make_unique<UserEnv>(pe_, kernel_node_, timing_.ask_party);
      env_->SetupEps(true);
      env_->SetAskHandler([this](const AskMsg& ask, UserEnv::AskReplyFn reply) {
        AskReply r;
        r.err = ErrCode::kOk;
        r.share_sel = sel_;
        r.session = next_session_++;
        (void)ask;
        reply(std::move(r));
      });
    }
    void Start() override {
      env_->RegisterService("mini", [this](const SyscallReply& r) {
        ASSERT_EQ(r.err, ErrCode::kOk);
        sel_ = r.sel;
      });
    }

   private:
    NodeId kernel_node_;
    TimingModel timing_;
    std::unique_ptr<UserEnv> env_;
    CapSel sel_ = kInvalidSel;
    uint64_t next_session_ = 1;
  };

  NodeId svc_node = platform.service_nodes()[0];
  Kernel* svc_kernel = platform.kernel_of(svc_node);
  platform.pe(svc_node)->AttachProgram(
      std::make_unique<MiniService>(platform.kernel_node(svc_kernel->id()), pc.timing));

  std::vector<DriverClient*> clients;
  for (NodeId node : platform.user_nodes()) {
    auto client = std::make_unique<DriverClient>(
        platform.kernel_node(platform.membership().KernelOf(node)), pc.timing);
    clients.push_back(client.get());
    platform.pe(node)->AttachProgram(std::move(client));
  }
  platform.Boot();

  // Every client — in every group — can open a session.
  int sessions = 0;
  for (DriverClient* client : clients) {
    client->env().OpenSession("mini", [&sessions](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk) << ErrName(r.err);
      sessions++;
    });
    platform.RunToCompletion();
  }
  EXPECT_EQ(sessions, 4);
  KernelStats stats = platform.TotalKernelStats();
  EXPECT_GT(stats.spanning_obtains, 0u);  // three clients are remote
  EXPECT_EQ(stats.sessions_opened, 4u);
}

TEST(ServiceDirectory, UnknownServiceFails) {
  DriverRig rig = MakeDriverRig(2, 1);
  SyscallReply got;
  rig.client(0).env().OpenSession("no-such-service",
                                  [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchService);
}

TEST(IkcStats, HelloTrafficScalesQuadratically) {
  for (uint32_t kernels : {2u, 4u, 8u}) {
    PlatformConfig pc;
    pc.kernels = kernels;
    Platform platform(pc);
    platform.Boot();
    EXPECT_EQ(platform.TotalKernelStats().ikc_sent, uint64_t{kernels} * (kernels - 1));
  }
}

TEST(ChildDrop, RemoteParentUnlinkedAfterChildRevoke) {
  // v0(K0) delegates to v1(K1); v1 revokes its own copy. The child's kernel
  // must tell the parent's kernel to drop the child entry (kChildDrop).
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel sel = rig.Grant(0, 4096);
  Kernel* k0 = rig.kernel_of_client(0);
  Kernel* k1 = rig.kernel_of_client(1);

  rig.client(0).env().Delegate(sel, rig.vpe(1), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  Capability* parent = k0->CapOf(rig.vpe(0), sel);
  ASSERT_EQ(parent->children().size(), 1u);

  const VpeState* v1 = k1->FindVpe(rig.vpe(1));
  CapSel child_sel = v1->table.LastSel();
  rig.client(1).env().Revoke(child_sel, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();

  EXPECT_TRUE(parent->children().empty()) << "stale cross-kernel child entry";
  EXPECT_NE(k0->CapOf(rig.vpe(0), sel), nullptr) << "parent must survive the child revoke";
}

}  // namespace
}  // namespace semperos
