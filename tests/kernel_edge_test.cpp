// Kernel edge cases: error paths, type checks, repeated operations, and
// derivation chains.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "audit/cap_audit.h"
#include "dtu/msg_pool.h"
#include "system/client.h"

namespace semperos {
namespace {

// A user program without UserEnv: it writes its syscall messages by hand,
// so it controls every field the kernel receives.
class RawSyscallClient : public Program {
 public:
  explicit RawSyscallClient(NodeId kernel_node) : kernel_node_(kernel_node) {}

  void Setup() override {
    Dtu& dtu = pe_->dtu();
    EpId gate = Kernel::kEpSyscall0 + (pe_->node() % Kernel::kNumSyscallEps);
    dtu.ConfigureSend(user_ep::kSyscallSend, kernel_node_, gate, /*credits=*/1);
    dtu.ConfigureRecv(user_ep::kSyscallReply, 2, [this](EpId, const Message& msg) {
      const SyscallReply* reply = msg.As<SyscallReply>();
      ASSERT_NE(reply, nullptr);
      replies.push_back(reply->err);
    });
  }
  void Start() override {}

  // Sends any body on the syscall gate, a syscall or not.
  void Send(MsgRef msg) {
    Status st = SendReplyingTo(std::move(msg), user_ep::kSyscallReply);
    ASSERT_TRUE(st.ok()) << st.name();
  }
  // Sends on the syscall gate naming any reply endpoint; returns what the
  // DTU answered.
  Status SendReplyingTo(MsgRef msg, EpId reply_ep) {
    return pe_->dtu().Send(user_ep::kSyscallSend, std::move(msg), reply_ep);
  }

  std::vector<ErrCode> replies;

 private:
  NodeId kernel_node_;
};

// A party without UserEnv: it keeps every ask the kernel sends it and
// answers one only when the test says so, with whatever body it is given.
class RawParty : public Program {
 public:
  void Setup() override {
    pe_->dtu().ConfigureRecv(user_ep::kAsk, 4,
                             [this](EpId, const Message& msg) { asks_.push_back(msg); });
  }
  void Start() override {}

  size_t asks() const { return asks_.size(); }
  uint64_t token(size_t i) const { return asks_.at(i).As<AskMsg>()->token; }
  void Answer(size_t i, MsgRef body) {
    Status st = TryAnswer(i, std::move(body));
    ASSERT_TRUE(st.ok()) << st.name();
  }
  Status TryAnswer(size_t i, MsgRef body) { return Reply(ask(i), std::move(body)); }
  // Answers on the ask endpoint with any header: an ask's, or a rewritten
  // copy of one.
  Status Reply(const Message& header, MsgRef body) {
    return pe_->dtu().Reply(user_ep::kAsk, header, std::move(body));
  }
  void Ack(const Message& header) { pe_->dtu().Ack(user_ep::kAsk, header); }
  const Message& ask(size_t i) const { return asks_.at(i); }
  // The reply an honest party gives: share the capability asked about.
  MsgRef Honest(size_t i) const {
    auto reply = NewMsg<AskReply>();
    reply->token = token(i);
    reply->share_sel = asks_.at(i).As<AskMsg>()->sel;
    return reply;
  }

 private:
  std::vector<Message> asks_;
};

// Runs a new T(args...) on PE `node` and returns it.
template <typename T, typename... Args>
T* Attach(Platform& p, NodeId node, Args&&... args) {
  auto program = std::make_unique<T>(std::forward<Args>(args)...);
  T* raw = program.get();
  p.pe(node)->AttachProgram(std::move(program));
  return raw;
}

// One kernel; user PEs 0 and 1 are RawParties, each holding a 4 KiB memory
// capability, and PEs 2 and 3 run DriverClients that obtain from them.
struct PartyRig {
  PartyRig() : p(Config()) {
    for (size_t i = 0; i < 2; ++i) {
      NodeId party = p.user_nodes()[i];
      parties[i] = Attach<RawParty>(p, party);
      sels[i] = p.kernel(0)->AdminGrantMem(party, p.mem_nodes().at(0), 4096 * i, 4096, kPermRW);
      clients[i] =
          Attach<DriverClient>(p, p.user_nodes()[2 + i], p.kernel_node(0), Config().timing);
    }
    p.Boot();
  }
  static PlatformConfig Config() {
    PlatformConfig pc;
    pc.kernels = 1;
    pc.users = 4;
    return pc;
  }
  // Client `c` obtains party `q`'s capability; the ask waits at the party.
  void Obtain(size_t c, size_t q) {
    clients[c]->env().Obtain(p.user_nodes()[q], sels[q],
                             [this, c](const SyscallReply& r) { got[c] = r.err; });
    p.RunToCompletion();
  }

  Platform p;
  RawParty* parties[2] = {};
  DriverClient* clients[2] = {};
  CapSel sels[2] = {kInvalidSel, kInvalidSel};
  ErrCode got[2] = {ErrCode::kAborted, ErrCode::kAborted};  // kAborted: no reply yet
};

// The kernel takes a syscall's caller from the PE the DTU stamped on the
// message, not from anything the sender wrote: a raw revoke on VPE 3's own
// gate that names VPE 2's selector acts as VPE 3, which holds no such
// capability.
TEST(Identity, RawSyscallActsAsTheSendingVpe) {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 3;
  Platform p(pc);
  NodeId kernel_node = p.kernel_node(0);
  NodeId victim = p.user_nodes()[1];
  NodeId sender = p.user_nodes()[2];
  for (NodeId node : {p.user_nodes()[0], victim}) {
    p.pe(node)->AttachProgram(std::make_unique<DriverClient>(kernel_node, pc.timing));
  }
  auto raw = std::make_unique<RawSyscallClient>(kernel_node);
  RawSyscallClient* client = raw.get();
  p.pe(sender)->AttachProgram(std::move(raw));
  CapSel victim_sel = p.kernel(0)->AdminGrantMem(victim, p.mem_nodes().at(0), 0, 4096, kPermRW);
  p.Boot();
  ASSERT_EQ(p.kernel(0)->CapOf(sender, victim_sel), nullptr);

  auto revoke = NewMsg<SyscallMsg>();
  revoke->op = SyscallOp::kRevoke;
  revoke->sel = victim_sel;
  revoke->token = 1;
  client->Send(revoke);
  p.RunToCompletion();
  ASSERT_EQ(client->replies.size(), 1u);
  EXPECT_EQ(client->replies[0], ErrCode::kNoSuchCap);
  EXPECT_NE(p.kernel(0)->CapOf(victim, victim_sel), nullptr);
  EXPECT_EQ(p.TotalDrops(), 0u);
}

MsgRef NoopSyscall() {
  auto msg = NewMsg<SyscallMsg>();
  msg->op = SyscallOp::kNoop;
  msg->token = 1;
  return msg;
}

// A user PE's DTU refuses commands that name an endpoint it does not have:
// a syscall whose reply endpoint is past the DTU's 16 (the kernel's reply
// would have nowhere to land), and a send, reply, read, write or ack on
// such an endpoint. Nothing leaves the PE, no credit is spent, and the
// next honest syscall is served.
TEST(Identity, EndpointIdsPastTheDtuAreRefused) {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 1;
  Platform p(pc);
  NodeId sender = p.user_nodes()[0];
  RawSyscallClient* client = Attach<RawSyscallClient>(p, sender, p.kernel_node(0));
  p.Boot();
  Dtu& dtu = p.pe(sender)->dtu();

  EXPECT_EQ(client->SendReplyingTo(NoopSyscall(), Dtu::kNumEps).code(), ErrCode::kInvalidArgs);
  p.RunToCompletion();
  EXPECT_EQ(dtu.Send(Dtu::kNumEps, NoopSyscall(), user_ep::kSyscallReply).code(),
            ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.Reply(Dtu::kNumEps, Message{}, NoopSyscall()).code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.Read(Dtu::kNumEps, 0, 64, [] {}).code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.Write(Dtu::kNumEps, 0, 64, [] {}).code(), ErrCode::kInvalidArgs);
  dtu.Ack(Dtu::kNumEps, Message{});
  EXPECT_EQ(dtu.stats().cmds_refused, 6u);
  EXPECT_EQ(dtu.Credits(user_ep::kSyscallSend), 1u);
  p.RunToCompletion();
  EXPECT_TRUE(client->replies.empty());
  EXPECT_EQ(p.kernel(0)->stats().syscalls, 0u);

  client->Send(NoopSyscall());
  p.RunToCompletion();
  ASSERT_EQ(client->replies.size(), 1u);
  EXPECT_EQ(client->replies[0], ErrCode::kOk);
  EXPECT_EQ(p.TotalDrops(), 0u);
}

// A second reply to one message, and an ack after it, find no message to
// answer: both are refused and counted instead of failing the DTU's slot
// accounting. The first answer completes the obtain, and the party goes on
// serving asks.
TEST(Identity, SecondReplyToOneMessageIsRefused) {
  PartyRig rig;
  RawParty* party = rig.parties[0];
  Dtu& dtu = rig.p.pe(rig.p.user_nodes()[0])->dtu();
  rig.Obtain(0, 0);
  ASSERT_EQ(party->asks(), 1u);
  party->Answer(0, party->Honest(0));
  EXPECT_EQ(party->TryAnswer(0, party->Honest(0)).code(), ErrCode::kInvalidArgs);
  party->Ack(party->ask(0));
  EXPECT_EQ(dtu.stats().cmds_refused, 2u);
  EXPECT_EQ(dtu.FreeSlots(user_ep::kAsk), 4u);
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.got[0], ErrCode::kOk);
  EXPECT_EQ(rig.p.kernel(0)->stats().user_msgs_dropped, 0u);

  rig.Obtain(1, 0);
  ASSERT_EQ(party->asks(), 2u);
  party->Answer(1, party->Honest(1));
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.got[1], ErrCode::kOk);
  EXPECT_EQ(rig.p.TotalDrops(), 0u);
}

// `msg` with the header fields Reply and Ack route by rewritten, as a
// program may before handing a received message back to its DTU.
Message Rerouted(Message msg, NodeId src_node, EpId src_send_ep, EpId reply_ep) {
  msg.src_node = src_node;
  msg.src_send_ep = src_send_ep;
  msg.reply_ep = reply_ep;
  return msg;
}

// The run drained with no message dropped and invariants I1-I6 intact.
void ExpectCleanAudit(Platform& p) {
  EXPECT_EQ(p.TotalDrops(), 0u);
  AuditReport report = AuditPlatform(p);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Reply and Ack route by the header the program hands back. A header that
// names an endpoint past the DTU's 16 or a node outside the mesh is
// refused and frees no slot: the party's honest answer still completes the
// obtain.
TEST(Identity, OutOfRangeReplyHeadersAreRefused) {
  PartyRig rig;
  RawParty* party = rig.parties[0];
  Dtu& dtu = rig.p.pe(rig.p.user_nodes()[0])->dtu();
  rig.Obtain(0, 0);
  ASSERT_EQ(party->asks(), 1u);
  Message ask = party->ask(0);  // a copy: a later ask may move the party's list
  NodeId kernel = ask.src_node;
  NodeId past_mesh = rig.p.pe_count();
  for (const Message& bad : {Rerouted(ask, kernel, 20, ask.reply_ep),
                             Rerouted(ask, kernel, kNoReplyEp, 20),
                             Rerouted(ask, past_mesh, kNoReplyEp, ask.reply_ep)}) {
    EXPECT_EQ(party->Reply(bad, party->Honest(0)).code(), ErrCode::kInvalidArgs);
  }
  // An ack routes by the sender's node and credit endpoint only.
  party->Ack(Rerouted(ask, kernel, 20, kNoReplyEp));
  party->Ack(Rerouted(ask, past_mesh, 0, kNoReplyEp));
  EXPECT_EQ(dtu.stats().cmds_refused, 5u);
  EXPECT_EQ(dtu.FreeSlots(user_ep::kAsk), 3u);  // the ask still holds its slot
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.got[0], ErrCode::kAborted);

  party->Answer(0, party->Honest(0));
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.got[0], ErrCode::kOk);
  ExpectCleanAudit(rig.p);
}

// Only kernels answer late: a deferred reply from a user PE is refused,
// whatever header it carries, and the ask stays with the party to answer.
TEST(Identity, DeferredReplyFromUserPeIsRefused) {
  PartyRig rig;
  RawParty* party = rig.parties[0];
  Dtu& dtu = rig.p.pe(rig.p.user_nodes()[0])->dtu();
  rig.Obtain(0, 0);
  ASSERT_EQ(party->asks(), 1u);
  Message ask = party->ask(0);  // a copy: a later ask may move the party's list
  EXPECT_EQ(dtu.SendDeferredReply(Rerouted(ask, ask.src_node, kNoReplyEp, 20), party->Honest(0))
                .code(),
            ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.SendDeferredReply(ask, party->Honest(0)).code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.stats().cmds_refused, 2u);
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.got[0], ErrCode::kAborted);

  party->Answer(0, party->Honest(0));
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.got[0], ErrCode::kOk);
  ExpectCleanAudit(rig.p);
}

// A user program that issues every privileged DTU command from Start(),
// after the kernel downgraded its DTU: it configures a send, a receive and
// a memory endpoint of its own, rewrites and invalidates endpoints of a
// victim PE, and sends to a kernel endpoint of its choosing.
class Usurper : public Program {
 public:
  Usurper(NodeId kernel, NodeId victim) : kernel_(kernel), victim_(victim) {}

  void Setup() override {}
  void Start() override {
    Dtu& dtu = pe_->dtu();
    MemPerms rw{true, true};
    dtu.ConfigureSend(user_ep::kSyscallSend, kernel_, Kernel::kEpSyscall0, 4);
    dtu.ConfigureRecv(user_ep::kSyscallReply, 4, [](EpId, const Message&) {});
    dtu.ConfigureMem(user_ep::kMem0, victim_, 0, 4096, rw);
    dtu.ConfigureRemoteSend(victim_, user_ep::kSyscallSend, pe_->node(), user_ep::kSyscallReply,
                            4, 0, [this] { ++applied; });
    dtu.ConfigureRemoteMem(victim_, user_ep::kMem0, victim_, 0, 4096, rw, [this] { ++applied; });
    dtu.InvalidateRemoteEp(victim_, user_ep::kSyscallReply, [this] { ++applied; });
    send_to = dtu.SendTo(kernel_, Kernel::kEpSyscall0, NoopSyscall(), user_ep::kSyscallReply);
  }

  Status send_to;
  int applied = 0;

 private:
  NodeId kernel_;
  NodeId victim_;
};

// A downgraded DTU refuses every privileged command instead of ending the
// run: nothing changes on either PE, each refusal is counted, and the
// victim goes on to obtain from an honest owner.
TEST(Identity, PrivilegedCommandsFromUserPeAreRefused) {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 3;
  Platform p(pc);
  NodeId usurper_node = p.user_nodes()[0];
  NodeId owner_node = p.user_nodes()[1];
  NodeId victim_node = p.user_nodes()[2];
  Usurper* usurper = Attach<Usurper>(p, usurper_node, p.kernel_node(0), victim_node);
  Attach<DriverClient>(p, owner_node, p.kernel_node(0), pc.timing);
  DriverClient* victim = Attach<DriverClient>(p, victim_node, p.kernel_node(0), pc.timing);
  CapSel sel = p.kernel(0)->AdminGrantMem(owner_node, p.mem_nodes().at(0), 0, 4096, kPermRW);
  p.Boot();
  p.RunToCompletion();

  Dtu& dtu = p.pe(usurper_node)->dtu();
  EXPECT_FALSE(dtu.privileged());
  EXPECT_EQ(usurper->send_to.code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.stats().cmds_refused, 7u);
  EXPECT_EQ(dtu.stats().msgs_sent, 0u);
  EXPECT_EQ(usurper->applied, 0);
  for (EpId ep = 0; ep < Dtu::kNumEps; ++ep) {
    EXPECT_FALSE(dtu.EpValid(ep)) << "endpoint " << ep;
  }
  Dtu& victim_dtu = p.pe(victim_node)->dtu();
  EXPECT_EQ(victim_dtu.Credits(user_ep::kSyscallSend), 1u);
  EXPECT_EQ(victim_dtu.FreeSlots(user_ep::kSyscallReply), 2u);
  EXPECT_FALSE(victim_dtu.EpValid(user_ep::kMem0));
  EXPECT_EQ(p.kernel(0)->stats().syscalls, 0u);

  ErrCode got = ErrCode::kAborted;
  victim->env().Obtain(owner_node, sel, [&got](const SyscallReply& r) { got = r.err; });
  p.RunToCompletion();
  EXPECT_EQ(got, ErrCode::kOk);
  ExpectCleanAudit(p);
}

// A user program that mails itself messages over a loopback channel it
// wires at boot, so it always holds messages to answer, and answers each
// with a header of its choosing. Its forgeries strand no kernel operation.
class Forger : public Program {
 public:
  static constexpr EpId kLoopSend = 6;  // outside the user endpoint layout
  static constexpr EpId kLoopRecv = 7;

  void Setup() override {
    Dtu& dtu = pe_->dtu();
    dtu.ConfigureSend(kLoopSend, pe_->node(), kLoopRecv, Dtu::kDefaultSlots);
    dtu.ConfigureRecv(kLoopRecv, Dtu::kDefaultSlots,
                      [this](EpId, const Message& msg) { held_.push_back(msg); });
  }
  void Start() override {}

  // Mails itself `n` messages; run the platform before answering them.
  void Mail(uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(pe_->dtu().Send(kLoopSend, NoopSyscall()).ok());
    }
  }
  // Answers one held message with `body`, rerouted to endpoint `ep` of
  // `node`.
  Status ReplyAs(NodeId node, EpId ep, MsgRef body) {
    Message held = held_.back();
    held_.pop_back();
    return pe_->dtu().Reply(kLoopRecv, Rerouted(held, node, kNoReplyEp, ep), std::move(body));
  }

 private:
  std::vector<Message> held_;
};

// Two kernels: user PE 0 forges, PE 1 (kernel 0's group) owns a 4 KiB
// memory capability and PE 2 (kernel 1's group) obtains it across kernels.
// The owner answers asks itself unless it is a RawParty (`raw_owner`).
struct ForgeRig {
  explicit ForgeRig(bool raw_owner) : p(Config()) {
    forger = Attach<Forger>(p, p.user_nodes()[0]);
    owner_node = p.user_nodes()[1];
    if (raw_owner) {
      party = Attach<RawParty>(p, owner_node);
    } else {
      Attach<DriverClient>(p, owner_node, p.kernel_node(0), Config().timing);
    }
    client = Attach<DriverClient>(p, p.user_nodes()[2], p.kernel_node(1), Config().timing);
    sel = p.kernel(0)->AdminGrantMem(owner_node, p.mem_nodes().at(0), 0, 4096, kPermRW);
    p.Boot();
  }
  static PlatformConfig Config() {
    PlatformConfig pc;
    pc.kernels = 2;
    pc.users = 3;
    return pc;
  }
  void Obtain() {
    client->env().Obtain(owner_node, sel, [this](const SyscallReply& r) { got = r.err; });
  }

  Platform p;
  Forger* forger = nullptr;
  NodeId owner_node = kInvalidNode;
  RawParty* party = nullptr;
  DriverClient* client = nullptr;
  CapSel sel = kInvalidSel;
  ErrCode got = ErrCode::kAborted;  // kAborted: no reply yet
};

// Kernel channels take messages from kernels only. A user PE that aims a
// reply at kernel 1's IKC endpoint (a flow-control credit kernel 1 never
// granted) or at its heartbeat endpoint (a body that is not a heartbeat,
// or an ack that would vouch for kernel 0's liveness) is dropped and
// counted, and kernel 1 still serves a spanning obtain.
TEST(Identity, ForgedRepliesOnKernelChannelsAreDropped) {
  auto credit = NewMsg<IkcCredit>();
  credit->from = 0;
  auto heartbeat = NewMsg<HeartbeatMsg>();
  heartbeat->from = 0;
  heartbeat->ack = true;
  std::vector<std::pair<EpId, MsgRef>> forgeries = {{Kernel::kEpKernel0, credit},
                                                    {Kernel::kEpHeartbeat, NewMsg<AskReply>()},
                                                    {Kernel::kEpHeartbeat, heartbeat}};
  for (const auto& [ep, body] : forgeries) {
    ForgeRig rig(/*raw_owner=*/false);
    rig.forger->Mail(1);
    rig.p.RunToCompletion();
    ASSERT_TRUE(rig.forger->ReplyAs(rig.p.kernel_node(1), ep, body).ok());
    rig.p.RunToCompletion();
    EXPECT_EQ(rig.p.kernel(1)->stats().user_msgs_dropped, 1u);
    EXPECT_EQ(rig.p.kernel(1)->stats().hb_acked, 0u);

    rig.Obtain();
    rig.p.RunToCompletion();
    EXPECT_EQ(rig.got, ErrCode::kOk);
    ExpectCleanAudit(rig.p);
  }
}

// A syscall gate takes requests only. A reply-typed syscall a user PE aims
// at its own gate would hold no slot and skip the send credit, and serving
// it would free the slot of an honest call on the same gate, which then
// never got its answer. It is dropped, and the honest call is served.
TEST(Identity, ReplyOnSyscallGateIsDropped) {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 7;
  Platform p(pc);
  NodeId forger_node = p.user_nodes()[0];
  NodeId honest = p.user_nodes()[6];
  ASSERT_EQ(forger_node % Kernel::kNumSyscallEps, honest % Kernel::kNumSyscallEps);
  Forger* forger = Attach<Forger>(p, forger_node);
  RawSyscallClient* client = Attach<RawSyscallClient>(p, honest, p.kernel_node(0));
  p.Boot();
  forger->Mail(1);
  p.RunToCompletion();

  EpId gate = Kernel::kEpSyscall0 + (forger_node % Kernel::kNumSyscallEps);
  ASSERT_TRUE(forger->ReplyAs(p.kernel_node(0), gate, NoopSyscall()).ok());
  client->Send(NoopSyscall());
  p.RunToCompletion();
  ASSERT_EQ(client->replies.size(), 1u);
  EXPECT_EQ(client->replies[0], ErrCode::kOk);
  EXPECT_EQ(p.kernel(0)->stats().syscalls, 1u);
  EXPECT_EQ(p.kernel(0)->stats().user_msgs_dropped, 1u);
  ExpectCleanAudit(p);
}

// IKC tokens are sequential, so a user PE can name a pending one. A
// forged IkcReply for every token kernel 1 can have issued is dropped, not
// taken as the answer to its pending obtain, which the owner's own answer
// then completes.
TEST(Identity, ForgedIkcReplyCannotCompleteAnIkc) {
  ForgeRig rig(/*raw_owner=*/true);
  rig.Obtain();
  rig.forger->Mail(Dtu::kDefaultSlots);
  rig.p.RunToCompletion();
  ASSERT_EQ(rig.party->asks(), 1u);
  for (uint64_t token = 1; token <= Dtu::kDefaultSlots; ++token) {
    auto reply = NewMsg<IkcReply>();
    reply->token = token;
    ASSERT_TRUE(rig.forger->ReplyAs(rig.p.kernel_node(1), Kernel::kEpKernel0, reply).ok());
  }
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.p.kernel(1)->stats().user_msgs_dropped, Dtu::kDefaultSlots);
  EXPECT_EQ(rig.p.kernel(1)->stats().ikc_late_replies, 0u);
  EXPECT_EQ(rig.got, ErrCode::kAborted);

  rig.party->Answer(0, rig.party->Honest(0));
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.got, ErrCode::kOk);
  ExpectCleanAudit(rig.p);
}

// Untrusted user PEs: a body that is not a syscall on a syscall gate is
// dropped and counted, its slot freed (the sender's credit comes back),
// and honest callers on the same kernel are still served.
TEST(Identity, NonSyscallBodyOnSyscallGateIsDropped) {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 3;
  Platform p(pc);
  NodeId kernel_node = p.kernel_node(0);
  NodeId owner = p.user_nodes()[0];
  NodeId sender = p.user_nodes()[2];
  Attach<DriverClient>(p, owner, kernel_node, pc.timing);
  DriverClient* obtainer = Attach<DriverClient>(p, p.user_nodes()[1], kernel_node, pc.timing);
  RawSyscallClient* client = Attach<RawSyscallClient>(p, sender, kernel_node);
  CapSel sel = p.kernel(0)->AdminGrantMem(owner, p.mem_nodes().at(0), 0, 4096, kPermRW);
  p.Boot();

  client->Send(NewMsg<AskReply>());
  p.RunToCompletion();
  EXPECT_TRUE(client->replies.empty());
  EXPECT_EQ(p.kernel(0)->stats().user_msgs_dropped, 1u);
  EXPECT_EQ(p.pe(sender)->dtu().Credits(user_ep::kSyscallSend), 1u);

  ErrCode got = ErrCode::kAborted;
  obtainer->env().Obtain(owner, sel, [&](const SyscallReply& r) { got = r.err; });
  p.RunToCompletion();
  EXPECT_EQ(got, ErrCode::kOk);
  EXPECT_EQ(p.TotalDrops(), 0u);
}

// An ask reply that is not an AskReply, or that names no pending ask, is
// dropped and counted; the party's next honest answer is still taken.
TEST(Identity, MalformedAskReplyIsDropped) {
  for (bool bad_token : {false, true}) {
    PartyRig rig;
    RawParty* party = rig.parties[0];
    rig.Obtain(0, 0);
    ASSERT_EQ(party->asks(), 1u);
    if (bad_token) {
      auto reply = NewMsg<AskReply>();
      reply->token = party->token(0) + 1000;
      party->Answer(0, reply);
    } else {
      party->Answer(0, NewMsg<SyscallReply>());
    }
    rig.Obtain(1, 0);
    EXPECT_EQ(rig.p.kernel(0)->stats().user_msgs_dropped, 1u);
    ASSERT_EQ(party->asks(), 2u);
    party->Answer(1, party->Honest(1));
    rig.p.RunToCompletion();
    EXPECT_EQ(rig.got[0], ErrCode::kAborted);  // its ask was never answered
    EXPECT_EQ(rig.got[1], ErrCode::kOk);
  }
}

// A reply must come from the asked party: another party that copies an
// ask's sequential token cannot complete that ask.
TEST(Identity, AskReplyFromAnotherPeIsDropped) {
  PartyRig rig;
  RawParty* asked = rig.parties[0];
  RawParty* forger = rig.parties[1];
  rig.Obtain(0, 0);
  rig.Obtain(1, 1);
  ASSERT_EQ(asked->asks(), 1u);
  ASSERT_EQ(forger->asks(), 1u);

  auto forged = NewMsg<AskReply>();
  forged->token = asked->token(0);
  forged->share_sel = rig.sels[0];
  forger->Answer(0, forged);
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.p.kernel(0)->stats().user_msgs_dropped, 1u);
  EXPECT_EQ(rig.got[0], ErrCode::kAborted);

  asked->Answer(0, asked->Honest(0));
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.got[0], ErrCode::kOk);
  EXPECT_EQ(rig.got[1], ErrCode::kAborted);  // the forger never answered its own ask
  EXPECT_EQ(rig.p.TotalDrops(), 0u);
}

// A party that never answers an ask keeps its partition busy for good:
// migrating it is refused with kAborted once the quiesce bound is spent,
// and the VPE stays, unfrozen, where it was.
TEST(Quiesce, SilentPartyRefusesMigration) {
  PlatformConfig pc;
  pc.kernels = 2;
  pc.users = 4;
  Platform p(pc);
  Kernel* k0 = p.kernel(0);
  std::vector<NodeId> group0;
  for (NodeId node : p.user_nodes()) {
    if (p.kernel_of(node) == k0) {
      group0.push_back(node);
    }
  }
  ASSERT_GE(group0.size(), 2u);
  NodeId party_node = group0[0];
  RawParty* party = Attach<RawParty>(p, party_node);
  DriverClient* client = Attach<DriverClient>(p, group0[1], p.kernel_node(0), pc.timing);
  CapSel sel = k0->AdminGrantMem(party_node, p.mem_nodes().at(0), 0, 4096, kPermRW);
  p.Boot();

  ErrCode obtained = ErrCode::kAborted;  // kAborted: no reply yet
  client->env().Obtain(party_node, sel, [&](const SyscallReply& r) { obtained = r.err; });
  p.RunToCompletion();
  ASSERT_EQ(party->asks(), 1u);

  bool migrated = false;
  ErrCode err = ErrCode::kOk;
  k0->AdminMigratePe(party_node, 1, [&](ErrCode e) {
    err = e;
    migrated = true;
  });
  p.RunToCompletion();
  ASSERT_TRUE(migrated);
  EXPECT_EQ(err, ErrCode::kAborted);
  ASSERT_NE(k0->FindVpe(party_node), nullptr);
  EXPECT_FALSE(k0->FindVpe(party_node)->migrating);
  EXPECT_EQ(k0->stats().migrations, 0u);
  EXPECT_EQ(p.kernel_of(party_node), k0);

  // The party still serves from its old kernel: its late answer completes
  // the obtain.
  party->Answer(0, party->Honest(0));
  p.RunToCompletion();
  EXPECT_EQ(obtained, ErrCode::kOk);
  EXPECT_EQ(k0->PendingOps(), 0u);
  EXPECT_EQ(p.TotalDrops(), 0u);
}

TEST(Errors, ObtainFromUnknownVpe) {
  DriverRig rig = MakeDriverRig(1, 1);
  SyscallReply got;
  // Node 0 is the kernel PE — no VPE runs there.
  rig.client(0).env().Obtain(/*peer=*/0, 1, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kVpeGone);
}

// Peer ids come from untrusted user PEs: one that names no PE at all is
// rejected before the kernel allocates a key or token for the operation.
TEST(Errors, ObtainFromOutOfRangeVpe) {
  DriverRig rig = MakeDriverRig(2, 2);
  SyscallReply got;
  rig.client(0).env().Obtain(kInvalidVpe, 1, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchVpe);
  rig.client(0).env().Obtain(rig.p().membership().PeCount(), 1,
                             [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchVpe);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(Errors, DelegateToOutOfRangeVpe) {
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel sel = rig.Grant(0, 4096);
  SyscallReply got;
  rig.client(0).env().Delegate(sel, kInvalidVpe, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchVpe);
  // The capability was not touched and still delegates to a real peer.
  Capability* cap = rig.kernel_of_client(0)->CapOf(rig.vpe(0), sel);
  ASSERT_NE(cap, nullptr);
  EXPECT_TRUE(cap->children().empty());
  rig.client(0).env().Delegate(sel, rig.vpe(1), [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kOk);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST(Errors, DelegateToDeadVpe) {
  DriverRig rig = MakeDriverRig(1, 2);
  CapSel sel = rig.Grant(0, 4096);
  rig.kernel_of_client(1)->AdminKillVpe(rig.vpe(1), nullptr);
  rig.p().RunToCompletion();
  SyscallReply got;
  rig.client(0).env().Delegate(sel, rig.vpe(1), [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kVpeGone);
}

TEST(Errors, SpanningDelegateToDeadVpe) {
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel sel = rig.Grant(0, 4096);
  rig.kernel_of_client(1)->AdminKillVpe(rig.vpe(1), nullptr);
  rig.p().RunToCompletion();
  SyscallReply got;
  rig.client(0).env().Delegate(sel, rig.vpe(1), [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kVpeGone);
  // No half-linked child survives ("Invalid" prevention).
  Capability* cap = rig.kernel_of_client(0)->CapOf(rig.vpe(0), sel);
  ASSERT_NE(cap, nullptr);
  EXPECT_TRUE(cap->children().empty());
}

TEST(Errors, ExchangeOnNonSessionCap) {
  DriverRig rig = MakeDriverRig(1, 1);
  CapSel sel = rig.Grant(0, 4096);  // a memory capability, not a session
  auto msg = std::make_shared<SyscallMsg>();
  msg->op = SyscallOp::kExchange;
  msg->sel = sel;
  SyscallReply got;
  rig.client(0).env().Syscall(msg, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kInvalidCapType);
}

TEST(Errors, ActivateVpeCapFails) {
  DriverRig rig = MakeDriverRig(1, 1);
  SyscallReply got;
  // Selector 1 is the VPE's self-capability.
  rig.client(0).env().Activate(1, user_ep::kMem0, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kInvalidCapType);
}

TEST(Errors, SequentialDoubleRevoke) {
  DriverRig rig = MakeDriverRig(1, 1);
  CapSel sel = rig.Grant(0, 4096);
  SyscallReply first;
  rig.client(0).env().Revoke(sel, [&](const SyscallReply& r) { first = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(first.err, ErrCode::kOk);
  SyscallReply second;
  rig.client(0).env().Revoke(sel, [&](const SyscallReply& r) { second = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(second.err, ErrCode::kNoSuchCap);
}

TEST(DeriveChains, DeepDerivationRevokesRecursively) {
  DriverRig rig = MakeDriverRig(1, 1);
  CapSel root = rig.Grant(0, 1 << 20);
  CapSel cur = root;
  std::vector<CapSel> chain{root};
  for (int depth = 0; depth < 10; ++depth) {
    SyscallReply got;
    rig.client(0).env().DeriveMem(cur, 0, (1 << 19) >> depth, kPermR,
                                  [&](const SyscallReply& r) { got = r; });
    rig.p().RunToCompletion();
    ASSERT_EQ(got.err, ErrCode::kOk);
    cur = got.sel;
    chain.push_back(cur);
  }
  Kernel* kernel = rig.kernel_of_client(0);
  size_t before = kernel->caps().size();
  rig.client(0).env().Revoke(root, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  EXPECT_EQ(before - kernel->caps().size(), chain.size());
  for (CapSel sel : chain) {
    EXPECT_EQ(kernel->CapOf(rig.vpe(0), sel), nullptr);
  }
}

TEST(DeriveChains, MidChainRevokeKeepsAncestors) {
  DriverRig rig = MakeDriverRig(1, 1);
  CapSel root = rig.Grant(0, 1 << 20);
  SyscallReply mid;
  rig.client(0).env().DeriveMem(root, 0, 1 << 19, kPermR,
                                [&](const SyscallReply& r) { mid = r; });
  rig.p().RunToCompletion();
  SyscallReply leaf;
  rig.client(0).env().DeriveMem(mid.sel, 0, 1 << 18, kPermR,
                                [&](const SyscallReply& r) { leaf = r; });
  rig.p().RunToCompletion();

  rig.client(0).env().Revoke(mid.sel, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  Kernel* kernel = rig.kernel_of_client(0);
  EXPECT_NE(kernel->CapOf(rig.vpe(0), root), nullptr);
  EXPECT_EQ(kernel->CapOf(rig.vpe(0), mid.sel), nullptr);
  EXPECT_EQ(kernel->CapOf(rig.vpe(0), leaf.sel), nullptr);
  // The root's child list no longer references the revoked middle.
  EXPECT_TRUE(kernel->CapOf(rig.vpe(0), root)->children().empty());
}

TEST(Fanout, WideTreeRevokesCompletely) {
  DriverRig rig = MakeDriverRig(4, 13);
  CapSel root = rig.Grant(0, 1 << 20);
  for (size_t i = 1; i < 13; ++i) {
    rig.client(0).env().Delegate(root, rig.vpe(i), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
  }
  size_t total_before = 0;
  for (KernelId k = 0; k < 4; ++k) {
    total_before += rig.p().kernel(k)->caps().size();
  }
  rig.client(0).env().Revoke(root, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  size_t total_after = 0;
  for (KernelId k = 0; k < 4; ++k) {
    total_after += rig.p().kernel(k)->caps().size();
  }
  EXPECT_EQ(total_before - total_after, 13u);  // root + 12 copies
}

TEST(Fanout, RedelegationTreeAcrossThreeKernels) {
  // root(K0) -> a(K1) -> {b(K2), c(K0)}, then revoke at a: only a's subtree
  // dies.
  DriverRig rig = MakeDriverRig(3, 6);
  size_t v_root = rig.client_in_kernel(0, 0);
  size_t v_a = rig.client_in_kernel(1, 0);
  size_t v_b = rig.client_in_kernel(2, 0);
  size_t v_c = rig.client_in_kernel(0, 1);

  CapSel root = rig.Grant(v_root, 1 << 20);
  rig.client(v_root).env().Delegate(root, rig.vpe(v_a), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  Kernel* ka = rig.kernel_of_client(v_a);
  CapSel a_sel = ka->FindVpe(rig.vpe(v_a))->table.LastSel();
  for (size_t peer : {v_b, v_c}) {
    rig.client(v_a).env().Delegate(a_sel, rig.vpe(peer), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
  }

  rig.client(v_a).env().Revoke(a_sel, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();

  // Root survives with no children; a, b, c copies are gone.
  Capability* root_cap = rig.kernel_of_client(v_root)->CapOf(rig.vpe(v_root), root);
  ASSERT_NE(root_cap, nullptr);
  EXPECT_TRUE(root_cap->children().empty());
  EXPECT_EQ(ka->CapOf(rig.vpe(v_a), a_sel), nullptr);
  EXPECT_EQ(rig.kernel_of_client(v_b)->FindVpe(rig.vpe(v_b))->table.size(), 1u);
  EXPECT_EQ(rig.kernel_of_client(v_c)->FindVpe(rig.vpe(v_c))->table.size(), 1u);
}

TEST(Concurrency, ManyRevokesAgainstOneOwner) {
  // Twelve holders of copies revoke their own copies concurrently while the
  // owner also revokes the root. Everything must drain without deadlock.
  DriverRig rig = MakeDriverRig(4, 13);
  CapSel root = rig.Grant(0, 1 << 20);
  std::vector<CapSel> copies(13, kInvalidSel);
  for (size_t i = 1; i < 13; ++i) {
    rig.client(0).env().Delegate(root, rig.vpe(i), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
    copies[i] = rig.kernel_of_client(i)->FindVpe(rig.vpe(i))->table.LastSel();
  }
  int done = 0;
  for (size_t i = 1; i < 13; ++i) {
    rig.client(i).env().Revoke(copies[i], [&done](const SyscallReply& r) {
      EXPECT_EQ(r.err, ErrCode::kOk);
      done++;
    });
  }
  rig.client(0).env().Revoke(root, [&done](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    done++;
  });
  rig.p().RunToCompletion();
  EXPECT_EQ(done, 13);
  for (KernelId k = 0; k < 4; ++k) {
    EXPECT_EQ(rig.p().kernel(k)->PendingOps(), 0u);
  }
}

TEST(Concurrency, AsksBeyondTheWindowWaitTheirTurn) {
  // 71 clients of one kernel obtain one owner's capability at once. The
  // kernel keeps at most kServiceAskInflight asks at the owner and queues
  // the rest, so the owner's ask endpoint never overflows.
  constexpr size_t kAskers = 71;
  static_assert(kAskers > Kernel::kServiceAskInflight);
  DriverRig rig = MakeDriverRig(1, kAskers + 1);
  CapSel root = rig.Grant(0);
  size_t obtained = 0;
  for (size_t i = 1; i <= kAskers; ++i) {
    rig.client(i).env().Obtain(rig.vpe(0), root, [&obtained](const SyscallReply& r) {
      EXPECT_EQ(r.err, ErrCode::kOk);
      obtained++;
    });
  }
  rig.p().RunToCompletion();
  EXPECT_EQ(obtained, kAskers);
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
  AuditReport report = AuditPlatform(rig.p());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(Payload, ObtainedCopyInheritsRestrictedPayload) {
  DriverRig rig = MakeDriverRig(2, 2);
  Kernel* k0 = rig.kernel_of_client(0);
  CapSel owner_sel = k0->AdminGrantMem(rig.vpe(0), rig.p().mem_nodes()[0], 0x1000, 0x2000,
                                       kPermR);
  SyscallReply got;
  rig.client(1).env().Obtain(rig.vpe(0), owner_sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  ASSERT_EQ(got.err, ErrCode::kOk);
  EXPECT_EQ(got.cap.mem_base, 0x1000u);
  EXPECT_EQ(got.cap.mem_size, 0x2000u);
  EXPECT_EQ(got.cap.perms, kPermR);
}

}  // namespace
}  // namespace semperos
