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
  Status TryAnswer(size_t i, MsgRef body) {
    return pe_->dtu().Reply(user_ep::kAsk, ask(i).slot, std::move(body));
  }
  Status Ack(size_t i) { return pe_->dtu().Ack(user_ep::kAsk, ask(i).slot); }
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

// The run drained with no message dropped and invariants I1-I6 intact.
void ExpectCleanAudit(Platform& p) {
  EXPECT_EQ(p.TotalDrops(), 0u);
  AuditReport report = AuditPlatform(p);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// A user PE's DTU refuses commands that name an endpoint it does not have:
// a syscall whose reply endpoint is past the DTU's 16 or is the caller's
// own send endpoint (the kernel's reply would have nowhere to land), and a
// send, reply, read, write or ack on such an endpoint. Nothing leaves the
// PE, no credit is spent, and the next honest syscall is served.
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
  EXPECT_EQ(client->SendReplyingTo(NoopSyscall(), user_ep::kSyscallSend).code(),
            ErrCode::kInvalidArgs);
  p.RunToCompletion();
  EXPECT_EQ(dtu.Send(Dtu::kNumEps, NoopSyscall(), user_ep::kSyscallReply).code(),
            ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.Reply(Dtu::kNumEps, 0, NoopSyscall()).code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.Read(Dtu::kNumEps, 0, 64, [] {}).code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.Write(Dtu::kNumEps, 0, 64, [] {}).code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.Ack(Dtu::kNumEps, 0).code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.stats().cmds_refused, 7u);
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

// A syscall whose reply endpoint receives, but not syscall replies, gets
// the kernel's answer there: on the ask endpoint, the service reply
// endpoint, or the syscall reply endpoint with no call of UserEnv's
// outstanding. UserEnv drops and counts each instead of failing, nothing
// holds a slot or a credit afterwards, and its next syscall is served.
TEST(Identity, MisroutedSyscallRepliesAreDropped) {
  DriverRig rig = MakeDriverRig(1, 1);
  UserEnv& env = rig.client(0).env();
  Dtu& dtu = rig.p().pe(rig.vpe(0))->dtu();
  uint64_t syscalls = rig.p().kernel(0)->stats().syscalls;
  uint64_t dropped = 0;
  for (EpId reply_ep : {user_ep::kAsk, user_ep::kServiceReply, user_ep::kSyscallReply}) {
    ASSERT_TRUE(dtu.Send(user_ep::kSyscallSend, NoopSyscall(), reply_ep).ok()) << reply_ep;
    rig.p().RunToCompletion();
    EXPECT_EQ(env.unexpected_msgs(), ++dropped) << "reply endpoint " << reply_ep;
    EXPECT_EQ(dtu.Credits(user_ep::kSyscallSend), 1u);
  }
  EXPECT_EQ(dtu.FreeSlots(user_ep::kAsk), 64u);
  EXPECT_EQ(rig.p().kernel(0)->stats().syscalls, syscalls + 3);

  auto noop = NewMsg<SyscallMsg>();
  noop->op = SyscallOp::kNoop;
  ErrCode got = ErrCode::kAborted;
  env.Syscall(noop, [&got](const SyscallReply& r) { got = r.err; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got, ErrCode::kOk);
  EXPECT_EQ(env.unexpected_msgs(), dropped);
  ExpectCleanAudit(rig.p());
}

// An answered slot is no longer held. A party holding two asks that
// answers the first twice, then acks it, is refused both times: the extra
// answers cannot free the second ask's slot, so the party's honest answer
// to the second ask still completes that obtain.
TEST(Identity, SecondReplyToOneMessageIsRefused) {
  PartyRig rig;
  RawParty* party = rig.parties[0];
  Dtu& dtu = rig.p.pe(rig.p.user_nodes()[0])->dtu();
  rig.Obtain(0, 0);
  rig.Obtain(1, 0);
  ASSERT_EQ(party->asks(), 2u);
  party->Answer(0, party->Honest(0));
  EXPECT_EQ(party->TryAnswer(0, party->Honest(0)).code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(party->Ack(0).code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.stats().cmds_refused, 2u);
  EXPECT_EQ(dtu.FreeSlots(user_ep::kAsk), 3u);  // the second ask holds its slot
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.got[0], ErrCode::kOk);
  EXPECT_EQ(rig.got[1], ErrCode::kAborted);  // kAborted: no reply yet

  EXPECT_TRUE(party->TryAnswer(1, party->Honest(1)).ok());
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.got[1], ErrCode::kOk);
  EXPECT_EQ(rig.p.kernel(0)->PendingOps(), 0u);
  EXPECT_EQ(rig.p.kernel(0)->stats().user_msgs_dropped, 0u);
  ExpectCleanAudit(rig.p);
}

// A user PE answers by slot, and its DTU routes the answer by the header it
// filed when the message arrived, so the answer lands on the endpoint the
// original sender named. A party holding one ask names every slot id up to
// past its table, and none, on each of its endpoints: all are refused but
// the ask's own slot on the ask endpoint, and that one reply completes the
// obtain at the kernel. No syscall gate sees anything.
TEST(Identity, RepliesLandWhereTheSenderSaid) {
  PartyRig rig;
  RawParty* party = rig.parties[0];
  Dtu& dtu = rig.p.pe(rig.p.user_nodes()[0])->dtu();
  Kernel* kernel = rig.p.kernel(0);
  rig.Obtain(0, 0);
  ASSERT_EQ(party->asks(), 1u);
  uint32_t held = party->ask(0).slot;
  uint64_t syscalls = kernel->stats().syscalls;
  std::vector<uint32_t> slots = {kNoSlot};
  for (uint32_t slot = 0; slot <= Dtu::kDefaultSlots; ++slot) {
    slots.push_back(slot);
  }
  uint64_t refused = 0;
  for (EpId ep = 0; ep < Dtu::kNumEps; ++ep) {
    for (uint32_t slot : slots) {
      if (ep == user_ep::kAsk && slot == held) {
        continue;
      }
      EXPECT_EQ(dtu.Reply(ep, slot, party->Honest(0)).code(), ErrCode::kInvalidArgs);
      EXPECT_EQ(dtu.Ack(ep, slot).code(), ErrCode::kInvalidArgs);
      refused += 2;
    }
  }
  EXPECT_EQ(dtu.stats().cmds_refused, refused);
  EXPECT_EQ(dtu.stats().msgs_sent, 0u);
  EXPECT_EQ(dtu.FreeSlots(user_ep::kAsk), 3u);
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.got[0], ErrCode::kAborted);

  ASSERT_TRUE(party->TryAnswer(0, party->Honest(0)).ok());
  rig.p.RunToCompletion();
  EXPECT_EQ(rig.got[0], ErrCode::kOk);
  EXPECT_EQ(kernel->stats().user_msgs_dropped, 0u);
  EXPECT_EQ(kernel->stats().syscalls, syscalls);
  EXPECT_EQ(kernel->PendingOps(), 0u);
  ExpectCleanAudit(rig.p);
}

// Only kernels answer late: a deferred reply from a user PE is refused, and
// the ask stays with the party to answer.
TEST(Identity, DeferredReplyFromUserPeIsRefused) {
  PartyRig rig;
  RawParty* party = rig.parties[0];
  Dtu& dtu = rig.p.pe(rig.p.user_nodes()[0])->dtu();
  rig.Obtain(0, 0);
  ASSERT_EQ(party->asks(), 1u);
  EXPECT_EQ(dtu.SendDeferredReply(party->ask(0), party->Honest(0)).code(),
            ErrCode::kInvalidArgs);
  EXPECT_EQ(dtu.stats().cmds_refused, 1u);
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

// A VPE activates capabilities on its eight memory endpoints only. Activate
// on an endpoint past the DTU's 16, or on the VPE's own syscall reply
// endpoint, is answered kInvalidArgs before anything changes: no endpoint
// is rewritten, the capability stays unactivated and nothing is dropped.
// An honest Activate afterwards binds the capability.
TEST(Errors, ActivateOutsideTheMemoryEndpointsIsRefused) {
  DriverRig rig = MakeDriverRig(1, 1);
  CapSel sel = rig.Grant(0, 4096);
  Dtu& dtu = rig.p().pe(rig.vpe(0))->dtu();
  Capability* cap = rig.kernel_of_client(0)->CapOf(rig.vpe(0), sel);
  ASSERT_NE(cap, nullptr);
  for (EpId ep : {EpId{Dtu::kNumEps}, user_ep::kSyscallReply}) {
    ErrCode got = ErrCode::kAborted;
    rig.client(0).env().Activate(sel, ep, [&got](const SyscallReply& r) { got = r.err; });
    rig.p().RunToCompletion();
    EXPECT_EQ(got, ErrCode::kInvalidArgs) << "endpoint " << ep;
  }
  EXPECT_EQ(cap->activated_eps(), 0u);
  EXPECT_EQ(dtu.FreeSlots(user_ep::kSyscallReply), 2u);
  for (EpId ep = user_ep::kMem0; ep < user_ep::kMem0 + user_ep::kNumMemEps; ++ep) {
    EXPECT_FALSE(dtu.EpValid(ep)) << "endpoint " << ep;
  }
  ExpectCleanAudit(rig.p());

  ErrCode got = ErrCode::kAborted;
  rig.client(0).env().Activate(sel, user_ep::kMem0, [&got](const SyscallReply& r) { got = r.err; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got, ErrCode::kOk);
  EXPECT_EQ(cap->activated_eps(), 1u);  // kMem0
  EXPECT_TRUE(dtu.EpValid(user_ep::kMem0));
  ExpectCleanAudit(rig.p());
}

// --- A revoke removes access through every endpoint (Figure 5) ---

// Client `i` activates its capability `sel` on kMem0 and on kMem0 + 1.
void ActivateTwice(DriverRig& rig, size_t i, CapSel sel) {
  for (EpId ep : {user_ep::kMem0, user_ep::kMem0 + 1}) {
    ErrCode got = ErrCode::kAborted;
    rig.client(i).env().Activate(sel, ep, [&got](const SyscallReply& r) { got = r.err; });
    rig.p().RunToCompletion();
    ASSERT_EQ(got, ErrCode::kOk) << "endpoint " << ep;
    ASSERT_TRUE(rig.p().pe(rig.vpe(i))->dtu().EpValid(ep)) << "endpoint " << ep;
  }
}

// Client `i` revokes `sel`; the revoke must succeed.
void RevokeOk(DriverRig& rig, size_t i, CapSel sel) {
  ErrCode got = ErrCode::kAborted;
  rig.client(i).env().Revoke(sel, [&got](const SyscallReply& r) { got = r.err; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got, ErrCode::kOk);
}

// No memory endpoint of client `i` is valid, a read through each one is
// refused, and the audit is clean.
void ExpectNoMemoryAccess(DriverRig& rig, size_t i) {
  Dtu& dtu = rig.p().pe(rig.vpe(i))->dtu();
  for (EpId ep = user_ep::kMem0; ep < user_ep::kMem0 + user_ep::kNumMemEps; ++ep) {
    EXPECT_FALSE(dtu.EpValid(ep)) << "endpoint " << ep;
    EXPECT_FALSE(dtu.Read(ep, 0, 64, [] {}).ok()) << "endpoint " << ep;
  }
  rig.p().RunToCompletion();
  ExpectCleanAudit(rig.p());
}

// A copy delegated across kernels and activated on two endpoints loses
// both when the owner revokes the root.
TEST(RevokeAccess, DelegatedCopyActivatedTwice) {
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel root = rig.Grant(0, 4096);
  ErrCode delegated = ErrCode::kAborted;
  rig.client(0).env().Delegate(root, rig.vpe(1),
                               [&delegated](const SyscallReply& r) { delegated = r.err; });
  rig.p().RunToCompletion();
  ASSERT_EQ(delegated, ErrCode::kOk);
  CapSel copy = rig.kernel_of_client(1)->FindVpe(rig.vpe(1))->table.LastSel();
  ActivateTwice(rig, 1, copy);
  EXPECT_EQ(rig.kernel_of_client(1)->CapOf(rig.vpe(1), copy)->activated_eps(), 0b11u);

  RevokeOk(rig, 0, root);
  EXPECT_EQ(rig.kernel_of_client(1)->CapOf(rig.vpe(1), copy), nullptr);
  ExpectNoMemoryAccess(rig, 1);
}

// A holder that activates its own capability on two endpoints and revokes
// it loses both.
TEST(RevokeAccess, OwnCapabilityActivatedTwice) {
  DriverRig rig = MakeDriverRig(1, 1);
  CapSel sel = rig.Grant(0, 4096);
  ActivateTwice(rig, 0, sel);
  RevokeOk(rig, 0, sel);
  ExpectNoMemoryAccess(rig, 0);
}

// Migration carries every endpoint binding: the holder moves to another
// kernel, which then revokes both endpoints.
TEST(RevokeAccess, MigratedHolderActivatedTwice) {
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel sel = rig.Grant(0, 4096);
  ActivateTwice(rig, 0, sel);
  rig.Migrate(rig.vpe(0), 1);
  ASSERT_EQ(rig.p().membership().KernelOf(rig.vpe(0)), 1u);
  EXPECT_EQ(rig.p().kernel(1)->CapOf(rig.vpe(0), sel)->activated_eps(), 0b11u);
  RevokeOk(rig, 0, sel);
  ExpectNoMemoryAccess(rig, 0);
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
