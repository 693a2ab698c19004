#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dtu/dtu.h"
#include "noc/noc.h"
#include "sim/simulation.h"

namespace semperos {
namespace {

struct Payload : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kTest;
  explicit Payload(int v) : MsgBody(kKind), value(v) {}
  int value;
};

class DtuTest : public ::testing::Test {
 protected:
  DtuTest() : noc_(&sim_, MakeConfig()), fabric_(&noc_) {
    a_ = std::make_unique<Dtu>(&sim_, &fabric_, 0);
    b_ = std::make_unique<Dtu>(&sim_, &fabric_, 1);
    c_ = std::make_unique<Dtu>(&sim_, &fabric_, 2);
  }

  static NocConfig MakeConfig() {
    NocConfig config;
    config.width = 3;
    config.height = 1;
    return config;
  }

  Simulation sim_;
  Noc noc_;
  DtuFabric fabric_;
  std::unique_ptr<Dtu> a_;
  std::unique_ptr<Dtu> b_;
  std::unique_ptr<Dtu> c_;
};

TEST_F(DtuTest, SendDeliversToReceiveEndpoint) {
  int received = 0;
  b_->ConfigureRecv(3, 4, [&](EpId ep, const Message& msg) {
    EXPECT_EQ(ep, 3u);
    received = msg.As<Payload>()->value;
    b_->Ack(3, msg.slot);
  });
  a_->ConfigureSend(0, 1, 3, 2);
  EXPECT_TRUE(a_->Send(0, std::make_shared<Payload>(42)).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(received, 42);
}

TEST_F(DtuTest, SendConsumesCreditAckReturnsIt) {
  b_->ConfigureRecv(3, 4, [&](EpId, const Message& msg) { b_->Ack(3, msg.slot); });
  a_->ConfigureSend(0, 1, 3, 1);
  EXPECT_EQ(a_->Credits(0), 1u);
  EXPECT_TRUE(a_->Send(0, std::make_shared<Payload>(1)).ok());
  EXPECT_EQ(a_->Credits(0), 0u);
  // Second send without credit fails (M3 semantics).
  EXPECT_EQ(a_->Send(0, std::make_shared<Payload>(2)).code(), ErrCode::kNoCredits);
  sim_.RunUntilIdle();
  EXPECT_EQ(a_->Credits(0), 1u);
}

TEST_F(DtuTest, ReplyFreesSlotReturnsCreditAndDelivers) {
  int reply_value = 0;
  a_->ConfigureRecv(5, 1, [&](EpId, const Message& msg) {
    EXPECT_TRUE(msg.is_reply);
    reply_value = msg.As<Payload>()->value;
  });
  b_->ConfigureRecv(3, 1, [&](EpId, const Message& msg) {
    EXPECT_EQ(b_->FreeSlots(3), 0u);
    b_->Reply(3, msg.slot, std::make_shared<Payload>(7));
    EXPECT_EQ(b_->FreeSlots(3), 1u);
  });
  a_->ConfigureSend(0, 1, 3, 1);
  ASSERT_TRUE(a_->Send(0, std::make_shared<Payload>(1), /*reply_ep=*/5).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(reply_value, 7);
  EXPECT_EQ(a_->Credits(0), 1u);
}

TEST_F(DtuTest, MessagesBeyondSlotsAreLost) {
  // "If this limit is exceeded then the messages will be lost" (§4.1).
  int received = 0;
  b_->ConfigureRecv(3, 2, [&](EpId, const Message&) { received++; });  // never acked
  a_->ConfigureSend(0, 1, 3, 8);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(a_->Send(0, std::make_shared<Payload>(i)).ok());
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(b_->stats().msgs_dropped, 2u);
}

TEST_F(DtuTest, RepliesBypassSlotAccounting) {
  // Replies are received into contexts reserved at send time; a full
  // request queue must not drop them.
  int replies = 0;
  a_->ConfigureRecv(5, 1, [&](EpId, const Message& msg) {
    if (msg.is_reply) {
      replies++;
    }
  });
  std::vector<Message> held;
  b_->ConfigureRecv(3, 4, [&](EpId, const Message& msg) { held.push_back(msg); });
  a_->ConfigureSend(0, 1, 3, 4);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(a_->Send(0, std::make_shared<Payload>(i), 5).ok());
  }
  sim_.RunUntilIdle();
  ASSERT_EQ(held.size(), 3u);
  for (const Message& m : held) {
    b_->Reply(3, m.slot, std::make_shared<Payload>(9));
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(replies, 3);
  EXPECT_EQ(a_->stats().msgs_dropped, 0u);
}

// A program answers by (receive endpoint, slot) alone. Every refused answer
// below returns kInvalidArgs, is counted, and frees no slot and returns no
// credit.

TEST_F(DtuTest, AnswerOnSlotNeverHeldIsRefused) {
  EXPECT_EQ(b_->Reply(3, 0, std::make_shared<Payload>(1)).code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(b_->Ack(3, 0).code(), ErrCode::kInvalidArgs);
  std::vector<Message> held;
  b_->ConfigureRecv(3, 4, [&](EpId, const Message& msg) { held.push_back(msg); });
  a_->ConfigureSend(0, 1, 3, 2);
  ASSERT_TRUE(a_->Send(0, std::make_shared<Payload>(1)).ok());
  sim_.RunUntilIdle();
  ASSERT_EQ(held.size(), 1u);
  for (uint32_t slot : {held[0].slot + 1, kNoSlot}) {
    EXPECT_EQ(b_->Reply(3, slot, std::make_shared<Payload>(2)).code(), ErrCode::kInvalidArgs);
    EXPECT_EQ(b_->Ack(3, slot).code(), ErrCode::kInvalidArgs);
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(b_->stats().cmds_refused, 6u);
  EXPECT_EQ(b_->stats().msgs_sent, 0u);
  EXPECT_EQ(b_->FreeSlots(3), 3u);
  EXPECT_EQ(a_->Credits(0), 1u);
}

TEST_F(DtuTest, SlotHeldOnAnotherEndpointIsRefused) {
  std::vector<Message> held;
  for (EpId ep : {3, 4}) {
    b_->ConfigureRecv(ep, 2, [&](EpId, const Message& msg) { held.push_back(msg); });
  }
  a_->ConfigureSend(0, 1, 3, 1);
  a_->ConfigureSend(1, 1, 4, 1);
  ASSERT_TRUE(a_->Send(0, std::make_shared<Payload>(1)).ok());
  ASSERT_TRUE(a_->Send(1, std::make_shared<Payload>(2)).ok());
  sim_.RunUntilIdle();
  ASSERT_EQ(held.size(), 2u);
  uint32_t on3 = held[0].slot;
  uint32_t on4 = held[1].slot;
  EXPECT_EQ(b_->Reply(4, on3, std::make_shared<Payload>(3)).code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(b_->Ack(3, on4).code(), ErrCode::kInvalidArgs);
  sim_.RunUntilIdle();
  EXPECT_EQ(b_->stats().cmds_refused, 2u);
  EXPECT_EQ(b_->FreeSlots(3), 1u);
  EXPECT_EQ(b_->FreeSlots(4), 1u);
  EXPECT_EQ(a_->Credits(0), 0u);
  EXPECT_EQ(a_->Credits(1), 0u);

  // Each slot still answers on its own endpoint.
  EXPECT_TRUE(b_->Ack(3, on3).ok());
  EXPECT_TRUE(b_->Ack(4, on4).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(a_->Credits(0), 1u);
  EXPECT_EQ(a_->Credits(1), 1u);
}

// An answered slot is no longer held: a second reply or an ack to the same
// message cannot free the slot of another message on the endpoint, or
// return that message's credit.
TEST_F(DtuTest, AnsweredSlotIsRefused) {
  int replies = 0;
  a_->ConfigureRecv(5, 2, [&](EpId, const Message&) { ++replies; });
  std::vector<Message> held;
  b_->ConfigureRecv(3, 4, [&](EpId, const Message& msg) { held.push_back(msg); });
  a_->ConfigureSend(0, 1, 3, 2);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(a_->Send(0, std::make_shared<Payload>(i), /*reply_ep=*/5).ok());
  }
  sim_.RunUntilIdle();
  ASSERT_EQ(held.size(), 2u);
  EXPECT_TRUE(b_->Reply(3, held[0].slot, std::make_shared<Payload>(7)).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(b_->FreeSlots(3), 3u);
  EXPECT_EQ(a_->Credits(0), 1u);

  EXPECT_EQ(b_->Reply(3, held[0].slot, std::make_shared<Payload>(8)).code(),
            ErrCode::kInvalidArgs);
  EXPECT_EQ(b_->Ack(3, held[0].slot).code(), ErrCode::kInvalidArgs);
  sim_.RunUntilIdle();
  EXPECT_EQ(b_->stats().cmds_refused, 2u);
  EXPECT_EQ(b_->FreeSlots(3), 3u);
  EXPECT_EQ(a_->Credits(0), 1u);
  EXPECT_EQ(replies, 1);

  EXPECT_TRUE(b_->Reply(3, held[1].slot, std::make_shared<Payload>(9)).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(replies, 2);
  EXPECT_EQ(b_->FreeSlots(3), 4u);
  EXPECT_EQ(a_->Credits(0), 2u);
}

// A freed slot id goes to a later message. Answering it reaches that
// message's sender, once; the earlier sender hears nothing more.
TEST_F(DtuTest, RecycledSlotAnswersItsNewSenderOnce) {
  int a_replies = 0;
  int c_replies = 0;
  a_->ConfigureRecv(5, 1, [&](EpId, const Message&) { ++a_replies; });
  c_->ConfigureRecv(6, 1, [&](EpId, const Message&) { ++c_replies; });
  std::vector<Message> held;
  b_->ConfigureRecv(3, 4, [&](EpId, const Message& msg) { held.push_back(msg); });
  a_->ConfigureSend(0, 1, 3, 1);
  c_->ConfigureSend(2, 1, 3, 1);
  ASSERT_TRUE(a_->Send(0, std::make_shared<Payload>(1), /*reply_ep=*/5).ok());
  sim_.RunUntilIdle();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_TRUE(b_->Reply(3, held[0].slot, std::make_shared<Payload>(2)).ok());
  ASSERT_TRUE(c_->Send(2, std::make_shared<Payload>(3), /*reply_ep=*/6).ok());
  sim_.RunUntilIdle();
  ASSERT_EQ(held.size(), 2u);
  ASSERT_EQ(held[1].slot, held[0].slot);
  EXPECT_EQ(held[1].src_node, 2u);

  EXPECT_TRUE(b_->Reply(3, held[1].slot, std::make_shared<Payload>(4)).ok());
  EXPECT_EQ(b_->Reply(3, held[1].slot, std::make_shared<Payload>(5)).code(),
            ErrCode::kInvalidArgs);
  sim_.RunUntilIdle();
  EXPECT_EQ(a_replies, 1);
  EXPECT_EQ(c_replies, 1);
  EXPECT_EQ(a_->Credits(0), 1u);
  EXPECT_EQ(c_->Credits(2), 1u);
  EXPECT_EQ(b_->FreeSlots(3), 4u);
  EXPECT_EQ(b_->stats().cmds_refused, 1u);
}

// Reconfiguring a receive endpoint drops the requests it held, as on M3:
// their slots answer nothing afterwards, and the new endpoint starts with
// every slot free.
TEST_F(DtuTest, ReconfiguredEndpointDropsItsSlots) {
  std::vector<Message> held;
  b_->ConfigureRecv(3, 2, [&](EpId, const Message& msg) { held.push_back(msg); });
  a_->ConfigureSend(0, 1, 3, 2);
  ASSERT_TRUE(a_->Send(0, std::make_shared<Payload>(1)).ok());
  sim_.RunUntilIdle();
  ASSERT_EQ(held.size(), 1u);
  b_->ConfigureRecv(3, 2, [&](EpId, const Message& msg) { held.push_back(msg); });
  EXPECT_EQ(b_->FreeSlots(3), 2u);
  EXPECT_EQ(b_->Ack(3, held[0].slot).code(), ErrCode::kInvalidArgs);

  ASSERT_TRUE(a_->Send(0, std::make_shared<Payload>(2)).ok());
  sim_.RunUntilIdle();
  ASSERT_EQ(held.size(), 2u);
  EXPECT_TRUE(b_->Ack(3, held[1].slot).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(b_->FreeSlots(3), 2u);
  EXPECT_EQ(a_->Credits(0), 1u);  // the dropped request's credit never returns
  EXPECT_EQ(b_->stats().cmds_refused, 1u);
}

// A downgraded DTU refuses the privileged commands: nothing leaves it, no
// endpoint changes on either side, and each refusal is counted.
TEST_F(DtuTest, SendToRequiresPrivilege) {
  int received = 0;
  b_->ConfigureRecv(3, 4, [&](EpId, const Message&) { ++received; });
  a_->Downgrade();
  EXPECT_EQ(a_->SendTo(1, 3, std::make_shared<Payload>(1)).code(), ErrCode::kInvalidArgs);
  sim_.RunUntilIdle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(a_->stats().msgs_sent, 0u);
  EXPECT_EQ(a_->stats().cmds_refused, 1u);
}

TEST_F(DtuTest, ConfigAfterDowngradeIsRefused) {
  a_->Downgrade();
  a_->ConfigureSend(0, 1, 3, 1);
  a_->ConfigureRecv(3, 4, nullptr);
  a_->ConfigureMem(4, 1, 0, 64, MemPerms{true, true});
  bool done = false;
  a_->ConfigureRemoteSend(1, 2, 0, 7, 3, 0, [&] { done = true; });
  a_->ConfigureRemoteMem(1, 4, 0, 0, 64, MemPerms{true, false}, [&] { done = true; });
  b_->ConfigureRecv(5, 4, [](EpId, const Message&) {});
  a_->InvalidateRemoteEp(1, 5, [&] { done = true; });
  sim_.RunUntilIdle();
  EXPECT_FALSE(done);
  for (EpId ep : {0, 3, 4}) {
    EXPECT_FALSE(a_->EpValid(ep)) << "endpoint " << ep;
  }
  EXPECT_FALSE(b_->EpValid(2));
  EXPECT_FALSE(b_->EpValid(4));
  EXPECT_EQ(b_->FreeSlots(5), 4u);
  EXPECT_EQ(a_->stats().cmds_refused, 6u);
}

TEST_F(DtuTest, RemoteConfigInstallsEndpoint) {
  b_->Downgrade();
  bool done = false;
  a_->ConfigureRemoteSend(1, 2, 0, 7, 3, 0, [&] { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_TRUE(b_->EpValid(2));
  EXPECT_EQ(b_->Credits(2), 3u);
}

TEST_F(DtuTest, RemoteInvalidateRemovesEndpoint) {
  b_->Downgrade();
  a_->ConfigureRemoteSend(1, 2, 0, 7, 3, 0, nullptr);
  sim_.RunUntilIdle();
  ASSERT_TRUE(b_->EpValid(2));
  a_->InvalidateRemoteEp(1, 2, nullptr);
  sim_.RunUntilIdle();
  EXPECT_FALSE(b_->EpValid(2));
}

TEST_F(DtuTest, MemoryReadChecksPermsAndRange) {
  a_->ConfigureMem(6, 1, 0, 4096, MemPerms{true, false});
  bool done = false;
  EXPECT_TRUE(a_->Read(6, 0, 1024, [&] { done = true; }).ok());
  EXPECT_EQ(a_->Write(6, 0, 16, [] {}).code(), ErrCode::kNoPerm);
  EXPECT_EQ(a_->Read(6, 4000, 1024, [] {}).code(), ErrCode::kOutOfRange);
  // offset + bytes wraps past 2^64 to 16, inside the window.
  EXPECT_EQ(a_->Read(6, ~uint64_t{0} - 15, 32, [] {}).code(), ErrCode::kOutOfRange);
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(a_->stats().mem_reads, 1u);
}

TEST_F(DtuTest, MemoryAccessLatencyScalesWithSize) {
  a_->ConfigureMem(6, 1, 0, 1 << 22, MemPerms{true, true});
  Cycles small = 0;
  Cycles large = 0;
  a_->Read(6, 0, 64, [&] { small = sim_.Now(); });
  sim_.RunUntilIdle();
  Cycles base = sim_.Now();
  a_->Read(6, 0, 1 << 20, [&] { large = sim_.Now(); });
  sim_.RunUntilIdle();
  EXPECT_GT(large - base, small);
}

TEST_F(DtuTest, SendOnUnconfiguredEpFails) {
  EXPECT_EQ(a_->Send(0, std::make_shared<Payload>(1)).code(), ErrCode::kInvalidArgs);
  EXPECT_EQ(a_->stats().sends_denied, 1u);
}

TEST_F(DtuTest, LabelIsDeliveredWithMessage) {
  uint64_t label = 0;
  b_->ConfigureRecv(3, 4, [&](EpId, const Message& msg) {
    label = msg.label;
    b_->Ack(3, msg.slot);
  });
  a_->ConfigureSend(0, 1, 3, 1, /*label=*/0xBEEF);
  a_->Send(0, std::make_shared<Payload>(1));
  sim_.RunUntilIdle();
  EXPECT_EQ(label, 0xBEEFu);
}

}  // namespace
}  // namespace semperos
