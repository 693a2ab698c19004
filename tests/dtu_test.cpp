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
  }

  static NocConfig MakeConfig() {
    NocConfig config;
    config.width = 2;
    config.height = 1;
    return config;
  }

  Simulation sim_;
  Noc noc_;
  DtuFabric fabric_;
  std::unique_ptr<Dtu> a_;
  std::unique_ptr<Dtu> b_;
};

TEST_F(DtuTest, SendDeliversToReceiveEndpoint) {
  int received = 0;
  b_->ConfigureRecv(3, 4, [&](EpId ep, const Message& msg) {
    EXPECT_EQ(ep, 3u);
    received = msg.As<Payload>()->value;
    b_->Ack(3, msg);
  });
  a_->ConfigureSend(0, 1, 3, 2);
  EXPECT_TRUE(a_->Send(0, std::make_shared<Payload>(42)).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(received, 42);
}

TEST_F(DtuTest, SendConsumesCreditAckReturnsIt) {
  b_->ConfigureRecv(3, 4, [&](EpId, const Message& msg) { b_->Ack(3, msg); });
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
    b_->Reply(3, msg, std::make_shared<Payload>(7));
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
    b_->Reply(3, m, std::make_shared<Payload>(9));
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(replies, 3);
  EXPECT_EQ(a_->stats().msgs_dropped, 0u);
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
    b_->Ack(3, msg);
  });
  a_->ConfigureSend(0, 1, 3, 1, /*label=*/0xBEEF);
  a_->Send(0, std::make_shared<Payload>(1));
  sim_.RunUntilIdle();
  EXPECT_EQ(label, 0xBEEFu);
}

}  // namespace
}  // namespace semperos
