#include <gtest/gtest.h>

#include <set>

#include "base/rng.h"
#include "base/status.h"
#include "base/types.h"

namespace semperos {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrCode::kOk);
}

TEST(Status, ErrorCodesRoundTrip) {
  Status s(ErrCode::kNoCredits);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrCode::kNoCredits);
  EXPECT_STREQ(s.name(), "no send credits");
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrCode::kUnreachable); ++c) {
    EXPECT_STRNE(ErrName(static_cast<ErrCode>(c)), "unknown");
  }
}

TEST(Status, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status(ErrCode::kNoCredits), Status(ErrCode::kNoCredits));
  EXPECT_FALSE(Status(ErrCode::kNoCredits) == Status(ErrCode::kNoPerm));
}

TEST(Cycles, ConversionsAtTwoGHz) {
  EXPECT_DOUBLE_EQ(CyclesToMicros(2000), 1.0);
  EXPECT_DOUBLE_EQ(CyclesToSeconds(2'000'000'000), 1.0);
  EXPECT_EQ(MicrosToCycles(1.0), 2000u);
  EXPECT_EQ(MicrosToCycles(0.5), 1000u);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(11);
  bool lo_seen = false;
  bool hi_seen = false;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    lo_seen |= v == 3;
    hi_seen |= v == 5;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += rng.NextBool(0.5) ? 1 : 0;
  }
  EXPECT_GT(heads, 4700);
  EXPECT_LT(heads, 5300);
}

}  // namespace
}  // namespace semperos
