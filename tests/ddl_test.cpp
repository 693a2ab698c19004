#include <gtest/gtest.h>

#include <unordered_set>

#include "core/capability.h"
#include "core/kernel.h"
#include "core/ddl.h"

namespace semperos {
namespace {

TEST(DdlKey, RoundTripsAllFields) {
  DdlKey key = DdlKey::Make(9637, 12023, CapType::kSession, 0xFFFFFFFull);
  EXPECT_EQ(key.pe(), 9637u);
  EXPECT_EQ(key.vpe(), 12023u);
  EXPECT_EQ(key.type(), CapType::kSession);
  EXPECT_EQ(key.obj(), 0xFFFFFFFull);
}

TEST(DdlKey, NullIsDistinguished) {
  DdlKey null;
  EXPECT_TRUE(null.IsNull());
  DdlKey key = DdlKey::Make(0, 0, CapType::kVpe, 1);
  EXPECT_FALSE(key.IsNull());
}

TEST(DdlKey, DistinctFieldsYieldDistinctKeys) {
  std::unordered_set<DdlKey> seen;
  for (NodeId pe = 0; pe < 8; ++pe) {
    for (uint64_t obj = 1; obj <= 8; ++obj) {
      for (auto type : {CapType::kMem, CapType::kSession, CapType::kService}) {
        DdlKey key = DdlKey::Make(pe, pe, type, obj);
        EXPECT_TRUE(seen.insert(key).second) << "collision";
      }
    }
  }
  EXPECT_EQ(seen.size(), 8u * 8u * 3u);
}

TEST(DdlKey, PartitionFieldSelectsKernel) {
  // "We use the PE ID to split the key space into multiple partitions"
  // (paper §3.2).
  MembershipTable table(16);
  for (NodeId pe = 0; pe < 16; ++pe) {
    table.Assign(pe, pe / 4);
  }
  DdlKey key = DdlKey::Make(9, 9, CapType::kMem, 77);
  EXPECT_EQ(table.KernelOfKey(key), 2u);
}

TEST(DdlKey, MaxFieldValuesRoundTrip) {
  // The largest encodable ids: 14-bit PE/VPE, 28-bit object id (the
  // widened layout that admits 10k+-PE open-loop traffic platforms).
  constexpr NodeId kMaxPe = (1u << DdlKey::kPeBits) - 1;
  constexpr VpeId kMaxVpe = (1u << DdlKey::kVpeBits) - 1;
  constexpr uint64_t kMaxObj = (1ull << DdlKey::kObjBits) - 1;
  DdlKey key = DdlKey::Make(kMaxPe, kMaxVpe, CapType::kKernel, kMaxObj);
  EXPECT_EQ(key.pe(), kMaxPe);
  EXPECT_EQ(key.vpe(), kMaxVpe);
  EXPECT_EQ(key.type(), CapType::kKernel);
  EXPECT_EQ(key.obj(), kMaxObj);
  // Max fields must not spill into neighbouring regions.
  DdlKey pe_only = DdlKey::Make(kMaxPe, 0, CapType::kNone, 0);
  EXPECT_EQ(pe_only.vpe(), 0u);
  EXPECT_EQ(pe_only.obj(), 0u);
  DdlKey obj_only = DdlKey::Make(0, 0, CapType::kNone, kMaxObj);
  EXPECT_EQ(obj_only.pe(), 0u);
  EXPECT_EQ(obj_only.vpe(), 0u);
}

TEST(DdlKey, MakeRejectsOutOfRangeFields) {
  // First value past each field's region must CHECK-fail (CHECK_LT).
  EXPECT_DEATH(DdlKey::Make(1u << DdlKey::kPeBits, 0, CapType::kVpe, 1), "");
  EXPECT_DEATH(DdlKey::Make(0, 1u << DdlKey::kVpeBits, CapType::kVpe, 1), "");
  EXPECT_DEATH(DdlKey::Make(0, 0, CapType::kVpe, 1ull << DdlKey::kObjBits), "");
}

TEST(Membership, LookupAfterEpochBumpResolvesToNewKernel) {
  MembershipTable table(8);
  for (NodeId pe = 0; pe < 8; ++pe) {
    table.Assign(pe, pe / 4);
  }
  EXPECT_EQ(table.Epoch(), 0u);  // boot-time wiring is epoch-free
  DdlKey key = DdlKey::Make(5, 5, CapType::kMem, 42);
  ASSERT_EQ(table.KernelOfKey(key), 1u);
  table.Apply(5, 0, 1);
  EXPECT_EQ(table.KernelOfKey(key), 0u);
  EXPECT_EQ(table.PeEpoch(5), 1u);
  // Other partitions are untouched by the bump.
  EXPECT_EQ(table.KernelOf(4), 1u);
  EXPECT_EQ(table.PeEpoch(4), 0u);
}

TEST(Membership, ApplyMergesEpochsMonotonically) {
  MembershipTable table(4);
  for (NodeId pe = 0; pe < 4; ++pe) {
    table.Assign(pe, 0);
  }
  table.Apply(2, 1, 7);
  EXPECT_EQ(table.KernelOf(2), 1u);
  EXPECT_EQ(table.Epoch(), 7u);
  // A lower-epoch broadcast for a different partition still applies its
  // mapping but cannot move the observed epoch backwards.
  table.Apply(3, 1, 3);
  EXPECT_EQ(table.KernelOf(3), 1u);
  EXPECT_EQ(table.Epoch(), 7u);
}

TEST(Membership, ApplyIgnoresStaleOutOfOrderUpdates) {
  // Back-to-back migrations of one PE broadcast from different sources;
  // with only pairwise FIFO a peer can see them out of order. The newest
  // epoch must win and the stale one must not roll the mapping back.
  MembershipTable table(4);
  for (NodeId pe = 0; pe < 4; ++pe) {
    table.Assign(pe, 0);
  }
  table.Apply(2, 2, 5);  // second hop (owner: kernel 2) arrives first
  table.Apply(2, 1, 3);  // first hop's broadcast arrives late
  EXPECT_EQ(table.KernelOf(2), 2u);
  EXPECT_EQ(table.PeEpoch(2), 5u);
  EXPECT_EQ(table.Epoch(), 5u);
}

TEST(Membership, CopiesShareTheMappingUntilOneChangesIt) {
  // Every kernel's table is a copy of the platform's boot-time table: the
  // copies read one mapping, and a change to one copy stays in that copy.
  MembershipTable source(8);
  for (NodeId pe = 0; pe < 8; ++pe) {
    source.Assign(pe, pe / 4);
  }
  MembershipTable a = source;
  MembershipTable b = source;
  EXPECT_TRUE(a.SharesMappingWith(source));
  EXPECT_TRUE(b.SharesMappingWith(source));
  for (NodeId pe = 0; pe < 8; ++pe) {
    EXPECT_EQ(a.KernelOf(pe), source.KernelOf(pe));
    EXPECT_EQ(b.KernelOf(pe), source.KernelOf(pe));
  }

  a.Apply(5, 0, 3);
  EXPECT_FALSE(a.SharesMappingWith(source));
  EXPECT_TRUE(b.SharesMappingWith(source));
  EXPECT_EQ(a.KernelOf(5), 0u);
  EXPECT_EQ(source.KernelOf(5), 1u);
  EXPECT_EQ(b.KernelOf(5), 1u);
  // Epochs are each copy's own.
  EXPECT_EQ(a.Epoch(), 3u);
  EXPECT_EQ(a.PeEpoch(5), 3u);
  EXPECT_EQ(source.Epoch(), 0u);
  EXPECT_EQ(source.PeEpoch(5), 0u);
  EXPECT_EQ(b.Epoch(), 0u);

  // The source's own writes copy too: a shares nothing with it any more,
  // b still holds the boot-time mapping.
  source.Assign(2, 1);
  EXPECT_FALSE(source.SharesMappingWith(b));
  EXPECT_EQ(source.KernelOf(2), 1u);
  EXPECT_EQ(a.KernelOf(2), 0u);
  EXPECT_EQ(b.KernelOf(2), 0u);

  b.Apply(1, 1, 2);
  b.Apply(1, 0, 1);  // stale: the per-PE epoch guard holds in the copy
  EXPECT_EQ(b.KernelOf(1), 1u);
  EXPECT_EQ(b.Epoch(), 2u);
  EXPECT_EQ(a.KernelOf(1), 0u);
  EXPECT_EQ(a.PeEpoch(1), 0u);
  EXPECT_EQ(source.KernelOf(1), 0u);
  EXPECT_EQ(a.Epoch(), 3u);

  // A copy of a copy that changed shares that copy's mapping and epochs.
  MembershipTable c = a;
  EXPECT_TRUE(c.SharesMappingWith(a));
  EXPECT_EQ(c.KernelOf(5), 0u);
  EXPECT_EQ(c.PeEpoch(5), 3u);
  c.Assign(5, 1);
  EXPECT_EQ(a.KernelOf(5), 0u);
  EXPECT_EQ(c.KernelOf(5), 1u);
}

TEST(Capability, ChildLinksAddAndRemove) {
  Capability cap(DdlKey::Make(1, 1, CapType::kMem, 1), CapType::kMem, 1, 5);
  DdlKey c1 = DdlKey::Make(2, 2, CapType::kMem, 2);
  DdlKey c2 = DdlKey::Make(3, 3, CapType::kMem, 3);
  cap.AddChild(c1);
  cap.AddChild(c2);
  EXPECT_EQ(cap.children().size(), 2u);
  EXPECT_TRUE(cap.RemoveChild(c1));
  EXPECT_FALSE(cap.RemoveChild(c1));  // already gone
  ASSERT_EQ(cap.children().size(), 1u);
  EXPECT_EQ(cap.children()[0], c2);
}

TEST(Capability, MarkIsSticky) {
  Capability cap(DdlKey::Make(1, 1, CapType::kMem, 1), CapType::kMem, 1, 5);
  EXPECT_FALSE(cap.marked());
  RevokeTask task;
  cap.Mark(&task);
  EXPECT_TRUE(cap.marked());
  EXPECT_EQ(cap.task(), &task);
}

TEST(CapSpace, CreateFindErase) {
  CapSpace space;
  DdlKey key = DdlKey::Make(4, 4, CapType::kMem, 9);
  Capability* cap = space.Create(key, CapType::kMem, 4, 2);
  EXPECT_EQ(space.Find(key), cap);
  EXPECT_EQ(space.size(), 1u);
  space.Erase(key);
  EXPECT_EQ(space.Find(key), nullptr);
  EXPECT_EQ(space.size(), 0u);
}

TEST(CapSpace, DuplicateKeyDies) {
  CapSpace space;
  DdlKey key = DdlKey::Make(4, 4, CapType::kMem, 9);
  space.Create(key, CapType::kMem, 4, 2);
  EXPECT_DEATH(space.Create(key, CapType::kMem, 4, 3), "duplicate");
}

TEST(DdlCache, SecondLookupUnderSameEpochHits) {
  DdlCache cache;
  DdlKey key = DdlKey::Make(3, 3, CapType::kMem, 7);
  EXPECT_FALSE(cache.Lookup(key, 0));  // miss inserts
  EXPECT_TRUE(cache.Lookup(key, 0));   // hit
  EXPECT_FALSE(cache.Lookup(DdlKey::Make(4, 4, CapType::kMem, 7), 0));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(DdlCache, EpochChangeDropsEverything) {
  DdlCache cache;
  DdlKey key = DdlKey::Make(3, 3, CapType::kMem, 7);
  EXPECT_FALSE(cache.Lookup(key, 0));
  EXPECT_TRUE(cache.Lookup(key, 0));
  // Any epoch *change* invalidates — newer from a membership bump, and
  // "older" too (a fresh cache after failover takeover must not trust
  // entries probed under a different view).
  EXPECT_FALSE(cache.Lookup(key, 1));
  EXPECT_TRUE(cache.Lookup(key, 1));
  EXPECT_FALSE(cache.Lookup(key, 0));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DdlCache, InvalidateClearsWithoutEpochChange) {
  DdlCache cache;
  DdlKey key = DdlKey::Make(5, 5, CapType::kSession, 1);
  EXPECT_FALSE(cache.Lookup(key, 2));
  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(key, 2));  // re-probes as a miss
}

TEST(DdlCache, OverflowClearsWholesale) {
  DdlCache cache;
  // Fill to capacity; the next distinct insert clears the set first, so
  // the cache stays bounded and allocation-stable.
  for (uint64_t obj = 0; obj < DdlCache::kMaxEntries; ++obj) {
    EXPECT_FALSE(cache.Lookup(DdlKey::Make(1, 1, CapType::kMem, obj), 0));
  }
  EXPECT_EQ(cache.size(), DdlCache::kMaxEntries);
  DdlKey straw = DdlKey::Make(2, 2, CapType::kMem, 1);
  EXPECT_FALSE(cache.Lookup(straw, 0));
  EXPECT_EQ(cache.size(), 1u);  // only the straw survives
  EXPECT_TRUE(cache.Lookup(straw, 0));
  EXPECT_FALSE(cache.Lookup(DdlKey::Make(1, 1, CapType::kMem, 0), 0));
}

TEST(CapTypeName, AllNamed) {
  for (auto type : {CapType::kNone, CapType::kVpe, CapType::kMem, CapType::kSendGate,
                    CapType::kRecvGate, CapType::kService, CapType::kSession, CapType::kKernel}) {
    EXPECT_STRNE(CapTypeName(type), "?");
  }
}

}  // namespace
}  // namespace semperos
