// SLRU + ghost-list cache policy and canonical content hashing.
//
// The SLRU suite pins the admission/eviction policy the plan cache rides
// on — including the fill-evict-reinsert sequence that a bare-FIFO
// bookkeeping bug would get wrong (evicting more than overflow, or
// resurrecting an erased key from the ghost list).  The hasher suite pins
// the structural (type-tagged, length-prefixed) canonicalization the
// plan-cache key depends on: any accidental concatenation collision here
// is a cache-aliasing bug there.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/canonical_hash.hpp"
#include "util/cache.hpp"

namespace rfsm {
namespace {

using Cache = SlruCache<int>;

std::vector<std::string> keys(int count) {
  std::vector<std::string> out;
  for (int k = 0; k < count; ++k) out.push_back("k" + std::to_string(k));
  return out;
}

// --- SLRU policy -------------------------------------------------------

TEST(SlruCache, FillEvictReinsertKeepsExactBookkeeping) {
  // Capacity 5: probation 1, protected 4.  Fill past capacity, verify each
  // put evicts exactly the overflow (never more), then re-insert an
  // evicted key and verify it is readmitted via the ghost list without
  // displacing anything it should not.
  Cache cache(5);
  const auto ks = keys(8);
  std::size_t evictions = 0;
  for (int k = 0; k < 8; ++k) {
    const auto outcome = cache.put(ks[static_cast<std::size_t>(k)], k);
    evictions += outcome.evicted;
    EXPECT_LE(cache.size(), 5u) << "over capacity after put " << k;
  }
  // 8 one-shot inserts into capacity 5 evict exactly 3 — one per
  // overflowing put, no double-eviction.
  EXPECT_EQ(evictions, 3u);
  EXPECT_EQ(cache.size(), 5u);

  // k0 was evicted (probation churn, LRU first).  Re-inserting it must
  // report a ghost readmission and land it protected: a subsequent scan of
  // fresh one-shot keys may not flush it.
  const auto back = cache.put(ks[0], 100);
  EXPECT_TRUE(back.readmitted);
  for (int k = 20; k < 24; ++k)
    cache.put("scan" + std::to_string(k), k);
  EXPECT_EQ(cache.get(ks[0]), std::optional<int>(100));
}

TEST(SlruCache, OneShotScanCannotFlushProtectedWorkingSet) {
  Cache cache(10);  // probation 2, protected 8
  // Build a proven working set: insert + touch promotes to protected.
  for (int k = 0; k < 4; ++k) {
    cache.put("hot" + std::to_string(k), k);
    EXPECT_TRUE(cache.get("hot" + std::to_string(k)).has_value());
  }
  // A long one-shot scan churns through probation only.
  for (int k = 0; k < 100; ++k)
    cache.put("cold" + std::to_string(k), k);
  for (int k = 0; k < 4; ++k)
    EXPECT_TRUE(cache.get("hot" + std::to_string(k)).has_value())
        << "scan flushed hot" << k;
}

TEST(SlruCache, ProtectedOverflowDemotesInsteadOfEvicting) {
  Cache cache(5);  // probation 1, protected 4
  // Promote 5 keys; the 5th promotion overflows protected (capacity 4) and
  // must demote the protected LRU tail back to probation, not evict it.
  for (int k = 0; k < 5; ++k) {
    cache.put("p" + std::to_string(k), k);
    EXPECT_TRUE(cache.get("p" + std::to_string(k)).has_value());
  }
  EXPECT_EQ(cache.size(), 5u);  // all five still resident
  for (int k = 0; k < 5; ++k)
    EXPECT_TRUE(cache.get("p" + std::to_string(k)).has_value());
}

TEST(SlruCache, KnownKeyPutUpdatesWithoutEviction) {
  Cache cache(3);
  cache.put("a", 1);
  cache.put("b", 2);
  cache.put("c", 3);
  const auto outcome = cache.put("b", 20);
  EXPECT_EQ(outcome.evicted, 0u);
  EXPECT_FALSE(outcome.readmitted);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.get("b"), std::optional<int>(20));
}

TEST(SlruCache, EraseDropsGhostHistoryToo) {
  // Quarantine semantics: after erase(), re-inserting the key must NOT be
  // readmitted on the strength of its (tainted) eviction history.
  Cache cache(2);
  cache.put("x", 1);
  cache.put("y", 2);
  cache.put("z", 3);  // evicts one of x/y to the ghost list
  // Whichever got evicted, erase both: one live entry and one ghost.
  cache.erase("x");
  cache.erase("y");
  EXPECT_FALSE(cache.put("x", 10).readmitted);
  EXPECT_FALSE(cache.put("y", 20).readmitted);
}

TEST(SlruCache, EvictedKeyReturnsAsGhostReadmission) {
  Cache cache(2);
  cache.put("x", 1);
  cache.put("y", 2);
  cache.put("z", 3);  // probation churn evicts the LRU one-hit-wonder
  std::size_t ghosts = 0;
  ghosts += cache.put("x", 10).readmitted ? 1 : 0;
  ghosts += cache.put("y", 20).readmitted ? 1 : 0;
  EXPECT_GE(ghosts, 1u) << "no evicted key was remembered as a ghost";
}

TEST(SlruCache, SetCapacityShrinkEvictsExactlyOverflow) {
  Cache cache(8);
  for (int k = 0; k < 8; ++k) cache.put("k" + std::to_string(k), k);
  EXPECT_EQ(cache.size(), 8u);
  const std::size_t evicted = cache.setCapacity(3);
  EXPECT_EQ(evicted, 5u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.capacity(), 3u);
}

TEST(SlruCache, CapacityZeroDisablesPuts) {
  Cache cache(0);
  EXPECT_EQ(cache.put("a", 1).evicted, 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get("a").has_value());

  Cache shrunk(4);
  shrunk.put("a", 1);
  shrunk.setCapacity(0);
  EXPECT_EQ(shrunk.size(), 0u);
  shrunk.put("b", 2);
  EXPECT_FALSE(shrunk.get("b").has_value());
}

TEST(SlruCache, CapacityOneStillServes) {
  Cache cache(1);
  cache.put("a", 1);
  EXPECT_EQ(cache.get("a"), std::optional<int>(1));
  cache.put("b", 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get("b"), std::optional<int>(2));
}

// --- Canonical hashing -------------------------------------------------

TEST(CanonicalHasher, DeterministicAcrossInstances) {
  CanonicalHasher a, b;
  a.u64(7).str("greedy").i64(-3);
  b.u64(7).str("greedy").i64(-3);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 32u);
}

TEST(CanonicalHasher, HexIsNonDestructive) {
  CanonicalHasher h;
  h.u64(1);
  const std::string first = h.hex();
  EXPECT_EQ(h.hex(), first);
  h.u64(2);
  EXPECT_NE(h.hex(), first);
}

TEST(CanonicalHasher, StringBoundariesCannotAliasByConcatenation) {
  CanonicalHasher ab_c, a_bc;
  ab_c.str("ab").str("c");
  a_bc.str("a").str("bc");
  EXPECT_NE(ab_c.hex(), a_bc.hex());

  CanonicalHasher joined;
  joined.str("abc");
  EXPECT_NE(joined.hex(), ab_c.hex());
}

TEST(CanonicalHasher, TypeTagsSeparateEqualBitPatterns) {
  CanonicalHasher asU64, asI64;
  asU64.u64(42);
  asI64.i64(42);
  EXPECT_NE(asU64.hex(), asI64.hex());

  // A u64 must not collide with a string whose length/word layout echoes
  // its value.
  CanonicalHasher asStr;
  asStr.str(std::string(1, '\x2a'));
  EXPECT_NE(asU64.hex(), asStr.hex());
}

TEST(CanonicalHasher, FieldOrderMatters) {
  CanonicalHasher ab, ba;
  ab.u64(1).u64(2);
  ba.u64(2).u64(1);
  EXPECT_NE(ab.hex(), ba.hex());
}

TEST(CanonicalHasher, EmptyStringStillAbsorbs) {
  CanonicalHasher with, without;
  with.u64(1).str("").u64(2);
  without.u64(1).u64(2);
  EXPECT_NE(with.hex(), without.hex());
}

}  // namespace
}  // namespace rfsm
