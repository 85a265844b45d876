// Unit tests for src/util: RNG determinism and distribution sanity, string
// helpers, table rendering, telemetry metrics, contract checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <vector>

#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace rfsm {
namespace {

TEST(Check, ThrowsContractErrorWithContext) {
  try {
    RFSM_CHECK(1 == 2, "numbers disagree");
    FAIL() << "expected ContractError";
  } catch (const ContractError& error) {
    EXPECT_NE(std::string(error.what()).find("numbers disagree"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(RFSM_CHECK(true, "fine"));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int k = 0; k < 100; ++k) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int k = 0; k < 64; ++k)
    if (a() == b()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int k = 0; k < 1000; ++k) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int k = 0; k < 500; ++k) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowRejectsZeroBound) {
  Rng rng(3);
  EXPECT_THROW(rng.below(0), ContractError);
}

TEST(Rng, BelowIsUnbiasedChiSquare) {
  // Rejection sampling must give a flat distribution even for a bound that
  // does not divide 2^64.  Chi-square over 13 buckets, 13000 draws: the
  // statistic is ~chi2(12), whose 99.99th percentile is ~39.1; 50 flags a
  // real bias, not noise.
  Rng rng(12345);
  constexpr std::uint64_t kBound = 13;
  constexpr int kDraws = 13000;
  std::vector<int> buckets(kBound, 0);
  for (int k = 0; k < kDraws; ++k) ++buckets[rng.below(kBound)];
  const double expected = static_cast<double>(kDraws) / kBound;
  double chi2 = 0;
  for (const int observed : buckets) {
    const double d = observed - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 50.0);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool sawLo = false, sawHi = false;
  for (int k = 0; k < 2000; ++k) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= (v == -3);
    sawHi |= (v == 3);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int k = 0; k < 10000; ++k) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int k = 0; k < 50; ++k) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, ShuffleHandlesEmptyAndSingleton) {
  Rng rng(19);
  std::vector<int> empty;
  EXPECT_NO_THROW(rng.shuffle(empty));
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  EXPECT_NO_THROW(rng.shuffle(one));
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // The child stream should not track the parent.
  int same = 0;
  for (int k = 0; k < 64; ++k)
    if (a() == child()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, SubstreamIsDeterministicPerIndex) {
  const Rng base(77);
  Rng a = base.substream(3);
  Rng b = base.substream(3);
  for (int k = 0; k < 64; ++k) EXPECT_EQ(a(), b());
}

TEST(Rng, SubstreamsOfDifferentIndicesDiffer) {
  const Rng base(77);
  Rng a = base.substream(0);
  Rng b = base.substream(1);
  int same = 0;
  for (int k = 0; k < 64; ++k)
    if (a() == b()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, SubstreamDoesNotAdvanceTheParent) {
  Rng parent(31);
  Rng untouched(31);
  (void)parent.substream(9);
  (void)parent.substream(2);
  for (int k = 0; k < 32; ++k) EXPECT_EQ(parent(), untouched());
}

TEST(Rng, SubstreamIndependentOfCallOrder) {
  const Rng base(55);
  Rng early = base.substream(5);
  (void)base.substream(2);
  Rng late = base.substream(5);
  for (int k = 0; k < 32; ++k) EXPECT_EQ(early(), late());
}

TEST(Hash, Fnv1a64MatchesTheStandardVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, Fnv1a64ChainsPiecesAsOneStream) {
  EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
  // A u64 hashes as its 8 little-endian bytes: "12345678".
  EXPECT_EQ(fnv1a64(std::uint64_t{0x3837363534333231}, kFnv1a64Basis),
            fnv1a64("12345678"));
  EXPECT_EQ(fnv1a64(std::uint64_t{0x3837363534333231}, fnv1a64("ab")),
            fnv1a64("ab12345678"));
}

TEST(Metrics, CounterAccumulatesAndResets) {
  metrics::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Metrics, TimerAccumulatesAndResets) {
  metrics::Timer timer;
  timer.record(std::chrono::microseconds(250));
  timer.record(std::chrono::microseconds(750));
  EXPECT_EQ(timer.count(), 2u);
  EXPECT_EQ(timer.total(), std::chrono::nanoseconds(1000000));
  timer.reset();
  EXPECT_EQ(timer.count(), 0u);
  EXPECT_EQ(timer.total(), std::chrono::nanoseconds(0));
}

TEST(Metrics, RegistryReturnsStableReferences) {
  metrics::Counter& a = metrics::counter("test.registry_stable");
  metrics::Counter& b = metrics::counter("test.registry_stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  a.reset();
}

TEST(Metrics, SnapshotSkipsZeroEntriesAndSortsByName) {
  metrics::resetAll();
  metrics::counter("test.snap_b").add(2);
  metrics::counter("test.snap_a").add(1);
  metrics::counter("test.snap_zero");  // registered but never bumped
  const metrics::Snapshot snap = metrics::snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "test.snap_a");
  EXPECT_EQ(snap.counters[1].name, "test.snap_b");
  metrics::resetAll();
  EXPECT_TRUE(metrics::snapshot().empty());
}

TEST(Metrics, MarkdownRendersCountersTimersAndHitRate) {
  metrics::resetAll();
  metrics::counter(metrics::kServicePlanCacheHits).add(3);
  metrics::counter(metrics::kServicePlanCacheMisses).add(1);
  metrics::timer("test.render").record(std::chrono::milliseconds(2));
  const std::string md = metrics::toMarkdown(metrics::snapshot());
  EXPECT_NE(md.find(metrics::kServicePlanCacheHits), std::string::npos);
  EXPECT_NE(md.find("Plan cache hit rate: 75.0%"), std::string::npos);
  EXPECT_NE(md.find("test.render"), std::string::npos);
  EXPECT_EQ(metrics::toMarkdown(metrics::Snapshot{}), "");
  metrics::resetAll();
}

TEST(Metrics, CsvRendersOneRowPerMetric) {
  metrics::resetAll();
  metrics::counter("test.csv_counter").add(7);
  metrics::timer("test.csv_timer").record(std::chrono::milliseconds(3));
  const std::string csv = metrics::toCsv(metrics::snapshot());
  EXPECT_NE(
      csv.find("kind,name,value,count,total_ms,p50_ms,p90_ms,p99_ms,max_ms\n"),
      std::string::npos);
  EXPECT_NE(csv.find("counter,test.csv_counter,7,,,,,,\n"), std::string::npos);
  EXPECT_NE(csv.find("timer,test.csv_timer,,1,"), std::string::npos);
  EXPECT_EQ(metrics::toCsv(metrics::Snapshot{}), "");
  metrics::resetAll();
}

TEST(Metrics, CsvQuotesSpecialCharactersPerRfc4180) {
  // Names carrying separators, quotes, or line breaks must arrive as one
  // field: quoted, with embedded quotes doubled.
  metrics::Snapshot snap;
  snap.counters.push_back({"plain.name", 1});
  snap.counters.push_back({"with,comma", 2});
  snap.counters.push_back({"with \"quotes\"", 3});
  snap.counters.push_back({"with\nnewline", 4});
  const std::string csv = metrics::toCsv(snap);
  EXPECT_NE(csv.find("counter,plain.name,1,"), std::string::npos);
  EXPECT_NE(csv.find("counter,\"with,comma\",2,"), std::string::npos);
  EXPECT_NE(csv.find("counter,\"with \"\"quotes\"\"\",3,"),
            std::string::npos);
  EXPECT_NE(csv.find("counter,\"with\nnewline\",4,"), std::string::npos);
}

TEST(Metrics, CsvAndJsonRenderHistograms) {
  metrics::resetAll();
  metrics::Histogram& h = metrics::histogram("test.csv_histogram");
  h.record(std::chrono::milliseconds(2));
  h.record(std::chrono::milliseconds(4));
  const metrics::Snapshot snap = metrics::snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 2u);
  const std::string csv = metrics::toCsv(snap);
  EXPECT_NE(csv.find("histogram,test.csv_histogram,,2,"), std::string::npos);
  const std::string json = metrics::toJson(snap);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.csv_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos);
  const std::string md = metrics::toMarkdown(snap);
  EXPECT_NE(md.find("test.csv_histogram"), std::string::npos);
  metrics::resetAll();
}

TEST(Metrics, JsonRendersCountersAndTimers) {
  metrics::resetAll();
  metrics::counter("test.json_counter").add(2);
  metrics::timer("test.json_timer").record(std::chrono::milliseconds(1));
  const std::string json = metrics::toJson(metrics::snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_timer\": {\"count\": 1"),
            std::string::npos);
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(metrics::toJson(metrics::Snapshot{}), "");
  metrics::resetAll();
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWhitespaceDropsEmpties) {
  const auto parts = splitWhitespace("  one\t two \n three  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "one");
  EXPECT_EQ(parts[2], "three");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x y \t"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(startsWith("kiss2", "kiss"));
  EXPECT_FALSE(startsWith("ki", "kiss"));
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(formatFixed(1.23456, 2), "1.23");
  EXPECT_EQ(formatFixed(2.0, 1), "2.0");
}

TEST(Table, MarkdownHasHeaderSeparatorAndRows) {
  Table t({"a", "bb"});
  t.addRow({"1", "2"});
  t.addRow({"333", "4"});
  const std::string md = t.toMarkdown();
  EXPECT_NE(md.find("| a "), std::string::npos);
  EXPECT_NE(md.find("|---"), std::string::npos);
  EXPECT_NE(md.find("| 333 "), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, CsvRendering) {
  Table t({"x", "y"});
  t.addRow({"1", "2"});
  EXPECT_EQ(t.toCsv(), "x,y\n1,2\n");
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table t({"only"});
  EXPECT_THROW(t.addRow({"a", "b"}), ContractError);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), ContractError);
}

}  // namespace
}  // namespace rfsm
