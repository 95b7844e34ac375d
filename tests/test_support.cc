/**
 * @file
 * Unit tests for the support library: RNG, statistics, counters,
 * tables, string helpers and the interning dictionary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "hbbp/version.hh"
#include "support/dictionary.hh"
#include "support/histogram.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace hbbp {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next() == b.next())
            same++;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 200; i++)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng rng(3);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; i++)
        seen.insert(rng.nextBelow(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; i++) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 20000; i++)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(23);
    RunningStats stats;
    for (int i = 0; i < 20000; i++)
        stats.add(rng.nextGaussian(10.0, 2.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, GeometricMean)
{
    Rng rng(29);
    double sum = 0;
    const double p = 0.25;
    const int n = 20000;
    for (int i = 0; i < n; i++)
        sum += static_cast<double>(rng.nextGeometric(p));
    // Mean of geometric (failures before success) is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ForkIndependentStreams)
{
    Rng base(31);
    Rng f1 = base.fork(1);
    Rng f2 = base.fork(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (f1.next() == f2.next())
            same++;
    EXPECT_LT(same, 2);
}

TEST(Splitmix, KnownToBeStable)
{
    // Pin the hash so address-keyed behaviour (PMU quirks) cannot
    // silently change.
    EXPECT_EQ(splitmix64(0), 16294208416658607535ULL);
    EXPECT_EQ(splitmix64(1), 10451216379200822465ULL);
}

TEST(RunningStats, Empty)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue)
{
    RunningStats s;
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, WeightedMean)
{
    RunningStats s;
    s.addWeighted(1.0, 1.0);
    s.addWeighted(10.0, 9.0);
    EXPECT_NEAR(s.mean(), 9.1, 1e-12);
    EXPECT_DOUBLE_EQ(s.totalWeight(), 10.0);
}

TEST(RunningStats, ZeroWeightIgnored)
{
    RunningStats s;
    s.addWeighted(100.0, 0.0);
    EXPECT_EQ(s.count(), 0u);
}

TEST(Stats, MeanAndPercentile)
{
    std::vector<double> xs{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(mean(xs), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> xs{0, 10};
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 10), 1.0);
}

TEST(Stats, Geomean)
{
    std::vector<double> xs{1, 100};
    EXPECT_NEAR(geomean(xs), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Counter, AddGetTotal)
{
    Counter<std::string> c;
    c.add("a");
    c.add("a", 2.0);
    c.add("b", 0.5);
    EXPECT_DOUBLE_EQ(c.get("a"), 3.0);
    EXPECT_DOUBLE_EQ(c.get("b"), 0.5);
    EXPECT_DOUBLE_EQ(c.get("missing"), 0.0);
    EXPECT_DOUBLE_EQ(c.total(), 3.5);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_TRUE(c.contains("a"));
    EXPECT_FALSE(c.contains("z"));
}

TEST(Counter, MergeWithScale)
{
    Counter<int> a, b;
    a.add(1, 2.0);
    b.add(1, 3.0);
    b.add(2, 1.0);
    a.merge(b, 2.0);
    EXPECT_DOUBLE_EQ(a.get(1), 8.0);
    EXPECT_DOUBLE_EQ(a.get(2), 2.0);
}

TEST(Counter, TopOrderingAndTieBreak)
{
    Counter<int> c;
    c.add(3, 5.0);
    c.add(1, 5.0);
    c.add(2, 9.0);
    auto top = c.top(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].first, 2);
    // Deterministic tie-break: smaller key first.
    EXPECT_EQ(top[1].first, 1);
}

TEST(Counter, ScaleAndClear)
{
    Counter<int> c;
    c.add(1, 4.0);
    c.scale(0.25);
    EXPECT_DOUBLE_EQ(c.get(1), 1.0);
    c.clear();
    EXPECT_TRUE(c.empty());
}

TEST(TextTable, RendersAlignedCells)
{
    TextTable t({"name", "value"});
    t.setAlign(1, Align::Right);
    t.addRow({"x", "1"});
    t.addRow({"longer", "23"});
    std::string out = t.render();
    EXPECT_NE(out.find("| x      |"), std::string::npos);
    EXPECT_NE(out.find("|    23 |"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, CsvQuoting)
{
    TextTable t({"a", "b"});
    t.addRow({"plain", "has,comma"});
    t.addRow({"has\"quote", "x"});
    std::string csv = t.renderCsv();
    EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TextTable, SeparatorNotCountedAsRow)
{
    TextTable t({"a"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Strings, SplitJoinRoundTrip)
{
    std::string s = "a,b,,c";
    auto parts = split(s, ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, ","), s);
}

TEST(Strings, CaseConversion)
{
    EXPECT_EQ(toLower("MovAps"), "movaps");
    EXPECT_EQ(toUpper("MovAps"), "MOVAPS");
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(startsWith("fitter_SSE", "fitter"));
    EXPECT_FALSE(startsWith("fit", "fitter"));
}

TEST(Strings, WithSeparators)
{
    EXPECT_EQ(withSeparators(0), "0");
    EXPECT_EQ(withSeparators(999), "999");
    EXPECT_EQ(withSeparators(1000), "1'000");
    EXPECT_EQ(withSeparators(1234567), "1'234'567");
}

TEST(Strings, HexAddrAndPercent)
{
    EXPECT_EQ(hexAddr(0x400000), "0x0000000000400000");
    EXPECT_EQ(percentStr(0.1234, 1), "12.3%");
    EXPECT_EQ(percentStr(0.1234, 2), "12.34%");
}

TEST(Logging, FormatBasics)
{
    EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(format("%.2f", 1.005), "1.00");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 1), "panic: boom 1");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT(fatal("bad config"), ::testing::ExitedWithCode(1),
                "fatal: bad config");
}

TEST(Strings, EditDistance)
{
    EXPECT_EQ(editDistance("", ""), 0u);
    EXPECT_EQ(editDistance("abc", "abc"), 0u);
    EXPECT_EQ(editDistance("", "abc"), 3u);
    EXPECT_EQ(editDistance("abc", ""), 3u);
    EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
    EXPECT_EQ(editDistance("test40", "test4"), 1u);
    EXPECT_EQ(editDistance("flaws", "lawn"), 2u);
    // Symmetry.
    EXPECT_EQ(editDistance("sitting", "kitten"),
              editDistance("kitten", "sitting"));
}

TEST(Strings, ClosestMatches)
{
    std::vector<std::string> names{"test40", "kernelbench",
                                   "fitter_sse", "fitter_x87",
                                   "clforward_before"};
    // Nearest first.
    std::vector<std::string> near = closestMatches("test4", names);
    ASSERT_FALSE(near.empty());
    EXPECT_EQ(near[0], "test40");

    // Case-insensitive.
    near = closestMatches("TEST40", names);
    ASSERT_FALSE(near.empty());
    EXPECT_EQ(near[0], "test40");

    // Result-count cap.
    near = closestMatches("fitter_ss", names, 1);
    ASSERT_EQ(near.size(), 1u);
    EXPECT_EQ(near[0], "fitter_sse");

    // Garbage far from everything suggests nothing.
    EXPECT_TRUE(closestMatches("zzzzzzzzzzzz", names).empty());

    // Exact match is its own best suggestion.
    near = closestMatches("kernelbench", names);
    ASSERT_FALSE(near.empty());
    EXPECT_EQ(near[0], "kernelbench");
}

TEST(Dictionary, IdsAreFirstSeen)
{
    Dictionary<uint64_t> d;
    EXPECT_EQ(d.intern(500), 0u);
    EXPECT_EQ(d.intern(7), 1u);
    EXPECT_EQ(d.intern(500), 0u);
    EXPECT_EQ(d.intern(0), 2u);
    EXPECT_EQ(d.intern(7), 1u);
    EXPECT_EQ(d.keys(), (std::vector<uint64_t>{500, 7, 0}));
}

TEST(Dictionary, GrowsPastSixtyFourSlotsAtHalfLoad)
{
    Dictionary<uint64_t> d;
    EXPECT_EQ(d.capacity(), 0u);
    Rng rng(11);
    std::vector<uint64_t> keys;
    std::set<uint64_t> seen;
    while (keys.size() < 1000) {
        uint64_t k = rng.next();
        if (seen.insert(k).second)
            keys.push_back(k);
    }
    for (size_t i = 0; i < keys.size(); i++) {
        ASSERT_EQ(d.intern(keys[i]), i);
        ASSERT_GE(d.capacity(), 64u);
        ASSERT_EQ(d.capacity() & (d.capacity() - 1), 0u);
        ASSERT_LE(2 * d.keys().size(), d.capacity()) << "load above 1/2";
    }
    EXPECT_GT(d.capacity(), 64u);
    // Every id survives the rehashes.
    for (size_t i = 0; i < keys.size(); i++)
        EXPECT_EQ(d.intern(keys[i]), i);
    EXPECT_EQ(d.keys(), keys);
}

/** sorted() is the ascending key table and rank() indexes into it. */
template <typename Key>
void
expectCanonical(Dictionary<Key> &d)
{
    std::vector<Key> table = d.sorted();
    std::vector<Key> want = d.keys();
    std::sort(want.begin(), want.end());
    EXPECT_EQ(table, want);
    for (uint32_t id = 0; id < d.keys().size(); id++)
        EXPECT_EQ(table[d.rank(id)], d.keys()[id]);
}

TEST(Dictionary, SortedAndRankAreCanonicalForAddresses)
{
    Dictionary<uint64_t> a, b;
    for (uint64_t k : {40, 10, 30, 10, 20, 40})
        a.intern(k);
    for (uint64_t k : {20, 30, 40, 10})
        b.intern(k);
    expectCanonical(a);
    expectCanonical(b);
    // The same key set gives the same table, whatever the first-seen
    // order, and each key the same rank.
    EXPECT_EQ(a.sorted(), b.sorted());
    EXPECT_EQ(a.sorted(), (std::vector<uint64_t>{10, 20, 30, 40}));
    EXPECT_EQ(a.rank(a.intern(30)), 2u);
    EXPECT_EQ(b.rank(b.intern(30)), 2u);
}

TEST(Dictionary, SortedAndRankAreCanonicalForPairs)
{
    using Pair = std::pair<uint64_t, uint64_t>;
    Dictionary<Pair> d;
    const uint32_t a = d.intern({3, 11});
    const uint32_t b = d.intern({4, 0});
    const uint32_t c = d.intern({4, 1});
    Rng rng(5);
    for (int i = 0; i < 500; i++)
        d.intern({rng.nextBelow(12), rng.nextBelow(12)});
    ASSERT_GT(d.keys().size(), 64u);
    expectCanonical(d);
    std::vector<Pair> table = d.sorted();
    EXPECT_TRUE(std::adjacent_find(table.begin(), table.end()) ==
                table.end());
    // Ordered by first, then second.
    EXPECT_LT(d.rank(a), d.rank(b));
    EXPECT_LT(d.rank(b), d.rank(c));
}

TEST(Version, ConfiguredAndCoherent)
{
    // HBBP_EXPECTED_VERSION is injected by tests/CMakeLists.txt from
    // ${PROJECT_VERSION}, independently of the configure_file step
    // that generates hbbp/version.hh — so this catches a stale or
    // misconfigured generated header.
    EXPECT_STREQ(kVersion, HBBP_EXPECTED_VERSION);
    std::string v = kVersion;
    EXPECT_EQ(v, format("%d.%d.%d", HBBP_VERSION_MAJOR,
                        HBBP_VERSION_MINOR, HBBP_VERSION_PATCH));
}

} // namespace
} // namespace hbbp
