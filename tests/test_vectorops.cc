/**
 * @file
 * Tests for support/vectorops: exact values that only the specified
 * arithmetic produces (the 8-lane reduction tree, one rounding per
 * element, every tail length), random spans against that rule written
 * out longhand, and the Counter/stats folds built on the kernels.
 *
 * This file is built with -ffp-contract=off, like vectorops.cc, so the
 * longhand reference below rounds the way the kernels must.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/histogram.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "support/vectorops.hh"

namespace hbbp {
namespace {

/** The exact bits of a double, for identity (not closeness) checks. */
uint64_t
bits(double x)
{
    uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/** A random double mixing magnitudes, signs, and exact integers. */
double
randomValue(Rng &rng)
{
    switch (rng.nextBelow(8)) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      case 2: // Exact small integers: the common counter case.
        return static_cast<double>(rng.nextRange(-1000, 1000));
      case 3: // Large magnitude, exercises cancellation.
        return (rng.nextDouble() - 0.5) * 1e18;
      case 4: // Tiny magnitude (incl. subnormal neighborhood).
        return (rng.nextDouble() - 0.5) * 1e-300;
      default:
        return (rng.nextDouble() - 0.5) * 2000.0;
    }
}

std::vector<double>
randomSpan(Rng &rng, size_t n)
{
    std::vector<double> v(n);
    for (double &x : v)
        x = randomValue(rng);
    return v;
}

/**
 * The lengths the random-span properties sweep: empty, length-1, each
 * possible tail remainder around the 8-lane block, and long spans.
 */
std::vector<size_t>
propertyLengths()
{
    std::vector<size_t> lens;
    for (size_t n = 0; n <= 17; n++)
        lens.push_back(n);
    for (size_t n : {31u, 32u, 33u, 63u, 64u, 65u, 100u, 255u, 256u, 1000u})
        lens.push_back(n);
    return lens;
}

/** Empty, single, short tail only, one full block, block + tail, long. */
const size_t kTailLengths[] = {0, 1, 7, 8, 9, 1000};

/** The lane rule written out longhand: element i feeds lane i % 8. */
double
referenceTree(const double lane[8])
{
    return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
           ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

double
referenceSum(const double *x, size_t n)
{
    double lane[8] = {};
    for (size_t i = 0; i < n; i++)
        lane[i % 8] += x[i];
    return referenceTree(lane);
}

double
referenceDot(const double *x, const double *y, size_t n)
{
    double lane[8] = {};
    for (size_t i = 0; i < n; i++)
        lane[i % 8] += x[i] * y[i];
    return referenceTree(lane);
}

// ---------------------------------------------------------------------
// Exact values. Each case has one right answer under the lane rule and
// one rounding per operation; a sequential sum, a different lane
// assignment for the tail, or an FMA-contracted build gives another.
// ---------------------------------------------------------------------

/** a = 1 + 2^-30 and c = fl(a*a) = 1 + 2^-29: a*a - c is 2^-60. */
const double kA = 1.0 + std::ldexp(1.0, -30);
const double kC = kA * kA;

TEST(VectorOpsExact, CancellationOperandsAreWhatTheCasesNeed)
{
    EXPECT_EQ(kC, 1.0 + std::ldexp(1.0, -29));
    EXPECT_EQ(std::fma(kA, kA, -kC), std::ldexp(1.0, -60));
}

TEST(VectorOpsExact, SumFoldsEightLanesByAFixedTree)
{
    // {2^53, 1 x 7}: lane 0 holds 2^53, lanes 1..7 hold 1, and the
    // tree ((2^53+1) + 2) + 4 gives 2^53 + 6. Summed left to right,
    // every +1 rounds back to 2^53.
    const double big = std::ldexp(1.0, 53);
    std::vector<double> x(8, 1.0);
    x[0] = big;
    EXPECT_EQ(vecops::sum(x.data(), 8), big + 6.0);

    // A ninth 1 is a tail element: it joins lane 0 (and rounds away
    // there), it is not added after the tree (which would give 2^53+8).
    x.push_back(1.0);
    EXPECT_EQ(vecops::sum(x.data(), 9), big + 6.0);

    // 1000 elements: lane 0 stays 2^53, lanes 1..7 each reach 125.
    x.assign(1000, 1.0);
    x[0] = big;
    EXPECT_EQ(vecops::sum(x.data(), x.size()), big + 874.0);
}

TEST(VectorOpsExact, DotRoundsEachProductBeforeTheAdd)
{
    // x[0]*y[0] = -c enters lane 0, then x[8]*y[8] = fl(a*a) = c
    // cancels it to exactly 0. Fused into one FMA the second step
    // would leave a*a - c = 2^-60.
    std::vector<double> x(16, 0.0), y(16, 0.0);
    x[0] = kC;
    y[0] = -1.0;
    x[8] = y[8] = kA;
    EXPECT_EQ(bits(vecops::dot(x.data(), y.data(), 16)), bits(0.0));

    // The same pair through the tail loop (n = 9: element 8 is the
    // tail) and through a long span (elements n-9 and n-1 share a
    // lane).
    for (size_t n : {9u, 1000u, 1001u}) {
        std::vector<double> xl(n, 0.0), yl(n, 0.0);
        xl[n - 9] = kC;
        yl[n - 9] = -1.0;
        xl[n - 1] = yl[n - 1] = kA;
        EXPECT_EQ(bits(vecops::dot(xl.data(), yl.data(), n)), bits(0.0))
            << "n=" << n;
    }
}

TEST(VectorOpsExact, SaxpyRoundsEachProductBeforeTheAdd)
{
    // y = -c, x = a: y + fl(a*a) is exactly 0; fma(a, a, y) is 2^-60.
    for (size_t n : kTailLengths) {
        std::vector<double> y(n, -kC), x(n, kA);
        vecops::saxpy(y.data(), kA, x.data(), n);
        for (size_t i = 0; i < n; i++)
            ASSERT_EQ(bits(y[i]), bits(0.0)) << "n=" << n << " i=" << i;
    }
}

TEST(VectorOpsExact, ReductionsCoverEveryTailLength)
{
    for (size_t n : kTailLengths) {
        // x = 1..n, followed by a sentinel a kernel must never read.
        std::vector<double> x(n + 1), ones(n + 1, 1.0);
        for (size_t i = 0; i < n; i++)
            x[i] = static_cast<double>(i + 1);
        x[n] = 1e300;
        double dn = static_cast<double>(n);
        EXPECT_EQ(vecops::sum(x.data(), n), dn * (dn + 1) / 2) << n;
        EXPECT_EQ(vecops::dot(x.data(), ones.data(), n),
                  dn * (dn + 1) / 2)
            << n;
        EXPECT_EQ(vecops::dot(x.data(), x.data(), n),
                  dn * (dn + 1) * (2 * dn + 1) / 6)
            << n;
    }
}

TEST(VectorOpsExact, ElementWiseKernelsCoverEveryTailLength)
{
    for (size_t n : kTailLengths) {
        // One sentinel past the span: no kernel may write it.
        std::vector<double> x(n + 1, -7.0), copy(n + 1, -7.0);
        std::vector<double> y(n + 1, -7.0);
        for (size_t i = 0; i < n; i++) {
            x[i] = static_cast<double>(i + 1);
            y[i] = 0.5;
        }
        vecops::scaledCopy(copy.data(), x.data(), 0.25, n);
        vecops::saxpy(y.data(), 2.0, x.data(), n);
        vecops::scale(x.data(), 4.0, n);
        for (size_t i = 0; i < n; i++) {
            double v = static_cast<double>(i + 1);
            ASSERT_EQ(copy[i], v * 0.25) << "n=" << n << " i=" << i;
            ASSERT_EQ(y[i], 0.5 + 2.0 * v) << "n=" << n << " i=" << i;
            ASSERT_EQ(x[i], 4.0 * v) << "n=" << n << " i=" << i;
        }
        EXPECT_EQ(copy[n], -7.0) << n;
        EXPECT_EQ(y[n], -7.0) << n;
        EXPECT_EQ(x[n], -7.0) << n;
    }
}

// ---------------------------------------------------------------------
// Random spans against the longhand reference, across the length
// sweep, on both the vector's own storage and a misaligned sub-span.
// ---------------------------------------------------------------------

TEST(VectorOpsProperty, SumMatchesScalarBitForBit)
{
    Rng rng(1);
    for (size_t n : propertyLengths()) {
        std::vector<double> x = randomSpan(rng, n + 1);
        EXPECT_EQ(bits(vecops::sum(x.data(), n)),
                  bits(referenceSum(x.data(), n)))
            << "n=" << n;
        EXPECT_EQ(bits(vecops::sum(x.data() + 1, n)),
                  bits(referenceSum(x.data() + 1, n)))
            << "n=" << n << " (unaligned)";
    }
}

TEST(VectorOpsProperty, DotMatchesScalarBitForBit)
{
    Rng rng(2);
    for (size_t n : propertyLengths()) {
        std::vector<double> x = randomSpan(rng, n + 1);
        std::vector<double> y = randomSpan(rng, n + 1);
        EXPECT_EQ(bits(vecops::dot(x.data(), y.data(), n)),
                  bits(referenceDot(x.data(), y.data(), n)))
            << "n=" << n;
        EXPECT_EQ(bits(vecops::dot(x.data() + 1, y.data() + 1, n)),
                  bits(referenceDot(x.data() + 1, y.data() + 1, n)))
            << "n=" << n << " (unaligned)";
    }
}

TEST(VectorOpsProperty, SaxpyMatchesScalarBitForBit)
{
    Rng rng(3);
    for (size_t n : propertyLengths()) {
        std::vector<double> x = randomSpan(rng, n);
        std::vector<double> y = randomSpan(rng, n);
        double a = randomValue(rng);
        std::vector<double> ref = y;
        for (size_t i = 0; i < n; i++)
            ref[i] = ref[i] + a * x[i];
        vecops::saxpy(y.data(), a, x.data(), n);
        for (size_t i = 0; i < n; i++)
            ASSERT_EQ(bits(y[i]), bits(ref[i])) << "n=" << n << " i=" << i;
    }
}

TEST(VectorOpsProperty, ScaleMatchesScalarBitForBit)
{
    Rng rng(4);
    for (size_t n : propertyLengths()) {
        std::vector<double> x = randomSpan(rng, n);
        double a = randomValue(rng);
        std::vector<double> ref = x;
        for (double &v : ref)
            v *= a;
        vecops::scale(x.data(), a, n);
        for (size_t i = 0; i < n; i++)
            ASSERT_EQ(bits(x[i]), bits(ref[i])) << "n=" << n << " i=" << i;
    }
}

TEST(VectorOpsProperty, ScaledCopyMatchesScalarBitForBit)
{
    Rng rng(5);
    for (size_t n : propertyLengths()) {
        std::vector<double> src = randomSpan(rng, n);
        double a = randomValue(rng);
        std::vector<double> dst(n, -1.0);
        vecops::scaledCopy(dst.data(), src.data(), a, n);
        for (size_t i = 0; i < n; i++)
            ASSERT_EQ(bits(dst[i]), bits(a * src[i]))
                << "n=" << n << " i=" << i;
    }
}

TEST(VectorOpsProperty, AccumulateSatU64MatchesScalar)
{
    Rng rng(7);
    for (size_t n : propertyLengths()) {
        std::vector<uint64_t> dst(n), src(n);
        for (size_t i = 0; i < n; i++) {
            // Mix values near the wrap boundary with ordinary ones so
            // saturation actually triggers.
            dst[i] = rng.chance(0.3) ? UINT64_MAX - rng.nextBelow(4)
                                     : rng.next() >> 1;
            src[i] = rng.chance(0.3) ? UINT64_MAX - rng.nextBelow(4)
                                     : rng.next() >> 1;
        }
        std::vector<uint64_t> ref = dst;
        size_t ref_saturated = 0;
        for (size_t i = 0; i < n; i++) {
            bool sat = false;
            ref[i] = vecops::addSatU64(ref[i], src[i], &sat);
            ref_saturated += sat ? 1 : 0;
        }
        EXPECT_EQ(vecops::accumulateSatU64(dst.data(), src.data(), n),
                  ref_saturated)
            << "n=" << n;
        EXPECT_EQ(dst, ref) << "n=" << n;
    }
}

// ---------------------------------------------------------------------
// Edge semantics.
// ---------------------------------------------------------------------

TEST(VectorOpsScalar, EmptySpans)
{
    EXPECT_EQ(vecops::sum(nullptr, 0), 0.0);
    EXPECT_EQ(vecops::dot(nullptr, nullptr, 0), 0.0);
    EXPECT_EQ(vecops::accumulateSatU64(nullptr, nullptr, 0), 0u);
}

TEST(VectorOpsScalar, SingleElement)
{
    double x = 3.25;
    EXPECT_EQ(vecops::sum(&x, 1), 3.25);
    double y = 2.0;
    EXPECT_EQ(vecops::dot(&x, &y, 1), 6.5);
}

TEST(VectorOpsScalar, SumExactOnIntegers)
{
    std::vector<double> v(100);
    for (size_t i = 0; i < v.size(); i++)
        v[i] = static_cast<double>(i + 1);
    EXPECT_EQ(vecops::sum(v), 5050.0);
}

TEST(VectorOpsScalar, AddSatU64)
{
    bool sat = false;
    EXPECT_EQ(vecops::addSatU64(2, 3, &sat), 5u);
    EXPECT_FALSE(sat);
    EXPECT_EQ(vecops::addSatU64(UINT64_MAX - 1, 1, &sat), UINT64_MAX);
    EXPECT_FALSE(sat);
    EXPECT_EQ(vecops::addSatU64(UINT64_MAX, 1, &sat), UINT64_MAX);
    EXPECT_TRUE(sat);
    // The flag is sticky: an unsaturated add leaves it set.
    EXPECT_EQ(vecops::addSatU64(1, 1, &sat), 2u);
    EXPECT_TRUE(sat);
}

TEST(VectorOpsScalar, AccumulateSatU64ClampsAndCounts)
{
    uint64_t dst[4] = {UINT64_MAX, UINT64_MAX - 1, 10, 0};
    uint64_t src[4] = {1, 1, 5, UINT64_MAX};
    EXPECT_EQ(vecops::accumulateSatU64(dst, src, 4), 1u);
    EXPECT_EQ(dst[0], UINT64_MAX);
    EXPECT_EQ(dst[1], UINT64_MAX);
    EXPECT_EQ(dst[2], 15u);
    EXPECT_EQ(dst[3], UINT64_MAX);
}

// ---------------------------------------------------------------------
// Counter determinism: total() is a pure function of the {key, value}
// set — identical bits whatever the insertion order or hash layout.
// ---------------------------------------------------------------------

TEST(CounterDeterminism, TotalIndependentOfInsertionOrder)
{
    Rng rng(9);
    std::vector<std::pair<int, double>> entries;
    for (int k = 0; k < 200; k++)
        entries.push_back({k, randomValue(rng)});

    Counter<int> forward, reverse, shuffled;
    for (const auto &[k, v] : entries)
        forward.add(k, v);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it)
        reverse.add(it->first, it->second);
    // Build a third counter with a different history: double-insert
    // then subtract, which perturbs the hash table's state.
    for (const auto &[k, v] : entries)
        shuffled.add(k, 2.0 * v);
    for (const auto &[k, v] : entries)
        shuffled.add(k, -v);

    EXPECT_EQ(bits(forward.total()), bits(reverse.total()));
    // shuffled's per-key values went through different arithmetic, so
    // only check forward/reverse bit-identity plus closeness here.
    EXPECT_NEAR(shuffled.total(), forward.total(),
                1e-9 * std::max(1.0, std::fabs(forward.total())));
}

// ---------------------------------------------------------------------
// support/stats routed through vecops: exact on the integer-valued
// inputs counters feed them.
// ---------------------------------------------------------------------

TEST(StatsVectorized, MeanExactOnIntegers)
{
    std::vector<double> xs;
    for (int i = 1; i <= 100; i++)
        xs.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(mean(xs), 50.5);
    EXPECT_EQ(mean({}), 0.0);
}

TEST(StatsVectorized, VarianceMatchesDefinition)
{
    std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    // Textbook population variance of this set is exactly 4.
    EXPECT_DOUBLE_EQ(variance(xs), 4.0);
    EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
    EXPECT_EQ(variance({}), 0.0);
    EXPECT_EQ(variance({3.0}), 0.0);
}

// ---------------------------------------------------------------------
// Counter::merge / Counter::scale routed through the element-wise
// kernels.
// ---------------------------------------------------------------------

TEST(CounterDeterminism, MergeMatchesScalarLoopSemantics)
{
    // The vectorized merge must compute exactly old + v * scale for
    // present keys and v * scale for fresh ones.
    Counter<int> c;
    c.add(1, 10.0);
    c.add(2, 0.25);
    Counter<int> other;
    other.add(1, 4.0);  // present: 10 + 4*0.5 = 12
    other.add(3, 8.0);  // fresh: 8*0.5 = 4
    c.merge(other, 0.5);
    EXPECT_DOUBLE_EQ(c.get(1), 12.0);
    EXPECT_DOUBLE_EQ(c.get(2), 0.25);
    EXPECT_DOUBLE_EQ(c.get(3), 4.0);
    c.scale(2.0);
    EXPECT_DOUBLE_EQ(c.get(1), 24.0);
    EXPECT_DOUBLE_EQ(c.get(2), 0.5);
    EXPECT_DOUBLE_EQ(c.get(3), 8.0);
}

TEST(CounterDeterminism, SortedByKeyIsSorted)
{
    Counter<int> c;
    c.add(5, 1.0);
    c.add(1, 2.0);
    c.add(3, 4.0);
    auto entries = c.sortedByKey();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].first, 1);
    EXPECT_EQ(entries[1].first, 3);
    EXPECT_EQ(entries[2].first, 5);
    auto values = c.valuesByKey();
    ASSERT_EQ(values.size(), 3u);
    EXPECT_EQ(values[0], 2.0);
    EXPECT_EQ(values[1], 4.0);
    EXPECT_EQ(values[2], 1.0);
}

} // namespace
} // namespace hbbp
