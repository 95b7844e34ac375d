/**
 * @file
 * Tests for the PMU model: events, counters, skid, the LBR ring and
 * its sticky-entry quirk, and the dual collection.
 */

#include <gtest/gtest.h>

#include "pmu/events.hh"
#include "pmu/lbr.hh"
#include "pmu/pmu.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"

namespace hbbp {
namespace {

// ---------------------------------------------------------------------
// Events and the Table 2 capability database.

TEST(Events, NamesRoundTrip)
{
    EXPECT_EQ(eventFromName(eventName(PmuEvent::InstRetiredPrecDist)),
              PmuEvent::InstRetiredPrecDist);
    EXPECT_EQ(eventFromName(eventName(PmuEvent::BrInstRetiredNearTaken)),
              PmuEvent::BrInstRetiredNearTaken);
}

TEST(Events, UnknownNameIsFatal)
{
    EXPECT_EXIT(eventFromName("BOGUS_EVENT"),
                ::testing::ExitedWithCode(1), "unknown PMU event");
}

TEST(Events, SupportDeclinesAcrossGenerations)
{
    // The Table 2 trend: newer PMUs support fewer instruction-specific
    // counting events.
    int west = supportedEventClassCount(PmuGeneration::Westmere);
    int ivb = supportedEventClassCount(PmuGeneration::IvyBridge);
    int hsw = supportedEventClassCount(PmuGeneration::Haswell);
    EXPECT_GE(ivb, hsw);
    EXPECT_GT(west, hsw);
    EXPECT_EQ(hsw, 1); // only DIV cycles survive.
}

TEST(Events, AvxNotApplicableBeforeItExisted)
{
    EXPECT_EQ(countingEventSupport(PmuGeneration::Westmere,
                                   CountingEventClass::MathAvxFp),
              EventSupport::NotApplicable);
    EXPECT_EQ(countingEventSupport(PmuGeneration::IvyBridge,
                                   CountingEventClass::MathAvxFp),
              EventSupport::Supported);
}

// ---------------------------------------------------------------------
// LBR ring semantics.

TEST(LbrRing, FillsThenRotates)
{
    LbrQuirkConfig quirk;
    quirk.enabled = false;
    LbrRing ring(4, quirk);
    for (uint64_t i = 0; i < 3; i++)
        ring.insert(100 + i, 200 + i);
    EXPECT_EQ(ring.size(), 3u);

    ring.insert(103, 203);
    ring.insert(104, 204);
    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    // Oldest first: 101..104.
    EXPECT_EQ(snap.front().source, 101u);
    EXPECT_EQ(snap.back().source, 104u);
    EXPECT_EQ(snap.back().target, 204u);
}

TEST(LbrRing, SnapshotIsOldestFirstConsecutive)
{
    LbrQuirkConfig quirk;
    quirk.enabled = false;
    LbrRing ring(16, quirk);
    for (uint64_t i = 0; i < 100; i++)
        ring.insert(i, 1000 + i);
    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 16u);
    for (size_t i = 0; i < snap.size(); i++)
        EXPECT_EQ(snap[i].source, 84 + i);
}

TEST(LbrRing, ClearEmpties)
{
    LbrRing ring(8);
    ring.insert(1, 2);
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
}

TEST(LbrRing, StickySelectionIsDeterministicByAddress)
{
    LbrRing a(16), b(16);
    for (uint64_t addr = 0x400000; addr < 0x400000 + 4096; addr += 8)
        EXPECT_EQ(a.isSticky(addr), b.isSticky(addr));
}

TEST(LbrRing, StickyFractionMatchesHashMod)
{
    LbrQuirkConfig quirk;
    LbrRing ring(16, quirk);
    int sticky = 0;
    const int n = 100'000;
    for (int i = 0; i < n; i++)
        sticky += ring.isSticky(0x400000 + 8ULL * i);
    double frac = static_cast<double>(sticky) / n;
    EXPECT_NEAR(frac, 1.0 / quirk.sticky_hash_mod, 0.005);
}

TEST(LbrRing, QuirkDisabledMeansNoSticky)
{
    LbrQuirkConfig quirk;
    quirk.enabled = false;
    LbrRing ring(16, quirk);
    for (uint64_t addr = 0; addr < 10'000; addr += 4)
        EXPECT_FALSE(ring.isSticky(addr));
}

TEST(LbrRing, FreezeDropsIncomingBranches)
{
    // Find a sticky address, park it as the oldest entry, and observe
    // that subsequent inserts are dropped with high probability.
    LbrQuirkConfig quirk;
    quirk.sticky_persist_prob = 1.0;
    quirk.sticky_max_persist = 5;
    LbrRing ring(4, quirk, 123);

    uint64_t sticky_addr = 0;
    for (uint64_t addr = 0x1000;; addr += 4) {
        if (ring.isSticky(addr)) {
            sticky_addr = addr;
            break;
        }
    }
    ring.insert(sticky_addr, 0x2000);
    for (uint64_t i = 1; i < 4; i++)
        ring.insert(0x3000 + 4 * i, 0x4000);
    ASSERT_EQ(ring.snapshot().front().source, sticky_addr);

    // Frozen: the next 5 inserts are dropped (persist cap), then normal
    // eviction resumes.
    auto before = ring.snapshot();
    for (int i = 0; i < 5; i++)
        ring.insert(0x5000 + 4 * i, 0x6000);
    EXPECT_EQ(ring.snapshot(), before);

    ring.insert(0x7000, 0x8000);
    EXPECT_NE(ring.snapshot(), before);
    EXPECT_EQ(ring.snapshot().back().source, 0x7000u);
}

/** Insert @p n branches numbered from @p first: source i, target 1000+i. */
void
insertNumbered(LbrRing &ring, uint64_t first, uint64_t n)
{
    for (uint64_t i = first; i < first + n; i++)
        ring.insert(i, 1000 + i);
}

/** Expect the snapshot to hold branches first..first+n-1, oldest first. */
void
expectConsecutive(const LbrRing &ring, uint64_t first, uint64_t n)
{
    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), n);
    for (size_t i = 0; i < snap.size(); i++) {
        EXPECT_EQ(snap[i].source, first + i) << "entry " << i;
        EXPECT_EQ(snap[i].target, 1000 + first + i) << "entry " << i;
    }
}

TEST(LbrRing, SnapshotsStayConsecutiveAcrossWraps)
{
    LbrQuirkConfig quirk;
    quirk.enabled = false;
    for (uint32_t depth : {4u, 16u}) {
        SCOPED_TRACE(depth);
        LbrRing ring(depth, quirk);
        insertNumbered(ring, 0, depth);
        expectConsecutive(ring, 0, depth);
        // Three and a half more wraps, checked after every insert so
        // the oldest entry visits every physical slot.
        for (uint64_t next = depth; next < 4 * depth + depth / 2; next++) {
            ring.insert(next, 1000 + next);
            expectConsecutive(ring, next + 1 - depth, depth);
        }
    }
}

TEST(LbrRing, ClearAfterAWrapThenRefill)
{
    LbrQuirkConfig quirk;
    quirk.enabled = false;
    LbrRing ring(4, quirk);
    insertNumbered(ring, 0, 7);
    expectConsecutive(ring, 3, 4);

    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());

    insertNumbered(ring, 50, 2);
    EXPECT_EQ(ring.size(), 2u);
    expectConsecutive(ring, 50, 2);
    insertNumbered(ring, 52, 5);
    expectConsecutive(ring, 53, 4);
}

TEST(LbrRing, DepthOneKeepsTheNewestBranch)
{
    LbrQuirkConfig quirk;
    quirk.enabled = false;
    LbrRing ring(1, quirk);
    EXPECT_TRUE(ring.snapshot().empty());
    for (uint64_t i = 0; i < 5; i++) {
        ring.insert(i, 1000 + i);
        EXPECT_EQ(ring.size(), 1u);
        expectConsecutive(ring, i, 1);
    }
}

TEST(LbrRing, FreezeAtAWrappedHeadThenEvictionResumes)
{
    LbrQuirkConfig quirk;
    quirk.sticky_persist_prob = 1.0;
    quirk.sticky_max_persist = 3;
    LbrRing ring(4, quirk, 77);

    uint64_t sticky = 0;
    for (uint64_t addr = 0x1000;; addr += 4) {
        if (ring.isSticky(addr)) {
            sticky = addr;
            break;
        }
    }
    std::vector<uint64_t> plain;
    for (uint64_t addr = 0x9000; plain.size() < 6; addr += 4)
        if (!ring.isSticky(addr))
            plain.push_back(addr);

    // Slots 0..3 take plain[0], plain[1], sticky, plain[2]. The next
    // two inserts evict plain[0] and plain[1], so the oldest entry, the
    // sticky branch, sits in physical slot 2.
    ring.insert(plain[0], 1);
    ring.insert(plain[1], 2);
    ring.insert(sticky, 3);
    ring.insert(plain[2], 4);
    ring.insert(plain[3], 5);
    ring.insert(plain[4], 6);
    std::vector<LbrEntry> frozen = {
        {sticky, 3}, {plain[2], 4}, {plain[3], 5}, {plain[4], 6}};
    ASSERT_EQ(ring.snapshot(), frozen);

    // Frozen for the persist cap of 3 inserts, which are dropped.
    for (uint64_t i = 0; i < 3; i++) {
        ring.insert(0x7000 + 4 * i, 7);
        EXPECT_EQ(ring.snapshot(), frozen) << "insert " << i;
    }

    // Then the sticky branch is evicted and the ring rotates on.
    ring.insert(plain[5], 8);
    std::vector<LbrEntry> resumed = {
        {plain[2], 4}, {plain[3], 5}, {plain[4], 6}, {plain[5], 8}};
    EXPECT_EQ(ring.snapshot(), resumed);
    ring.insert(0x7100, 9);
    std::vector<LbrEntry> rotated = {
        {plain[3], 5}, {plain[4], 6}, {plain[5], 8}, {0x7100, 9}};
    EXPECT_EQ(ring.snapshot(), rotated);
}

// ---------------------------------------------------------------------
// Dual collection on real executions.

TEST(DualCollection, SampleCountsMatchPeriods)
{
    auto lp = testutil::makeLoopProgram(200'000, /*body_len=*/6);
    PmuConfig config;
    config.ebs_period = 1009;
    config.lbr_period = 101;
    config.quirk.enabled = false;
    DualCollectionPmu pmu(config);
    ExecutionEngine engine(*lp.program, MachineConfig{}, 1);
    engine.addObserver(&pmu);
    ExecStats stats = engine.run();

    double expected_ebs = static_cast<double>(stats.instructions) / 1009;
    double expected_lbr =
        static_cast<double>(stats.taken_branches) / 101;
    EXPECT_NEAR(static_cast<double>(pmu.ebsSamples().size()),
                expected_ebs, expected_ebs * 0.02 + 2);
    EXPECT_NEAR(static_cast<double>(pmu.lbrSamples().size()),
                expected_lbr, expected_lbr * 0.02 + 2);
    EXPECT_EQ(pmu.pmiCount(),
              pmu.ebsSamples().size() + pmu.lbrSamples().size());
}

TEST(DualCollection, EbsIpsFallInsideTheProgram)
{
    Workload w = makeTest40();
    PmuConfig config;
    config.ebs_period = 997;
    config.lbr_period = 97;
    DualCollectionPmu pmu(config);
    ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
    engine.addObserver(&pmu);
    engine.run(500'000);

    ASSERT_GT(pmu.ebsSamples().size(), 100u);
    for (const EbsSample &s : pmu.ebsSamples())
        EXPECT_NE(w.program->blockAt(s.ip), kNoBlock);
}

TEST(DualCollection, SkidShiftsSamplesForward)
{
    // On a single self-loop block, EBS IPs must still land in the
    // block; with a nonzero minimum skid the sampled IP is never the
    // very first instruction right after an overflow on the last one —
    // statistically the distribution covers later instructions.
    auto lp = testutil::makeLoopProgram(300'000, 8);
    PmuConfig config;
    config.ebs_period = 997;
    config.lbr_period = 1'000'000; // effectively off
    DualCollectionPmu pmu(config);
    ExecutionEngine engine(*lp.program, MachineConfig{}, 1);
    engine.addObserver(&pmu);
    engine.run();

    ASSERT_GT(pmu.ebsSamples().size(), 1000u);
    std::set<uint64_t> distinct;
    for (const EbsSample &s : pmu.ebsSamples())
        distinct.insert(s.ip);
    // Samples spread over multiple instructions of the loop.
    EXPECT_GE(distinct.size(), 4u);
}

TEST(DualCollection, LbrStacksAreValidStreams)
{
    Workload w = makeFitter(FitterVariant::Sse);
    PmuConfig config;
    config.ebs_period = 100'000'000; // effectively off
    config.lbr_period = 97;
    config.quirk.enabled = false;
    DualCollectionPmu pmu(config);
    ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
    engine.addObserver(&pmu);
    engine.run(500'000);

    ASSERT_GT(pmu.lbrSamples().size(), 100u);
    const Program &p = *w.program;
    for (const LbrStackSample &s : pmu.lbrSamples()) {
        ASSERT_EQ(s.entries.size(), config.lbr_depth);
        for (const LbrEntry &e : s.entries) {
            // Every recorded branch is a control transfer in the
            // program and its target is a block leader.
            BlockId src_blk = p.blockAt(e.source);
            ASSERT_NE(src_blk, kNoBlock);
            EXPECT_TRUE(
                p.block(src_blk).instrs.back().info().isControl());
            BlockId tgt_blk = p.blockAt(e.target);
            ASSERT_NE(tgt_blk, kNoBlock);
            EXPECT_EQ(p.block(tgt_blk).start, e.target);
        }
    }
}

TEST(DualCollection, KernelFilteringWorks)
{
    auto kp = testutil::makeKernelProgram(50'000);
    PmuConfig config;
    config.ebs_period = 499;
    config.lbr_period = 53;
    config.monitor_kernel = false;
    DualCollectionPmu pmu(config);
    ExecutionEngine engine(*kp.program, MachineConfig{}, 1);
    engine.addObserver(&pmu);
    engine.run();

    for (const EbsSample &s : pmu.ebsSamples())
        EXPECT_EQ(s.ring, Ring::User);
}

TEST(DualCollection, KernelSamplesPresentByDefault)
{
    auto kp = testutil::makeKernelProgram(50'000);
    PmuConfig config;
    config.ebs_period = 499;
    config.lbr_period = 53;
    DualCollectionPmu pmu(config);
    ExecutionEngine engine(*kp.program, MachineConfig{}, 1);
    engine.addObserver(&pmu);
    engine.run();

    int kernel_samples = 0;
    for (const EbsSample &s : pmu.ebsSamples())
        kernel_samples += s.ring == Ring::Kernel;
    EXPECT_GT(kernel_samples, 0);
}

TEST(DualCollectionDeath, ZeroPeriodIsFatal)
{
    PmuConfig config;
    config.ebs_period = 0;
    EXPECT_EXIT(DualCollectionPmu pmu(config),
                ::testing::ExitedWithCode(1), "period");
}

TEST(DualCollectionDeath, ReversedSkidRangeIsFatal)
{
    // A reversed range used to wrap the unsigned skid span, schedule
    // the first EBS PMI at a cycle never reached and so drop every EBS
    // sample after it.
    for (auto [lo, hi] : {std::pair{4u, 1u}, std::pair{2u, 1u}}) {
        PmuConfig config;
        config.precise_skid_min_cycles = lo;
        config.precise_skid_max_cycles = hi;
        EXPECT_EXIT(DualCollectionPmu pmu(config),
                    ::testing::ExitedWithCode(1), "skid range");
    }
}

TEST(DualCollectionDeath, ZeroLbrDepthIsFatal)
{
    PmuConfig config;
    config.lbr_depth = 0;
    EXPECT_EXIT(DualCollectionPmu pmu(config),
                ::testing::ExitedWithCode(1), "LBR depth");
}

} // namespace
} // namespace hbbp
