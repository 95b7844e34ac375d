/**
 * @file
 * Tests for BBEC estimation: EBS scaling, LBR stream walking, stream
 * validation, bias detection and renormalization.
 */

#include <gtest/gtest.h>

#include <set>

#include "analysis/analyzer.hh"
#include "analysis/bbec.hh"
#include "tests/bbec_reference.hh"
#include "tests/helpers.hh"

namespace hbbp {
namespace {

/** Collect + ground truth for a workload with the given PMU settings. */
struct Capture
{
    ProfileData profile;
    std::unordered_map<uint64_t, uint64_t> truth;
};

Capture
capture(const Workload &w, bool quirk_enabled = true)
{
    Capture out;
    CollectorConfig cc;
    cc.runtime_class = w.runtime_class;
    cc.max_instructions = w.max_instructions;
    cc.seed = w.exec_seed;
    cc.pmu.quirk.enabled = quirk_enabled;
    out.profile = Collector::collect(*w.program, MachineConfig{}, cc);

    ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
    engine.run(w.max_instructions);
    Instrumenter instr(engine, true);
    out.truth = instr.bbecByAddr();
    return out;
}

Workload
loopWorkload(uint64_t trips, size_t body_len)
{
    auto lp = testutil::makeLoopProgram(trips, body_len);
    Workload w;
    w.name = "loop";
    w.program = lp.program;
    w.runtime_class = RuntimeClass::Seconds;
    w.max_instructions = UINT64_MAX;
    return w;
}

TEST(BbecEstimator, EbsUnbiasedOnHotLoop)
{
    Workload w = loopWorkload(400'000, 12);
    Capture cap = capture(w, /*quirk=*/false);
    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, cap.profile);

    // The body block dominates; its EBS estimate is within a few
    // percent of the true count.
    uint32_t body = 1;
    double truth = static_cast<double>(
        cap.truth.at(map.block(body).start));
    ASSERT_GT(truth, 0);
    EXPECT_NEAR(est.ebs[body] / truth, 1.0, 0.06);
    EXPECT_EQ(est.ebs_samples_unmapped, 0u);
}

TEST(BbecEstimator, LbrNearExactOnCleanLoop)
{
    Workload w = loopWorkload(400'000, 12);
    Capture cap = capture(w, /*quirk=*/false);
    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, cap.profile);

    uint32_t body = 1;
    double truth = static_cast<double>(
        cap.truth.at(map.block(body).start));
    EXPECT_NEAR(est.lbr[body] / truth, 1.0, 0.04);
    EXPECT_EQ(est.lbr_streams_discarded, 0u);
    EXPECT_TRUE(est.biased_branches.empty());
}

TEST(BbecEstimator, EstimatesScaleWithPeriods)
{
    // Same workload, two different period scales: estimates must agree
    // (scaling compensates the sampling rate).
    Workload w = loopWorkload(400'000, 12);
    CollectorConfig base;
    base.runtime_class = w.runtime_class;
    base.pmu.quirk.enabled = false;

    // A smaller scale keeps the simulated periods above the floors, so
    // the two collections really use different periods.
    CollectorConfig denser = base;
    denser.period_scale = 250;

    ProfileData p1 = Collector::collect(*w.program, MachineConfig{}, base);
    ProfileData p2 =
        Collector::collect(*w.program, MachineConfig{}, denser);
    ASSERT_NE(p1.sim_periods.ebs, p2.sim_periods.ebs);

    BlockMap map(*w.program);
    BbecEstimates e1 = BbecEstimator().estimate(map, p1);
    BbecEstimates e2 = BbecEstimator().estimate(map, p2);
    uint32_t body = 1;
    EXPECT_NEAR(e1.ebs[body] / e2.ebs[body], 1.0, 0.1);
    EXPECT_NEAR(e1.lbr[body] / e2.lbr[body], 1.0, 0.1);
}

TEST(BbecEstimator, StreamWalkCreditsWholePath)
{
    // Build: A (cond, mostly not taken) -> B -> C(branch back to A).
    // LBR streams from C's backedge target A and span A,B,C: all three
    // blocks get comparable LBR estimates.
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m");
    FuncId fn = pb.addFunction(mod, "f");
    BlockId a = pb.addBlock(fn);
    pb.append(a, makeInstr(Mnemonic::MOV));
    pb.append(a, makeInstr(Mnemonic::CMP));
    BlockId b = pb.addBlock(fn);
    BlockId c = pb.addBlock(fn);
    pb.endCond(a, Mnemonic::JZ, c, pb.addBehavior(Behavior::prob(0.05)),
               b);
    pb.append(b, makeInstr(Mnemonic::ADD));
    pb.append(b, makeInstr(Mnemonic::SUB));
    pb.endFallThrough(b);
    pb.append(c, makeInstr(Mnemonic::TEST));
    pb.endCond(c, Mnemonic::JNZ, a,
               pb.addBehavior(Behavior::loop(500'000)));
    BlockId done = pb.addBlock(fn);
    pb.append(done, makeInstr(Mnemonic::NOP));
    pb.endExit(done);
    pb.setEntry(fn);

    Workload w;
    w.name = "abc";
    w.program = std::make_shared<Program>(pb.build());
    w.runtime_class = RuntimeClass::Seconds;
    w.max_instructions = UINT64_MAX;

    Capture cap = capture(w, /*quirk=*/false);
    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, cap.profile);

    uint32_t ma = map.blockAt(w.program->block(a).start);
    uint32_t mb = map.blockAt(w.program->block(b).start);
    uint32_t mc = map.blockAt(w.program->block(c).start);
    double ta = static_cast<double>(cap.truth.at(map.block(ma).start));
    double tb = static_cast<double>(cap.truth.at(map.block(mb).start));
    double tc = static_cast<double>(cap.truth.at(map.block(mc).start));
    EXPECT_NEAR(est.lbr[ma] / ta, 1.0, 0.05);
    EXPECT_NEAR(est.lbr[mb] / tb, 1.0, 0.05);
    EXPECT_NEAR(est.lbr[mc] / tc, 1.0, 0.05);
}

TEST(BbecEstimator, InvalidStreamsDiscardedOnStaleKernelMap)
{
    // Kernel tracepoints: the static map contains JMPs that execution
    // ignores, so streams crossing them are rejected unless the map is
    // patched with the live text.
    auto kp = testutil::makeKernelProgram(300'000,
                                          /*with_tracepoint=*/true);
    Workload w;
    w.name = "kern";
    w.program = kp.program;
    w.runtime_class = RuntimeClass::Seconds;
    w.max_instructions = 3'000'000;

    Capture cap = capture(w, /*quirk=*/false);

    BlockMap stale(*w.program, {.patch_kernel_text = false});
    BbecEstimates est_stale = BbecEstimator().estimate(stale, cap.profile);
    BlockMap fixed(*w.program, {.patch_kernel_text = true});
    BbecEstimates est_fixed = BbecEstimator().estimate(fixed, cap.profile);

    EXPECT_GT(est_stale.lbr_streams_discarded, 0u);
    EXPECT_LT(est_fixed.lbr_streams_discarded,
              est_stale.lbr_streams_discarded);
}

TEST(BbecEstimator, BiasDetectedOnStickyLoop)
{
    // The SSE Fitter is calibrated to contain sticky hot branches.
    Workload w = makeFitter(FitterVariant::Sse);
    Capture cap = capture(w, /*quirk=*/true);
    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, cap.profile);

    EXPECT_FALSE(est.biased_branches.empty());
    int flagged = 0;
    for (bool b : est.bias)
        flagged += b;
    EXPECT_GT(flagged, 0);
    for (const BiasedBranch &bb : est.biased_branches) {
        EXPECT_GT(bb.entry0_freq, 0.0);
        EXPECT_GT(bb.entry0_freq, 2.0 * bb.overall_freq);
    }
}

TEST(BbecEstimator, BiasedBranchesAscendBySource)
{
    // The sticky-loop profile of BiasDetectedOnStickyLoop: the list
    // comes out in ascending source order, whatever order the standard
    // library's hash containers would have given, and holds exactly
    // the per-stream reference's branches.
    Workload w = makeFitter(FitterVariant::Sse);
    Capture cap = capture(w, /*quirk=*/true);
    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, cap.profile);
    BbecEstimates ref =
        reference::BbecEstimator().estimate(map, cap.profile);

    ASSERT_GE(est.biased_branches.size(), 2u);
    std::set<uint64_t> got, want;
    for (size_t i = 0; i < est.biased_branches.size(); i++) {
        if (i > 0) {
            EXPECT_LT(est.biased_branches[i - 1].source,
                      est.biased_branches[i].source);
        }
        got.insert(est.biased_branches[i].source);
    }
    for (const BiasedBranch &bb : ref.biased_branches)
        want.insert(bb.source);
    EXPECT_EQ(got, want);
}

TEST(BbecEstimator, NoBiasWhenQuirkDisabled)
{
    Workload w = makeFitter(FitterVariant::Sse);
    Capture cap = capture(w, /*quirk=*/false);
    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, cap.profile);
    EXPECT_TRUE(est.biased_branches.empty());
}

TEST(BbecEstimator, RenormalizationScalesByDiscardFraction)
{
    Workload w = makeFitter(FitterVariant::Sse);
    Capture cap = capture(w, /*quirk=*/true);
    BlockMap map(*w.program);

    BbecOptions with;
    BbecOptions without;
    without.renormalize_discards = false;
    BbecEstimates e_with = BbecEstimator(with).estimate(map, cap.profile);
    BbecEstimates e_without =
        BbecEstimator(without).estimate(map, cap.profile);

    ASSERT_GT(e_with.lbr_streams_discarded, 0u);
    double expected = 1.0 / (1.0 - e_with.discardFraction());
    for (uint32_t i = 0; i < map.blocks().size(); i++) {
        if (e_without.lbr[i] <= 0.0)
            continue;
        EXPECT_NEAR(e_with.lbr[i] / e_without.lbr[i], expected, 1e-9);
    }
}

TEST(BbecEstimator, RenormalizationImprovesAggregateAccuracy)
{
    // On a typical workload the discard-induced undercount is global,
    // so the correction improves the mnemonic-level LBR error.
    AnalyzerOptions no_renorm;
    no_renorm.bbec.renormalize_discards = false;
    AnalyzerOptions with_renorm;
    with_renorm.bbec.renormalize_discards = true;
    Profiler plain(MachineConfig{}, CollectorConfig{}, no_renorm);
    Profiler renorm(MachineConfig{}, CollectorConfig{}, with_renorm);
    Workload w = makeTest40();
    ProfiledRun run = plain.run(w);
    AnalysisResult res_plain = plain.analyze(w, run.profile);
    AnalysisResult res_renorm = renorm.analyze(w, run.profile);
    ASSERT_GT(res_plain.estimates.lbr_streams_discarded, 0u);
    double err_plain = avgWeightedError(
        run.true_user_mnemonics,
        Profiler::userMnemonics(res_plain.lbrMix()));
    double err_renorm = avgWeightedError(
        run.true_user_mnemonics,
        Profiler::userMnemonics(res_renorm.lbrMix()));
    EXPECT_LT(err_renorm, err_plain);
}

TEST(Analyzer, FusedEstimateFollowsClassifier)
{
    Workload w = makeTest40();
    w.max_instructions = 1'000'000;
    Capture cap = capture(w);

    Analyzer analyzer;
    AnalysisResult res = analyzer.analyze(*w.program, cap.profile);
    for (uint32_t i = 0; i < res.map.blocks().size(); i++) {
        double expected = res.choice[i] == BbecSource::Ebs
                              ? res.estimates.ebs[i]
                              : res.estimates.lbr[i];
        EXPECT_DOUBLE_EQ(res.hbbp[i], expected);
    }
}

TEST(Analyzer, FeaturesMatchMapBlocks)
{
    Workload w = makeTest40();
    w.max_instructions = 500'000;
    Capture cap = capture(w);
    Analyzer analyzer;
    AnalysisResult res = analyzer.analyze(*w.program, cap.profile);
    ASSERT_EQ(res.features.size(), res.map.blocks().size());
    for (uint32_t i = 0; i < res.map.blocks().size(); i++) {
        EXPECT_DOUBLE_EQ(res.features[i].length,
                         static_cast<double>(res.map.block(i).size()));
        EXPECT_GE(res.features[i].branch_density, 0.0);
        EXPECT_LE(res.features[i].branch_density, 1.0);
    }
}

TEST(Analyzer, TrueMapBbecProjectsByAddress)
{
    auto lp = testutil::makeLoopProgram(9);
    ExecutionEngine engine(*lp.program, MachineConfig{}, 1);
    engine.run();
    Instrumenter instr(engine, true);

    BlockMap map(*lp.program);
    std::vector<double> truth = trueMapBbec(map, instr.bbecByAddr());
    ASSERT_EQ(truth.size(), 3u);
    EXPECT_DOUBLE_EQ(truth[1], 9.0);
}

} // namespace
} // namespace hbbp
