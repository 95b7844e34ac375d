/**
 * @file
 * Tests for the FDO (PGO/AutoFDO-style) profile export.
 */

#include <gtest/gtest.h>

#include "analysis/fdo.hh"
#include "tests/helpers.hh"

namespace hbbp {
namespace {

TEST(Fdo, LoopProgramCountsAndBranches)
{
    auto lp = testutil::makeLoopProgram(10, /*body_len=*/6);
    ExecutionEngine engine(*lp.program, MachineConfig{}, 1);
    engine.run();
    Instrumenter instr(engine, true);

    BlockMap map(*lp.program);
    std::vector<double> truth = trueMapBbec(map, instr.bbecByAddr());
    FdoProfile fdo(map, truth);

    ASSERT_EQ(fdo.functions().size(), 1u);
    const FdoFunction &fn = fdo.functions()[0];
    EXPECT_EQ(fn.name, "main");
    EXPECT_DOUBLE_EQ(fn.entry_count, 1.0);
    ASSERT_EQ(fn.blocks.size(), 3u);
    EXPECT_DOUBLE_EQ(fn.blocks[1].second, 10.0);

    // The backedge: executed 10 times, taken 9 -> p ~= 1 - 1/10.
    ASSERT_EQ(fn.branches.size(), 1u);
    EXPECT_DOUBLE_EQ(fn.branches[0].exec_count, 10.0);
    EXPECT_NEAR(fn.branches[0].taken_prob, 0.9, 1e-9);
    EXPECT_EQ(fn.branches[0].target_addr,
              lp.program->block(lp.body).start);

    EXPECT_DOUBLE_EQ(fdo.totalInstructions(),
                     static_cast<double>(instr.totalInstructions()));
}

TEST(Fdo, ProbabilitiesClampedAndOrdered)
{
    // End-to-end from estimated (noisy) counts: probabilities stay in
    // [0, 1] and functions are sorted hottest first.
    Profiler profiler;
    Workload w = makeTest40();
    w.max_instructions = 800'000;
    ProfiledRun run = profiler.run(w);
    AnalysisResult res = profiler.analyze(w, run.profile);

    FdoProfile fdo(res.map, res.hbbp);
    ASSERT_GT(fdo.functions().size(), 3u);
    double prev = 1e300;
    for (const FdoFunction &fn : fdo.functions()) {
        EXPECT_LE(fn.total_instructions, prev);
        prev = fn.total_instructions;
        for (const FdoBranch &br : fn.branches) {
            EXPECT_GE(br.taken_prob, 0.0);
            EXPECT_LE(br.taken_prob, 1.0);
        }
    }
}

TEST(Fdo, EstimatedProbsTrackTrueProbs)
{
    // HBBP-derived branch probabilities approximate the instrumented
    // truth on hot branches.
    Profiler profiler;
    Workload w = makeFitter(FitterVariant::AvxFix);
    ProfiledRun run = profiler.run(w);
    AnalysisResult res = profiler.analyze(w, run.profile);

    std::vector<double> truth =
        trueMapBbec(res.map, run.true_bbec_by_addr);
    FdoProfile est(res.map, res.hbbp);
    FdoProfile ref(res.map, truth);

    // Index reference branches by address.
    std::unordered_map<uint64_t, double> ref_probs;
    for (const FdoFunction &fn : ref.functions())
        for (const FdoBranch &br : fn.branches)
            if (br.exec_count > 1000)
                ref_probs[br.branch_addr] = br.taken_prob;

    size_t compared = 0;
    for (const FdoFunction &fn : est.functions()) {
        for (const FdoBranch &br : fn.branches) {
            auto it = ref_probs.find(br.branch_addr);
            if (it == ref_probs.end() || br.exec_count < 1000)
                continue;
            EXPECT_NEAR(br.taken_prob, it->second, 0.12)
                << hexAddr(br.branch_addr);
            compared++;
        }
    }
    EXPECT_GT(compared, 5u);
}

TEST(Fdo, TextFormatRoundTripsKeyFields)
{
    auto lp = testutil::makeLoopProgram(4);
    ExecutionEngine engine(*lp.program, MachineConfig{}, 1);
    engine.run();
    Instrumenter instr(engine, true);
    BlockMap map(*lp.program);
    FdoProfile fdo(map, trueMapBbec(map, instr.bbecByAddr()));

    std::string text = fdo.toText();
    EXPECT_NE(text.find("function main entry=1"), std::string::npos);
    EXPECT_NE(text.find("p_taken=0.75"), std::string::npos);
    EXPECT_NE(text.find("block 0x"), std::string::npos);

    std::string path = ::testing::TempDir() + "/profile.fdo";
    fdo.save(path);
    std::FILE *f = fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[64] = {0};
    ASSERT_EQ(std::fread(buf, 1, 13, f), 13u);
    fclose(f);
    EXPECT_EQ(std::string(buf, 13), "function main");
    std::remove(path.c_str());
}

TEST(FdoDeath, SizeMismatchIsBug)
{
    auto lp = testutil::makeLoopProgram(2);
    BlockMap map(*lp.program);
    EXPECT_DEATH(FdoProfile(map, {1.0}), "counts for");
}

} // namespace
} // namespace hbbp
