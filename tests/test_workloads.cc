/**
 * @file
 * Tests for the workload generators: structural validity of every
 * benchmark, and the specific characteristics each experiment relies
 * on (ISA content of Fitter variants, CLForward packing shift, kernel
 * benchmark structure, Table 3 execution-count shape).
 */

#include <gtest/gtest.h>

#include <string>

#include "instr/instrumenter.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"

namespace hbbp {
namespace {

/** Run a workload briefly and return its user-mode mnemonic counts. */
Counter<Mnemonic>
quickMix(const Workload &w, uint64_t budget = 400'000)
{
    ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
    engine.run(budget);
    Instrumenter instr(engine, true);
    return instr.mnemonicCounts();
}

double
isaShare(const Counter<Mnemonic> &counts, IsaExt ext)
{
    double total = counts.total();
    if (total <= 0)
        return 0.0;
    double share = 0.0;
    for (const auto &[m, c] : counts.items())
        if (info(m).ext == ext)
            share += c;
    return share / total;
}

// ---------------------------------------------------------------------
// Every generated workload is structurally sound and runnable.

class AllWorkloads : public ::testing::TestWithParam<std::string>
{
  public:
    static Workload
    make(const std::string &name)
    {
        if (name == "test40")
            return makeTest40();
        if (name == "kernelbench")
            return makeKernelBench();
        if (name == "hydro_post")
            return makeHydroPost();
        if (name == "fitter_x87")
            return makeFitter(FitterVariant::X87);
        if (name == "fitter_sse")
            return makeFitter(FitterVariant::Sse);
        if (name == "fitter_avx")
            return makeFitter(FitterVariant::AvxBroken);
        if (name == "fitter_avx_fix")
            return makeFitter(FitterVariant::AvxFix);
        if (name == "clforward_before")
            return makeClForward(ClForwardVersion::Before);
        if (name == "clforward_after")
            return makeClForward(ClForwardVersion::After);
        return makeSpecBenchmark(name);
    }

    static std::vector<std::string>
    all()
    {
        std::vector<std::string> names = specBenchmarkNames();
        names.insert(names.end(),
                     {"test40", "kernelbench", "hydro_post", "fitter_x87",
                      "fitter_sse", "fitter_avx", "fitter_avx_fix",
                      "clforward_before", "clforward_after"});
        return names;
    }
};

TEST_P(AllWorkloads, GeneratesAndRuns)
{
    Workload w = make(GetParam());
    ASSERT_TRUE(w.program != nullptr);
    EXPECT_FALSE(w.name.empty());
    EXPECT_GT(w.program->blocks().size(), 3u);
    EXPECT_GT(w.program->staticInstrCount(), 20u);

    // Runs to its budget without exiting early (long-running main).
    ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
    ExecStats stats = engine.run(300'000);
    EXPECT_GE(stats.instructions, 300'000u);
    EXPECT_GT(stats.taken_branches, 0u);
    EXPECT_GT(stats.block_entries, 0u);
}

TEST_P(AllWorkloads, GenerationIsDeterministic)
{
    Workload a = make(GetParam());
    Workload b = make(GetParam());
    ASSERT_EQ(a.program->blocks().size(), b.program->blocks().size());
    for (size_t i = 0; i < a.program->blocks().size(); i++) {
        const BasicBlock &ba = a.program->blocks()[i];
        const BasicBlock &bb = b.program->blocks()[i];
        EXPECT_EQ(ba.start, bb.start);
        ASSERT_EQ(ba.instrs.size(), bb.instrs.size());
        for (size_t k = 0; k < ba.instrs.size(); k++)
            EXPECT_EQ(ba.instrs[k], bb.instrs[k]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Everything, AllWorkloads,
    ::testing::ValuesIn(AllWorkloads::all()),
    [](const ::testing::TestParamInfo<std::string> &pi) {
        std::string s = pi.param;
        for (char &c : s)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return s;
    });

// ---------------------------------------------------------------------
// SPEC suite specifics.

TEST(Spec2006, SuiteHas29Benchmarks)
{
    EXPECT_EQ(specBenchmarkNames().size(), 29u);
    EXPECT_EQ(makeSpecSuite().size(), 29u);
}

TEST(Spec2006, H264refExcludedFromErrorAggregation)
{
    EXPECT_TRUE(specEntry("464.h264ref").excluded_from_error);
    EXPECT_FALSE(specEntry("453.povray").excluded_from_error);
    int excluded = 0;
    for (const SpecEntry &e : specEntries())
        excluded += e.excluded_from_error;
    EXPECT_EQ(excluded, 1);
}

TEST(Spec2006, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeSpecBenchmark("999.bogus"),
                ::testing::ExitedWithCode(1), "unknown SPEC");
}

TEST(Spec2006, ShortVsLongBlockBenchmarks)
{
    // povray is a short-block code, hmmer a long-block one; mean block
    // length of the generated programs must reflect that.
    auto mean_len = [](const Workload &w) {
        double instrs = 0, blocks = 0;
        for (const BasicBlock &b : w.program->blocks()) {
            instrs += static_cast<double>(b.instrs.size());
            blocks += 1;
        }
        return instrs / blocks;
    };
    Workload povray = makeSpecBenchmark("453.povray");
    Workload hmmer = makeSpecBenchmark("456.hmmer");
    EXPECT_LT(mean_len(povray), 10.0);
    EXPECT_GT(mean_len(hmmer), 20.0);
}

TEST(Spec2006, FpBenchmarksContainVectorCode)
{
    Counter<Mnemonic> milc = quickMix(makeSpecBenchmark("433.milc"));
    EXPECT_GT(isaShare(milc, IsaExt::Sse), 0.25);
    Counter<Mnemonic> gcc = quickMix(makeSpecBenchmark("403.gcc"));
    EXPECT_LT(isaShare(gcc, IsaExt::Sse), 0.05);
}

// ---------------------------------------------------------------------
// Fitter specifics.

TEST(Fitter, VariantsAreIsaPure)
{
    Counter<Mnemonic> x87 = quickMix(makeFitter(FitterVariant::X87));
    EXPECT_GT(isaShare(x87, IsaExt::X87), 0.4);
    EXPECT_LT(isaShare(x87, IsaExt::Sse), 0.01);
    EXPECT_LT(isaShare(x87, IsaExt::Avx), 0.01);

    Counter<Mnemonic> sse = quickMix(makeFitter(FitterVariant::Sse));
    EXPECT_GT(isaShare(sse, IsaExt::Sse), 0.4);
    EXPECT_LT(isaShare(sse, IsaExt::Avx), 0.01);

    Counter<Mnemonic> avx = quickMix(makeFitter(FitterVariant::AvxFix));
    EXPECT_GT(isaShare(avx, IsaExt::Avx), 0.4);
    EXPECT_LT(isaShare(avx, IsaExt::Sse), 0.01);
}

TEST(Fitter, BrokenBuildExplodesCallsAndX87)
{
    Counter<Mnemonic> fix =
        quickMix(makeFitter(FitterVariant::AvxFix), 600'000);
    Counter<Mnemonic> broken =
        quickMix(makeFitter(FitterVariant::AvxBroken), 600'000);

    double calls_fix = fix.get(Mnemonic::CALL);
    double calls_broken = broken.get(Mnemonic::CALL);
    ASSERT_GT(calls_fix, 0.0);
    // The non-inlined build makes massively more calls (paper: ~62x).
    EXPECT_GT(calls_broken / calls_fix, 20.0);

    double x87_fix = 0, x87_broken = 0;
    for (const auto &[m, c] : fix.items())
        if (info(m).ext == IsaExt::X87)
            x87_fix += c;
    for (const auto &[m, c] : broken.items())
        if (info(m).ext == IsaExt::X87)
            x87_broken += c;
    EXPECT_GT(x87_broken, 3.0 * x87_fix);
}

TEST(Fitter, KernelBlockAddrsFindFifteenBlocks)
{
    Workload w = makeFitter(FitterVariant::Sse);
    auto addrs = fitterKernelBlockAddrs(*w.program);
    ASSERT_EQ(addrs.size(), 15u);
    for (uint64_t a : addrs)
        EXPECT_NE(w.program->blockAt(a), kNoBlock);
}

TEST(Fitter, Table3ExecutionShape)
{
    // Per-track execution counts follow the designed multiset:
    // one block at 2x, two at ~1/6, one at ~3.5x, one at ~7/3, one 3x.
    Workload w = makeFitter(FitterVariant::Sse);
    ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
    engine.run(2'000'000);
    Instrumenter instr(engine, true);

    uint64_t tracks = fitterTrackCount(*w.program, instr.bbecs());
    ASSERT_GT(tracks, 1000u);
    auto addrs = fitterKernelBlockAddrs(*w.program);
    std::vector<double> ratio;
    for (uint64_t a : addrs) {
        BlockId b = w.program->blockAt(a);
        ratio.push_back(static_cast<double>(instr.bbec(b)) /
                        static_cast<double>(tracks));
    }
    EXPECT_NEAR(ratio[0], 1.0, 0.02);
    EXPECT_NEAR(ratio[1], 2.0, 0.02);
    EXPECT_NEAR(ratio[4], 7.0 / 6.0, 0.05); // pattern approximation
    EXPECT_NEAR(ratio[7], 1.0 / 6.0, 0.03);
    EXPECT_NEAR(ratio[9], 3.5, 0.05);
    EXPECT_NEAR(ratio[11], 1.0 / 6.0, 0.03);
    EXPECT_NEAR(ratio[13], 7.0 / 3.0, 0.05);
    EXPECT_NEAR(ratio[14], 3.0, 0.02);
}

// ---------------------------------------------------------------------
// CLForward specifics.

TEST(ClForward, VectorizationShiftsPackingProfile)
{
    Counter<Mnemonic> before =
        quickMix(makeClForward(ClForwardVersion::Before));
    Counter<Mnemonic> after =
        quickMix(makeClForward(ClForwardVersion::After));

    auto packing_share = [](const Counter<Mnemonic> &c, Packing p,
                            IsaExt ext) {
        double share = 0, total = c.total();
        for (const auto &[m, n] : c.items())
            if (info(m).packing == p && info(m).ext == ext)
                share += n;
        return share / total;
    };

    // Before: scalar AVX dominates; after: packed AVX dominates.
    EXPECT_GT(packing_share(before, Packing::Scalar, IsaExt::Avx), 0.5);
    EXPECT_LT(packing_share(before, Packing::Packed, IsaExt::Avx), 0.2);
    EXPECT_GT(packing_share(after, Packing::Packed, IsaExt::Avx), 0.4);
    EXPECT_LT(packing_share(after, Packing::Scalar, IsaExt::Avx), 0.1);
    // After also uses non-vector AVX moves (the Table 8 NONE row).
    EXPECT_GT(packing_share(after, Packing::None, IsaExt::Avx), 0.1);
}

TEST(ClForward, TotalWorkShrinks)
{
    Workload before = makeClForward(ClForwardVersion::Before);
    Workload after = makeClForward(ClForwardVersion::After);
    EXPECT_NEAR(static_cast<double>(after.max_instructions) /
                    static_cast<double>(before.max_instructions),
                15.8 / 19.2, 0.01);
}

// ---------------------------------------------------------------------
// Kernel benchmark specifics.

TEST(KernelBench, UserAndKernelFunctionsShareMnemonicProfile)
{
    Workload w = makeKernelBench();
    ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
    engine.run(2'000'000);
    Instrumenter instr(engine, true);

    // Accumulate per-function mnemonic counts.
    Counter<Mnemonic> user, kernel;
    const Program &p = *w.program;
    for (const BasicBlock &blk : p.blocks()) {
        const Function &fn = p.function(blk.func);
        Counter<Mnemonic> *dst = nullptr;
        if (fn.name == kKernelBenchUserFunc)
            dst = &user;
        else if (fn.name == kKernelBenchKernelFunc)
            dst = &kernel;
        else
            continue;
        for (const Instruction &i : blk.instrs)
            dst->add(i.mnemonic,
                     static_cast<double>(instr.bbec(blk.id)));
    }
    ASSERT_GT(user.total(), 0.0);
    ASSERT_GT(kernel.total(), 0.0);

    // Same code, same loop structure: per-mnemonic shares agree within
    // a few percent (NOP differs: the kernel flavour has live-patched
    // tracepoint NOPs).
    for (const auto &[m, cu] : user.items()) {
        if (m == Mnemonic::RET_NEAR)
            continue;
        double su = cu / user.total();
        double sk = kernel.get(m) / kernel.total();
        EXPECT_NEAR(su, sk, 0.03) << info(m).name;
    }
    EXPECT_GT(kernel.get(Mnemonic::NOP), 0.0);
}

TEST(KernelBench, KernelModuleHasTracepoints)
{
    Workload w = makeKernelBench();
    const Module &ko = w.program->modules()[1];
    ASSERT_TRUE(ko.isKernel());
    EXPECT_NE(ko.live_text, ko.static_text);
}

// ---------------------------------------------------------------------
// Training suite.

TEST(TrainingSuite, CoversTheLengthAxis)
{
    std::vector<Workload> suite = makeTrainingSuite();
    EXPECT_GE(suite.size(), 12u);
    double min_mean = 1e9, max_mean = 0;
    for (const Workload &w : suite) {
        double instrs = 0, blocks = 0;
        for (const BasicBlock &b : w.program->blocks()) {
            instrs += static_cast<double>(b.instrs.size());
            blocks += 1;
        }
        double mean = instrs / blocks;
        min_mean = std::min(min_mean, mean);
        max_mean = std::max(max_mean, mean);
    }
    EXPECT_LT(min_mean, 8.0);
    EXPECT_GT(max_mean, 25.0);
}

TEST(HydroPost, VeryShortVectorBlocks)
{
    Workload w = makeHydroPost();
    double instrs = 0, blocks = 0;
    for (const BasicBlock &b : w.program->blocks()) {
        instrs += static_cast<double>(b.instrs.size());
        blocks += 1;
    }
    EXPECT_LT(instrs / blocks, 6.0);
    Counter<Mnemonic> mix = quickMix(w);
    EXPECT_GT(isaShare(mix, IsaExt::Sse), 0.3);
}

} // namespace
} // namespace hbbp
