/**
 * @file
 * Tests for instruction mixes, pivot tables and the Section VI error
 * metrics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "analysis/error.hh"
#include "analysis/mix.hh"
#include "tests/helpers.hh"

namespace hbbp {
namespace {

/** A two-block program with hand-computable mixes. */
struct MixFixture : ::testing::Test
{
    void
    SetUp() override
    {
        ProgramBuilder pb;
        ModuleId mod = pb.addModule("mix.bin");
        FuncId fn = pb.addFunction(mod, "f");
        BlockId a = pb.addBlock(fn);
        pb.append(a, makeInstr(Mnemonic::MOV, /*mem_read=*/true));
        pb.append(a, makeInstr(Mnemonic::MULPS));
        pb.append(a, makeInstr(Mnemonic::ADD));
        BlockId b = pb.addBlock(fn);
        pb.endCond(a, Mnemonic::JNZ, b, pb.addBehavior(Behavior::prob(1)),
                   b);
        pb.append(b, makeInstr(Mnemonic::VMULPS));
        pb.append(b, makeInstr(Mnemonic::MOV, false, /*mem_write=*/true));
        pb.endExit(b);
        pb.setEntry(fn);
        program = std::make_shared<Program>(pb.build());
        map = std::make_unique<BlockMap>(*program);
        ASSERT_EQ(map->blocks().size(), 2u);
    }

    std::shared_ptr<Program> program;
    std::unique_ptr<BlockMap> map;
};

TEST_F(MixFixture, MnemonicCountsAreBbecTimesStatic)
{
    InstructionMix mix(*map, {10.0, 4.0});
    Counter<Mnemonic> counts = mix.mnemonicCounts();
    EXPECT_DOUBLE_EQ(counts.get(Mnemonic::MOV), 14.0); // 10 + 4
    EXPECT_DOUBLE_EQ(counts.get(Mnemonic::MULPS), 10.0);
    EXPECT_DOUBLE_EQ(counts.get(Mnemonic::VMULPS), 4.0);
    EXPECT_DOUBLE_EQ(counts.get(Mnemonic::JNZ), 10.0);
    EXPECT_DOUBLE_EQ(mix.totalInstructions(), 48.0);
}

TEST_F(MixFixture, PivotByIsa)
{
    InstructionMix mix(*map, {10.0, 4.0});
    MixQuery q;
    q.group_by = {MixDim::Isa};
    auto rows = mix.pivot(q);
    ASSERT_EQ(rows.size(), 3u); // BASE, SSE, AVX
    double base = 0, sse = 0, avx = 0;
    for (const PivotRow &r : rows) {
        if (r.key[0] == "BASE")
            base = r.count;
        if (r.key[0] == "SSE")
            sse = r.count;
        if (r.key[0] == "AVX")
            avx = r.count;
    }
    EXPECT_DOUBLE_EQ(base, 34.0); // MOVs + ADD + JNZ
    EXPECT_DOUBLE_EQ(sse, 10.0);
    EXPECT_DOUBLE_EQ(avx, 4.0);
}

TEST_F(MixFixture, PivotWithFilterAndTopN)
{
    InstructionMix mix(*map, {10.0, 4.0});
    MixQuery q;
    q.group_by = {MixDim::Mnemonic};
    q.filter = [](const MixContext &ctx) {
        return ctx.instr->info().packing == Packing::Packed;
    };
    q.top_n = 1;
    auto rows = mix.pivot(q);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].key[0], "MULPS");
    EXPECT_DOUBLE_EQ(rows[0].count, 10.0);
}

TEST_F(MixFixture, PivotMemAccessDimension)
{
    InstructionMix mix(*map, {10.0, 4.0});
    MixQuery q;
    q.group_by = {MixDim::MemAccess};
    auto rows = mix.pivot(q);
    double load = 0, store = 0, none = 0;
    for (const PivotRow &r : rows) {
        if (r.key[0] == "LOAD")
            load = r.count;
        else if (r.key[0] == "STORE")
            store = r.count;
        else if (r.key[0] == "NONE")
            none = r.count;
    }
    EXPECT_DOUBLE_EQ(load, 10.0);
    EXPECT_DOUBLE_EQ(store, 4.0);
    EXPECT_DOUBLE_EQ(none, 34.0);
}

TEST_F(MixFixture, PivotMultiDimensionKeys)
{
    InstructionMix mix(*map, {10.0, 4.0});
    MixQuery q;
    q.group_by = {MixDim::Function, MixDim::Packing};
    auto rows = mix.pivot(q);
    for (const PivotRow &r : rows) {
        ASSERT_EQ(r.key.size(), 2u);
        EXPECT_EQ(r.key[0], "f");
    }
}

TEST_F(MixFixture, PivotTableRenders)
{
    InstructionMix mix(*map, {10.0, 4.0});
    MixQuery q;
    q.group_by = {MixDim::Mnemonic};
    TextTable table = mix.pivotTable(q);
    std::string out = table.render();
    EXPECT_NE(out.find("MULPS"), std::string::npos);
    EXPECT_NE(out.find("count"), std::string::npos);
}

TEST_F(MixFixture, TaxonomyCounts)
{
    InstructionMix mix(*map, {10.0, 4.0});
    Counter<std::string> tax = mix.taxonomyCounts(Taxonomy::standard());
    EXPECT_DOUBLE_EQ(tax.get("vector_packed"), 14.0);
    EXPECT_DOUBLE_EQ(tax.get("control_transfer"), 10.0);
}

TEST_F(MixFixture, ZeroCountBlocksSkipped)
{
    InstructionMix mix(*map, {0.0, 4.0});
    Counter<Mnemonic> counts = mix.mnemonicCounts();
    EXPECT_DOUBLE_EQ(counts.get(Mnemonic::MULPS), 0.0);
    EXPECT_DOUBLE_EQ(counts.get(Mnemonic::VMULPS), 4.0);
}

TEST(MixDeterminism, MnemonicTotalsIndependentOfCounterHistory)
{
    // Build the same {mnemonic, count} set through two different
    // insertion histories: the totals (and therefore every derived
    // percentage) must agree bit for bit.
    std::vector<std::pair<Mnemonic, double>> entries = {
        {Mnemonic::MOV, 1.0e15}, {Mnemonic::ADD, 3.0},
        {Mnemonic::MULPS, 1.0e-7}, {Mnemonic::JNZ, 12345.678},
        {Mnemonic::VMULPS, 9.0e14}, {Mnemonic::SUB, 0.25},
    };
    Counter<Mnemonic> fwd, rev;
    for (const auto &[mn, v] : entries)
        fwd.add(mn, v);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it)
        rev.add(it->first, it->second);

    double tf = fwd.total(), tr = rev.total();
    uint64_t bf, br;
    std::memcpy(&bf, &tf, sizeof bf);
    std::memcpy(&br, &tr, sizeof br);
    EXPECT_EQ(bf, br);
}

TEST(MixDeath, SizeMismatchIsBug)
{
    auto lp = testutil::makeLoopProgram(2);
    BlockMap map(*lp.program);
    EXPECT_DEATH(InstructionMix(map, {1.0}), "counts for");
}

// ---------------------------------------------------------------------
// Error metrics (the paper's Section VI definitions).

TEST(ErrorMetrics, PaperExample)
{
    // Reference 500 MOVs, measured 510: error = 10/500 = 2%.
    Counter<Mnemonic> ref, meas;
    ref.add(Mnemonic::MOV, 500);
    meas.add(Mnemonic::MOV, 510);
    auto errs = perMnemonicErrors(ref, meas);
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_NEAR(errs[0].error, 0.02, 1e-12);
    EXPECT_NEAR(avgWeightedError(ref, meas), 0.02, 1e-12);
}

TEST(ErrorMetrics, WeightingByFrequency)
{
    // MOV: 90% of instructions, 10% error; DIV: 10%, 50% error.
    // AvgW = 0.9*0.1 + 0.1*0.5 = 0.14.
    Counter<Mnemonic> ref, meas;
    ref.add(Mnemonic::MOV, 900);
    ref.add(Mnemonic::DIV, 100);
    meas.add(Mnemonic::MOV, 990);
    meas.add(Mnemonic::DIV, 50);
    EXPECT_NEAR(avgWeightedError(ref, meas), 0.14, 1e-12);
}

TEST(ErrorMetrics, MissingMeasurementIsFullError)
{
    Counter<Mnemonic> ref, meas;
    ref.add(Mnemonic::SQRTPS, 100);
    EXPECT_NEAR(avgWeightedError(ref, meas), 1.0, 1e-12);
}

TEST(ErrorMetrics, ExtraMeasuredMnemonicsIgnored)
{
    // Mnemonics absent from the reference carry zero weight.
    Counter<Mnemonic> ref, meas;
    ref.add(Mnemonic::MOV, 100);
    meas.add(Mnemonic::MOV, 100);
    meas.add(Mnemonic::FSIN, 1'000'000);
    EXPECT_DOUBLE_EQ(avgWeightedError(ref, meas), 0.0);
}

TEST(ErrorMetrics, PerMnemonicSortedByReference)
{
    Counter<Mnemonic> ref, meas;
    ref.add(Mnemonic::MOV, 10);
    ref.add(Mnemonic::ADD, 1000);
    ref.add(Mnemonic::SUB, 100);
    auto errs = perMnemonicErrors(ref, meas);
    ASSERT_EQ(errs.size(), 3u);
    EXPECT_EQ(errs[0].mnemonic, Mnemonic::ADD);
    EXPECT_EQ(errs[1].mnemonic, Mnemonic::SUB);
    EXPECT_EQ(errs[2].mnemonic, Mnemonic::MOV);
}

TEST(ErrorMetrics, BlockError)
{
    EXPECT_DOUBLE_EQ(blockError(100, 110), 0.1);
    EXPECT_DOUBLE_EQ(blockError(100, 90), 0.1);
    EXPECT_DOUBLE_EQ(blockError(0, 50), 0.0);
}

TEST(ErrorMetrics, EmptyReference)
{
    Counter<Mnemonic> ref, meas;
    EXPECT_DOUBLE_EQ(avgWeightedError(ref, meas), 0.0);
    EXPECT_TRUE(perMnemonicErrors(ref, meas).empty());
}

} // namespace
} // namespace hbbp
