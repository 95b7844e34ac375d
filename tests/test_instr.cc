/**
 * @file
 * Tests for the software-instrumentation reference and the analytic
 * overhead models.
 */

#include <gtest/gtest.h>

#include "instr/instrumenter.hh"
#include "instr/overhead.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"

namespace hbbp {
namespace {

TEST(Instrumenter, ExactBbecOnLoop)
{
    auto lp = testutil::makeLoopProgram(42);
    ExecutionEngine engine(*lp.program, MachineConfig{}, 1);
    engine.run();
    Instrumenter instr(engine, true);

    EXPECT_EQ(instr.bbec(lp.entry), 1u);
    EXPECT_EQ(instr.bbec(lp.body), 42u);
    EXPECT_EQ(instr.bbec(lp.tail), 1u);
}

TEST(Instrumenter, MnemonicCountsDeriveFromBbecs)
{
    auto lp = testutil::makeLoopProgram(10, /*body_len=*/6);
    ExecutionEngine engine(*lp.program, MachineConfig{}, 1);
    ExecStats stats = engine.run();
    Instrumenter instr(engine, true);

    Counter<Mnemonic> counts = instr.mnemonicCounts();
    EXPECT_DOUBLE_EQ(counts.get(Mnemonic::ADD), 60.0);
    EXPECT_DOUBLE_EQ(counts.get(Mnemonic::JNZ), 10.0);
    EXPECT_DOUBLE_EQ(counts.get(Mnemonic::MOV), 4.0);
    EXPECT_DOUBLE_EQ(counts.total(),
                     static_cast<double>(stats.instructions));
    EXPECT_EQ(instr.totalInstructions(), stats.instructions);
}

TEST(Instrumenter, UserModeOnlyByDefault)
{
    auto kp = testutil::makeKernelProgram(100);
    ExecutionEngine engine(*kp.program, MachineConfig{}, 1);
    ExecStats stats = engine.run();
    Instrumenter pin_like(engine, /*include_kernel=*/false);
    Instrumenter full(engine, /*include_kernel=*/true);

    EXPECT_EQ(pin_like.totalInstructions(), stats.user_instructions);
    EXPECT_EQ(full.totalInstructions(), stats.instructions);
    // The kernel handler block is invisible to the PIN-like view.
    const Function &handler = kp.program->function(kp.handler);
    EXPECT_EQ(pin_like.bbec(handler.entry), 0u);
    EXPECT_EQ(full.bbec(handler.entry), 100u);
}

TEST(Instrumenter, BbecByAddrComplete)
{
    auto lp = testutil::makeLoopProgram(3);
    ExecutionEngine engine(*lp.program, MachineConfig{}, 1);
    engine.run();
    Instrumenter instr(engine, true);
    auto by_addr = instr.bbecByAddr();
    EXPECT_EQ(by_addr.size(), lp.program->blocks().size());
    EXPECT_EQ(by_addr.at(lp.program->block(lp.body).start), 3u);
}

// ---------------------------------------------------------------------
// Overhead models.

TEST(OverheadModel, InstrumentationGrowsWithProbeDensity)
{
    InstrumentationCostModel model;
    RunFeatures long_blocks{.cycles = 1'000'000,
                            .instructions = 1'000'000,
                            .block_entries = 25'000, // len 40
                            .taken_branches = 20'000,
                            .simd_instructions = 0};
    RunFeatures short_blocks{.cycles = 1'000'000,
                             .instructions = 1'000'000,
                             .block_entries = 250'000, // len 4
                             .taken_branches = 200'000,
                             .simd_instructions = 0};
    EXPECT_GT(model.slowdown(short_blocks), model.slowdown(long_blocks));
    EXPECT_GT(model.slowdown(long_blocks), 1.0);
}

TEST(OverheadModel, SimdSurchargeAndEmulation)
{
    InstrumentationCostModel model;
    RunFeatures scalar{.cycles = 1'000'000,
                       .instructions = 1'000'000,
                       .block_entries = 100'000,
                       .taken_branches = 100'000,
                       .simd_instructions = 0};
    RunFeatures vector = scalar;
    vector.simd_instructions = 600'000;
    EXPECT_GT(model.slowdown(vector), model.slowdown(scalar) + 1.0);
    // Full ISA emulation is the dominant cost regime (68-77x cases).
    EXPECT_GT(model.slowdown(vector, /*emulated=*/true),
              model.slowdown(vector) + 30.0);
}

TEST(OverheadModel, CollectionOverheadScalesWithPeriod)
{
    CollectionCostModel model;
    RunFeatures f{.cycles = 10'000'000'000ULL,
                  .instructions = 10'000'000'000ULL,
                  .block_entries = 1'000'000'000ULL,
                  .taken_branches = 1'500'000'000ULL,
                  .simd_instructions = 0};
    double fast = model.overheadFraction(f, 1'000'037, 100'003);
    double slow = model.overheadFraction(f, 100'000'007, 10'000'019);
    EXPECT_GT(fast, slow);
    EXPECT_GT(slow, 0.0);
    // SPEC-scale periods: sub-1% collection overhead (paper: ~0.5%).
    EXPECT_LT(slow, 0.01);
    // Seconds-scale periods: low single digits (paper: ~2.3%).
    EXPECT_LT(fast, 0.06);
    EXPECT_GT(fast, 0.005);
}

TEST(OverheadModel, SlowdownIsOnePlusFraction)
{
    CollectionCostModel model;
    RunFeatures f{.cycles = 1'000'000,
                  .instructions = 1'000'000,
                  .block_entries = 100'000,
                  .taken_branches = 150'000,
                  .simd_instructions = 0};
    EXPECT_DOUBLE_EQ(model.slowdown(f, 1'000'037, 100'003),
                     1.0 + model.overheadFraction(f, 1'000'037, 100'003));
}

TEST(OverheadModelDeath, ZeroCyclesIsBug)
{
    InstrumentationCostModel model;
    RunFeatures f{};
    EXPECT_DEATH(model.slowdown(f), "zero clean cycles");
}

} // namespace
} // namespace hbbp
