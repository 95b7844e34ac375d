/**
 * @file
 * Tests for the execution engine: exact behaviour semantics,
 * determinism, ring transitions, the cycle model and observer events.
 */

#include <gtest/gtest.h>

#include "sim/engine.hh"
#include "tests/helpers.hh"

namespace hbbp {
namespace {

/** A taken control transfer, as the LBR hardware would see it. */
struct Branch
{
    uint64_t source = 0; ///< Address of the branch instruction.
    uint64_t target = 0; ///< Address control arrived at.
    uint64_t cycle = 0;  ///< Retirement cycle of the branch.
    Ring ring = Ring::User;
};

/** Records every event for inspection. */
class RecordingObserver : public ExecObserver
{
  public:
    std::vector<BlockId> block_entries;
    std::vector<Mnemonic> retires;
    std::vector<Branch> branches;
    uint64_t last_block_end = 0; ///< cycleEnd() of the last block.
    uint64_t last_cycle_end = 0;
    bool cycles_monotone = true;

    void
    onBlock(const BlockRetire &blk) override
    {
        block_entries.push_back(blk.block->id);
        for (size_t i = 0; i < blk.size(); i++) {
            retires.push_back(blk.block->instrs[i].mnemonic);
            uint64_t cycle_start = blk.instrStart(i);
            uint64_t cycle_end = blk.instrEnd(i);
            if (cycle_end <= cycle_start || cycle_start < last_cycle_end)
                cycles_monotone = false;
            last_cycle_end = cycle_end;
        }
        last_block_end = blk.cycleEnd();
        if (blk.taken)
            branches.push_back({blk.block->instrs.back().addr,
                                blk.taken_target, blk.cycleEnd(),
                                blk.ring});
    }
};

TEST(Engine, LoopCountSemanticsExact)
{
    for (uint64_t trips : {1ULL, 2ULL, 5ULL, 100ULL}) {
        auto lp = testutil::makeLoopProgram(trips);
        ExecutionEngine engine(*lp.program, MachineConfig{}, 1);
        ExecStats stats = engine.run();
        Instrumenter instr(engine, true);

        EXPECT_EQ(instr.bbec(lp.entry), 1u) << "trips=" << trips;
        EXPECT_EQ(instr.bbec(lp.body), trips) << "trips=" << trips;
        EXPECT_EQ(instr.bbec(lp.tail), 1u) << "trips=" << trips;
        // entry 4 + trips*(6+1 branch) + tail 3.
        EXPECT_EQ(stats.instructions, 4 + trips * 7 + 3);
        // The backedge is taken trips-1 times; nothing else branches.
        EXPECT_EQ(stats.taken_branches, trips - 1);
    }
}

TEST(Engine, DeterministicAcrossRuns)
{
    Workload w = makeTest40();
    w.max_instructions = 200'000;

    auto run_once = [&]() {
        ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
        RecordingObserver rec;
        engine.addObserver(&rec);
        ExecStats stats = engine.run(w.max_instructions);
        return std::make_tuple(stats.instructions, stats.cycles,
                               stats.taken_branches,
                               rec.block_entries.size());
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, ObserverStreamsByteIdenticalAcrossRuns)
{
    // Regression: two runs with the same seed must produce
    // byte-identical observer event streams, not just matching
    // aggregate statistics. Any hidden nondeterminism (iteration over
    // unordered containers, uninitialized state, address-dependent
    // ordering) shows up here first.
    Workload w = makeTest40();
    w.max_instructions = 100'000;

    struct Capture
    {
        std::vector<BlockId> block_entries;
        std::vector<Mnemonic> retires;
        std::vector<Branch> branches;
        uint64_t last_block_end = 0;
        uint64_t cycles = 0;
    };
    auto run_once = [&]() {
        ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
        RecordingObserver rec;
        engine.addObserver(&rec);
        ExecStats stats = engine.run(w.max_instructions);
        Capture c;
        c.block_entries = rec.block_entries;
        c.retires = rec.retires;
        c.branches = rec.branches;
        c.last_block_end = rec.last_block_end;
        c.cycles = stats.cycles;
        return c;
    };

    Capture a = run_once();
    Capture b = run_once();

    EXPECT_EQ(a.block_entries, b.block_entries);
    EXPECT_EQ(a.retires, b.retires);
    EXPECT_EQ(a.last_block_end, a.cycles);
    EXPECT_EQ(b.last_block_end, b.cycles);
    EXPECT_EQ(a.last_block_end, b.last_block_end);
    ASSERT_EQ(a.branches.size(), b.branches.size());
    for (size_t i = 0; i < a.branches.size(); i++) {
        EXPECT_EQ(a.branches[i].source, b.branches[i].source) << i;
        EXPECT_EQ(a.branches[i].target, b.branches[i].target) << i;
        EXPECT_EQ(a.branches[i].cycle, b.branches[i].cycle) << i;
        EXPECT_EQ(a.branches[i].ring, b.branches[i].ring) << i;
    }
}

TEST(Engine, SeedChangesProbabilisticOutcomes)
{
    Workload w = makeTest40();
    auto count_branches = [&](uint64_t seed) {
        ExecutionEngine engine(*w.program, MachineConfig{}, seed);
        return engine.run(100'000).taken_branches;
    };
    // Different seeds should give (slightly) different branch counts.
    EXPECT_NE(count_branches(1), count_branches(2));
}

TEST(Engine, MaxInstructionBudgetHonored)
{
    Workload w = makeTest40();
    ExecutionEngine engine(*w.program, MachineConfig{}, 1);
    ExecStats stats = engine.run(10'000);
    EXPECT_GE(stats.instructions, 10'000u);
    // Overrun is bounded by one block.
    EXPECT_LT(stats.instructions, 10'200u);
}

TEST(Engine, PatternBehaviourCycles)
{
    // A self-loop with pattern {t, t, f}: exactly 3 executions per
    // entry.
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m");
    FuncId fn = pb.addFunction(mod, "f");
    BlockId entry = pb.addBlock(fn);
    pb.append(entry, makeInstr(Mnemonic::MOV));
    pb.endFallThrough(entry);
    BlockId loop = pb.addBlock(fn);
    pb.append(loop, makeInstr(Mnemonic::ADD));
    pb.endCond(loop, Mnemonic::JNZ, loop,
               pb.addBehavior(Behavior::patternOf({true, true, false})));
    BlockId tail = pb.addBlock(fn);
    pb.append(tail, makeInstr(Mnemonic::SUB));
    pb.endExit(tail);
    pb.setEntry(fn);
    Program p = pb.build();

    ExecutionEngine engine(p, MachineConfig{}, 1);
    engine.run();
    Instrumenter instr(engine, true);
    EXPECT_EQ(instr.bbec(loop), 3u);
}

TEST(Engine, RingTransitionsViaSyscall)
{
    auto kp = testutil::makeKernelProgram(10);
    ExecutionEngine engine(*kp.program, MachineConfig{}, 1);
    RecordingObserver rec;
    engine.addObserver(&rec);
    ExecStats stats = engine.run();

    // Kernel handler runs exactly `iterations` times: 3 instructions
    // each (MOV, AND, SYSRET).
    EXPECT_EQ(stats.kernel_instructions, kp.iterations * 3);
    EXPECT_GT(stats.user_instructions, 0u);
    EXPECT_EQ(stats.instructions,
              stats.user_instructions + stats.kernel_instructions);

    // SYSCALL and SYSRET both appear as taken branches.
    int syscalls = 0, sysrets = 0;
    const Program &p = *kp.program;
    for (const Branch &tb : rec.branches) {
        BlockId b = p.blockAt(tb.source);
        ASSERT_NE(b, kNoBlock);
        Mnemonic m = p.block(b).instrs.back().mnemonic;
        if (m == Mnemonic::SYSCALL) {
            syscalls++;
            EXPECT_EQ(tb.ring, Ring::User);
        }
        if (m == Mnemonic::SYSRET) {
            sysrets++;
            EXPECT_EQ(tb.ring, Ring::Kernel);
        }
    }
    EXPECT_EQ(syscalls, static_cast<int>(kp.iterations));
    EXPECT_EQ(sysrets, static_cast<int>(kp.iterations));

    // The engine's one block counter is the recorder's tally, and the
    // block total and the per-ring instruction split derive from it.
    std::vector<uint64_t> tally(p.blocks().size(), 0);
    for (BlockId b : rec.block_entries)
        tally[b]++;
    EXPECT_EQ(engine.blockCounts(), tally);
    uint64_t entries = 0, user = 0, kernel = 0;
    for (const BasicBlock &blk : p.blocks()) {
        uint64_t n = engine.blockCounts()[blk.id];
        entries += n;
        if (p.module(p.function(blk.func).module).isKernel())
            kernel += n * blk.instrs.size();
        else
            user += n * blk.instrs.size();
    }
    EXPECT_EQ(entries, stats.block_entries);
    EXPECT_EQ(user, stats.user_instructions);
    EXPECT_EQ(kernel, stats.kernel_instructions);
}

TEST(Engine, CallReturnBalanced)
{
    auto kp = testutil::makeKernelProgram(7);
    ExecutionEngine engine(*kp.program, MachineConfig{}, 1);
    RecordingObserver rec;
    engine.addObserver(&rec);
    engine.run();

    int rets = 0;
    for (Mnemonic m : rec.retires)
        if (m == Mnemonic::RET_NEAR || m == Mnemonic::SYSRET)
            rets++;
    int calls = 0;
    for (Mnemonic m : rec.retires)
        if (m == Mnemonic::CALL || m == Mnemonic::SYSCALL)
            calls++;
    EXPECT_EQ(calls, rets);
}

TEST(Engine, CycleModelChargesLatencies)
{
    // 10 ADDs -> 10 cycles; 10 DIVs -> 10 * latency(DIV).
    auto build = [](Mnemonic m) {
        ProgramBuilder pb;
        ModuleId mod = pb.addModule("m");
        FuncId fn = pb.addFunction(mod, "f");
        BlockId b = pb.addBlock(fn);
        for (int i = 0; i < 10; i++)
            pb.append(b, makeInstr(m));
        pb.endExit(b);
        pb.setEntry(fn);
        return pb.build();
    };
    Program adds = build(Mnemonic::ADD);
    Program divs = build(Mnemonic::DIV);
    MachineConfig mc;
    ExecutionEngine e1(adds, mc, 1), e2(divs, mc, 1);
    EXPECT_EQ(e1.run().cycles, 10u);
    EXPECT_EQ(e2.run().cycles, 10u * info(Mnemonic::DIV).latency);
}

TEST(Engine, MemExtraCyclesConfigurable)
{
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m");
    FuncId fn = pb.addFunction(mod, "f");
    BlockId b = pb.addBlock(fn);
    pb.append(b, makeInstr(Mnemonic::MOV, /*mem_read=*/true));
    pb.endExit(b);
    pb.setEntry(fn);
    Program p = pb.build();

    MachineConfig mc;
    mc.mem_extra_cycles = 3;
    ExecutionEngine engine(p, mc, 1);
    EXPECT_EQ(engine.run().cycles, 4u);
}

TEST(Engine, ObserverCyclesMonotone)
{
    Workload w = makeFitter(FitterVariant::Sse);
    ExecutionEngine engine(*w.program, MachineConfig{}, 1);
    RecordingObserver rec;
    engine.addObserver(&rec);
    ExecStats stats = engine.run(100'000);
    EXPECT_TRUE(rec.cycles_monotone);
    EXPECT_EQ(rec.last_block_end, stats.cycles);
    EXPECT_EQ(rec.retires.size(), stats.instructions);
    EXPECT_EQ(rec.block_entries.size(), stats.block_entries);
    EXPECT_EQ(rec.branches.size(), stats.taken_branches);
}

TEST(Engine, IndirectCallDistributesOverTargets)
{
    // main loop indirect-calls two workers with 3:1 weights.
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m");
    FuncId f1 = pb.addFunction(mod, "w1");
    BlockId b1 = pb.addBlock(f1);
    pb.append(b1, makeInstr(Mnemonic::ADD));
    pb.endReturn(b1);
    FuncId f2 = pb.addFunction(mod, "w2");
    BlockId b2 = pb.addBlock(f2);
    pb.append(b2, makeInstr(Mnemonic::SUB));
    pb.endReturn(b2);

    FuncId main_fn = pb.addFunction(mod, "main");
    BlockId entry = pb.addBlock(main_fn);
    pb.append(entry, makeInstr(Mnemonic::MOV));
    pb.endFallThrough(entry);
    BlockId head = pb.addBlock(main_fn);
    pb.append(head, makeInstr(Mnemonic::MOV));
    pb.endIndirectCall(head, pb.addBehavior(Behavior::targetSet(
                                 {{f1, 3.0}, {f2, 1.0}})));
    BlockId latch = pb.addBlock(main_fn);
    pb.append(latch, makeInstr(Mnemonic::CMP));
    pb.endCond(latch, Mnemonic::JNZ, head,
               pb.addBehavior(Behavior::loop(10'000)));
    BlockId done = pb.addBlock(main_fn);
    pb.append(done, makeInstr(Mnemonic::NOP));
    pb.endExit(done);
    pb.setEntry(main_fn);
    Program p = pb.build();

    ExecutionEngine engine(p, MachineConfig{}, 99);
    engine.run();
    Instrumenter instr(engine, true);
    double ratio = static_cast<double>(instr.bbec(b1)) /
                   static_cast<double>(instr.bbec(b2));
    EXPECT_NEAR(ratio, 3.0, 0.3);
    EXPECT_EQ(instr.bbec(b1) + instr.bbec(b2), 10'000u);
}

TEST(Engine, IpcIsPositive)
{
    auto lp = testutil::makeLoopProgram(100);
    ExecutionEngine engine(*lp.program, MachineConfig{}, 1);
    ExecStats stats = engine.run();
    EXPECT_GT(stats.ipc(), 0.0);
    EXPECT_LE(stats.ipc(), 1.0);
}

TEST(MachineConfig, CyclesToSeconds)
{
    MachineConfig mc;
    mc.freq_ghz = 2.0;
    EXPECT_DOUBLE_EQ(mc.cyclesToSeconds(2'000'000'000ULL), 1.0);
}

} // namespace
} // namespace hbbp
