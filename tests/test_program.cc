/**
 * @file
 * Tests for program construction: builder invariants, address layout,
 * displacement resolution, lookups, and kernel text images.
 */

#include <gtest/gtest.h>

#include "program/builder.hh"
#include "program/program.hh"
#include "tests/helpers.hh"

namespace hbbp {
namespace {

TEST(Builder, LayoutIsContiguousAndSorted)
{
    auto lp = testutil::makeLoopProgram(5);
    const Program &p = *lp.program;

    ASSERT_EQ(p.modules().size(), 1u);
    const Module &mod = p.modules()[0];
    EXPECT_EQ(mod.base % 0x1000, 0u);

    uint64_t cursor = mod.base;
    for (FuncId fid : mod.functions) {
        const Function &fn = p.function(fid);
        EXPECT_EQ(fn.start, cursor);
        for (BlockId bid : fn.blocks) {
            const BasicBlock &blk = p.block(bid);
            EXPECT_EQ(blk.start, cursor);
            uint32_t bytes = 0;
            for (const Instruction &i : blk.instrs) {
                EXPECT_EQ(i.addr, blk.start + bytes);
                bytes += i.length;
            }
            EXPECT_EQ(blk.bytes, bytes);
            cursor += bytes;
        }
        EXPECT_EQ(fn.size, cursor - fn.start);
    }
    EXPECT_EQ(mod.size, cursor - mod.base);
}

TEST(Builder, DisplacementsResolveToTargets)
{
    auto lp = testutil::makeLoopProgram(5);
    const Program &p = *lp.program;
    const BasicBlock &body = p.block(lp.body);
    const Instruction &branch = body.instrs.back();
    EXPECT_TRUE(branch.info().isCondBranch());
    EXPECT_EQ(branch.target(), body.start);
}

TEST(Builder, DiamondEdgesResolve)
{
    auto dp = testutil::makeDiamondProgram(4);
    const Program &p = *dp.program;

    // The conditional at the head targets the taken arm and falls
    // through to the not-taken arm (which is next in layout).
    const BasicBlock &head = p.block(dp.head);
    EXPECT_EQ(head.term, TermKind::CondBranch);
    EXPECT_EQ(head.taken_target, dp.left);
    EXPECT_EQ(head.fall_target, dp.right);
    EXPECT_EQ(head.instrs.back().target(), p.block(dp.left).start);

    // The not-taken arm jumps over the taken arm to the join.
    const BasicBlock &right = p.block(dp.right);
    EXPECT_EQ(right.term, TermKind::Jump);
    EXPECT_EQ(right.taken_target, dp.join);
    EXPECT_EQ(right.instrs.back().target(), p.block(dp.join).start);

    // The taken arm reaches the join by fall-through: no control
    // instruction, and its bytes end exactly at the join start.
    const BasicBlock &left = p.block(dp.left);
    EXPECT_EQ(left.term, TermKind::FallThrough);
    EXPECT_EQ(left.fall_target, dp.join);
    EXPECT_EQ(left.controlInstr(), nullptr);
    EXPECT_EQ(left.end(), p.block(dp.join).start);

    // The join closes the loop back to the head.
    const BasicBlock &join = p.block(dp.join);
    EXPECT_EQ(join.term, TermKind::CondBranch);
    EXPECT_EQ(join.taken_target, dp.head);
    EXPECT_EQ(join.fall_target, dp.tail);
}

TEST(Builder, DiamondExecutionCountsExact)
{
    // Exact per-block counts through the merge point, including an odd
    // iteration count where the arms split unevenly.
    for (uint64_t iters : {1ULL, 4ULL, 7ULL}) {
        auto dp = testutil::makeDiamondProgram(iters);
        ExecutionEngine engine(*dp.program, MachineConfig{}, 1);
        engine.run();
        Instrumenter instr(engine, true);

        EXPECT_EQ(instr.bbec(dp.entry), 1u) << "iters=" << iters;
        EXPECT_EQ(instr.bbec(dp.head), iters) << "iters=" << iters;
        EXPECT_EQ(instr.bbec(dp.left), dp.left_count)
            << "iters=" << iters;
        EXPECT_EQ(instr.bbec(dp.right), dp.right_count)
            << "iters=" << iters;
        // Both arms merge: the join executes once per head execution.
        EXPECT_EQ(instr.bbec(dp.join), iters) << "iters=" << iters;
        EXPECT_EQ(instr.bbec(dp.tail), 1u) << "iters=" << iters;
    }
}

TEST(Builder, CallDisplacementTargetsCalleeEntry)
{
    auto kp = testutil::makeKernelProgram(3);
    const Program &p = *kp.program;
    // Find the CALL instruction in main.
    for (const BasicBlock &blk : p.blocks()) {
        if (blk.term != TermKind::Call)
            continue;
        const Instruction &call = blk.instrs.back();
        EXPECT_EQ(call.mnemonic, Mnemonic::CALL);
        EXPECT_EQ(call.target(),
                  p.block(p.function(blk.callee).entry).start);
        return;
    }
    FAIL() << "no call block found";
}

TEST(Builder, TextImagesMatchInstructionStream)
{
    auto lp = testutil::makeLoopProgram(3);
    const Module &mod = lp.program->modules()[0];
    EXPECT_EQ(mod.live_text.size(), mod.size);
    // User modules: static and live images are identical.
    EXPECT_EQ(mod.live_text, mod.static_text);
}

TEST(Builder, KernelTracepointDiffersBetweenImages)
{
    auto kp = testutil::makeKernelProgram(2, /*with_tracepoint=*/true);
    const Program &p = *kp.program;
    const Module &kern = p.modules()[1];
    ASSERT_TRUE(kern.isKernel());
    EXPECT_NE(kern.live_text, kern.static_text);

    // The live-decoded stream has a NOP where the static stream has a
    // JMP; everything else matches.
    auto live = decodeAll(kern.live_text, kern.base);
    auto stat = decodeAll(kern.static_text, kern.base);
    ASSERT_EQ(live.size(), stat.size());
    int diffs = 0;
    for (size_t i = 0; i < live.size(); i++) {
        if (live[i] == stat[i])
            continue;
        diffs++;
        EXPECT_EQ(live[i].mnemonic, Mnemonic::NOP);
        EXPECT_EQ(stat[i].mnemonic, Mnemonic::JMP);
        EXPECT_EQ(live[i].length, stat[i].length);
    }
    EXPECT_EQ(diffs, 1);

    // The executing representation matches the live image.
    const Function &handler = p.function(kp.handler);
    bool found_nop = false;
    for (BlockId bid : handler.blocks)
        for (const Instruction &i : p.block(bid).instrs)
            found_nop |= i.mnemonic == Mnemonic::NOP;
    EXPECT_TRUE(found_nop);
}

TEST(Builder, KernelAndUserAddressSpacesDisjoint)
{
    auto kp = testutil::makeKernelProgram(2);
    const Program &p = *kp.program;
    const Module &user = p.modules()[0];
    const Module &kern = p.modules()[1];
    EXPECT_LT(user.base + user.size, 0x8000000000000000ULL);
    EXPECT_GE(kern.base, 0xffffffff81000000ULL);
}

TEST(Program, BlockAtFindsEveryInstruction)
{
    auto lp = testutil::makeLoopProgram(4);
    const Program &p = *lp.program;
    for (const BasicBlock &blk : p.blocks()) {
        for (const Instruction &i : blk.instrs) {
            EXPECT_EQ(p.blockAt(i.addr), blk.id);
            // Mid-instruction addresses also resolve to the block.
            EXPECT_EQ(p.blockAt(i.addr + 1), blk.id);
        }
    }
}

TEST(Program, BlockAtRejectsOutsideAddresses)
{
    auto lp = testutil::makeLoopProgram(4);
    const Program &p = *lp.program;
    EXPECT_EQ(p.blockAt(0), kNoBlock);
    EXPECT_EQ(p.blockAt(0xdeadbeefcafeULL), kNoBlock);
    const Module &mod = p.modules()[0];
    EXPECT_EQ(p.blockAt(mod.base + mod.size), kNoBlock);
}

TEST(Program, FunctionAndModuleLookup)
{
    auto kp = testutil::makeKernelProgram(2);
    const Program &p = *kp.program;
    const Function &handler = p.function(kp.handler);
    EXPECT_EQ(p.functionAt(handler.start), kp.handler);
    EXPECT_EQ(p.moduleAt(handler.start), handler.module);
    EXPECT_EQ(p.moduleAt(1234), p.modules().size());
}

TEST(Program, StaticInstrCount)
{
    auto lp = testutil::makeLoopProgram(4, /*body_len=*/6);
    // entry 4 + body 6 + JNZ + tail 3 = 14.
    EXPECT_EQ(lp.program->staticInstrCount(), 14u);
}

TEST(Behavior, FactoriesValidate)
{
    EXPECT_EQ(Behavior::loop(3).kind, Behavior::Kind::LoopCount);
    EXPECT_EQ(Behavior::prob(0.5).kind, Behavior::Kind::TakenProb);
    EXPECT_EQ(Behavior::patternOf({true}).kind, Behavior::Kind::Pattern);
    EXPECT_DEATH(Behavior::loop(0), "count");
    EXPECT_DEATH(Behavior::prob(1.5), "out of");
    EXPECT_DEATH(Behavior::patternOf({}), "non-empty");
    EXPECT_DEATH(Behavior::targetSet({}), "at least one");
    EXPECT_DEATH(Behavior::targetSet({{0, -1.0}}), "negative");
}

TEST(BuilderDeath, AppendingControlInstrRejected)
{
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m");
    FuncId fn = pb.addFunction(mod, "f");
    BlockId b = pb.addBlock(fn);
    EXPECT_DEATH(pb.append(b, makeInstr(Mnemonic::JMP)),
                 "control instruction");
}

TEST(BuilderDeath, DoubleTerminationRejected)
{
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m");
    FuncId fn = pb.addFunction(mod, "f");
    BlockId b = pb.addBlock(fn);
    pb.endReturn(b);
    EXPECT_DEATH(pb.endReturn(b), "already terminated");
}

TEST(BuilderDeath, MissingEntryIsFatal)
{
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m");
    FuncId fn = pb.addFunction(mod, "f");
    BlockId b = pb.addBlock(fn);
    pb.endReturn(b);
    EXPECT_EXIT(pb.build(), ::testing::ExitedWithCode(1),
                "no entry function");
}

TEST(BuilderDeath, UnterminatedBlockIsFatal)
{
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m");
    FuncId fn = pb.addFunction(mod, "f");
    pb.addBlock(fn);
    pb.setEntry(fn);
    EXPECT_EXIT(pb.build(), ::testing::ExitedWithCode(1),
                "not terminated");
}

TEST(BuilderDeath, FallThroughFromLastBlockIsFatal)
{
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m");
    FuncId fn = pb.addFunction(mod, "f");
    BlockId b = pb.addBlock(fn);
    pb.append(b, makeInstr(Mnemonic::MOV));
    pb.endFallThrough(b);
    pb.setEntry(fn);
    EXPECT_EXIT(pb.build(), ::testing::ExitedWithCode(1),
                "fall-through");
}

TEST(BuilderDeath, CrossFunctionBranchIsFatal)
{
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m");
    FuncId f1 = pb.addFunction(mod, "f1");
    BlockId b1 = pb.addBlock(f1);
    pb.append(b1, makeInstr(Mnemonic::MOV));
    pb.endReturn(b1);
    FuncId f2 = pb.addFunction(mod, "f2");
    BlockId b2 = pb.addBlock(f2);
    pb.endJump(b2, b1);
    pb.setEntry(f2);
    EXPECT_EXIT(pb.build(), ::testing::ExitedWithCode(1),
                "outside its function");
}

TEST(BuilderDeath, SyscallToUserFunctionIsFatal)
{
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m");
    FuncId callee = pb.addFunction(mod, "callee");
    BlockId cb = pb.addBlock(callee);
    pb.endReturn(cb);
    FuncId fn = pb.addFunction(mod, "main");
    BlockId b = pb.addBlock(fn);
    pb.endSyscall(b, callee);
    BlockId b2 = pb.addBlock(fn);
    pb.endExit(b2);
    pb.setEntry(fn);
    EXPECT_EXIT(pb.build(), ::testing::ExitedWithCode(1),
                "kernel module");
}

TEST(BuilderDeath, TracepointInUserModuleRejected)
{
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("m", Ring::User);
    FuncId fn = pb.addFunction(mod, "f");
    BlockId b = pb.addBlock(fn);
    EXPECT_DEATH(pb.appendTracepoint(b), "kernel module");
}

} // namespace
} // namespace hbbp
