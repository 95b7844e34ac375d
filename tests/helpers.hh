/**
 * @file
 * Shared fixtures for the test suite: canonical hand-built programs
 * with exactly-known execution counts.
 */

#ifndef HBBP_TESTS_HELPERS_HH
#define HBBP_TESTS_HELPERS_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "hbbp/hbbp.hh"

namespace hbbp::testutil {

/** Whole file as bytes (for corruption/tamper tests). */
inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Overwrite @p path with @p bytes. */
inline void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/**
 * Expect @p rendered to equal the golden file at @p path. With
 * HBBP_UPDATE_GOLDEN=1 in the environment, (re)write the file instead:
 * only after a deliberate, documented change to what it pins.
 */
inline void
checkGolden(const std::string &path, const std::string &rendered)
{
    if (std::getenv("HBBP_UPDATE_GOLDEN")) {
        writeFile(path, rendered);
        return;
    }
    std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << path << " missing; regenerate with HBBP_UPDATE_GOLDEN=1";
    EXPECT_EQ(rendered, expected) << "drift from " << path;
}

/**
 * A single-function program:
 *
 *   entry(4 instrs) -> loop_body(6 instrs, executes `trips` times per
 *   entry, re-entered `outer` times) -> tail(3 instrs) -> exit
 *
 * Exact counts: entry 1, loop head executes outer*trips, tail outer,
 * where the structure is:
 *   entry -> head; head endCond(taken=head, Loop(trips)); falls to
 *   latch; latch endCond(taken=head0...) — simplified to:
 *   entry(1) -> body(self-loop, trips) -> tail(1) -> exit.
 */
struct LoopProgram
{
    std::shared_ptr<Program> program;
    BlockId entry = kNoBlock;
    BlockId body = kNoBlock;
    BlockId tail = kNoBlock;
    uint64_t trips = 0;
};

inline LoopProgram
makeLoopProgram(uint64_t trips, size_t body_len = 6)
{
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("loop.bin");
    FuncId fn = pb.addFunction(mod, "main");

    LoopProgram out;
    out.trips = trips;
    out.entry = pb.addBlock(fn);
    for (int i = 0; i < 4; i++)
        pb.append(out.entry, makeInstr(Mnemonic::MOV));
    pb.endFallThrough(out.entry);

    out.body = pb.addBlock(fn);
    for (size_t i = 0; i < body_len; i++)
        pb.append(out.body, makeInstr(Mnemonic::ADD));
    pb.endCond(out.body, Mnemonic::JNZ, out.body,
               pb.addBehavior(Behavior::loop(trips)));

    out.tail = pb.addBlock(fn);
    pb.append(out.tail, makeInstr(Mnemonic::SUB));
    pb.append(out.tail, makeInstr(Mnemonic::CMP));
    pb.append(out.tail, makeInstr(Mnemonic::TEST));
    pb.endExit(out.tail);

    pb.setEntry(fn);
    out.program = std::make_shared<Program>(pb.build());
    return out;
}

/**
 * A diamond (if/else + join) wrapped in a counted loop, with
 * exactly-known per-block counts:
 *
 *         entry (2 instrs, executes once)
 *           |
 *         head  (1 instr + JZ, executes `iters` times)
 *        /    \
 *    left      right      (alternating {taken, not-taken} pattern)
 *   (1 instr) (2 instrs + JMP)
 *        \    /
 *         join  (1 instr + JNZ backedge, executes `iters` times)
 *           |
 *         tail  (1 instr, executes once)
 *
 * The join block is the merge point the loop fixture can't produce: it
 * is simultaneously a jump target (from `right`) and a fall-through
 * successor (from `left`). Layout order is entry, head, right, left,
 * join, tail, so the taken arm (`left`) is reached only via the branch
 * and the fall-through arm (`right`) must JMP over it to the join.
 *
 * With the alternating pattern starting at taken, `left` executes
 * ceil(iters/2) times and `right` floor(iters/2) times.
 */
struct DiamondProgram
{
    std::shared_ptr<Program> program;
    BlockId entry = kNoBlock;
    BlockId head = kNoBlock;
    BlockId left = kNoBlock;
    BlockId right = kNoBlock;
    BlockId join = kNoBlock;
    BlockId tail = kNoBlock;
    uint64_t iters = 0;
    uint64_t left_count = 0;
    uint64_t right_count = 0;
};

inline DiamondProgram
makeDiamondProgram(uint64_t iters)
{
    ProgramBuilder pb;
    ModuleId mod = pb.addModule("diamond.bin");
    FuncId fn = pb.addFunction(mod, "main");

    DiamondProgram out;
    out.iters = iters;
    out.left_count = (iters + 1) / 2;
    out.right_count = iters / 2;

    out.entry = pb.addBlock(fn);
    out.head = pb.addBlock(fn);
    out.right = pb.addBlock(fn);
    out.left = pb.addBlock(fn);
    out.join = pb.addBlock(fn);
    out.tail = pb.addBlock(fn);

    pb.append(out.entry, makeInstr(Mnemonic::MOV));
    pb.append(out.entry, makeInstr(Mnemonic::XOR));
    pb.endFallThrough(out.entry);

    pb.append(out.head, makeInstr(Mnemonic::CMP));
    pb.endCond(out.head, Mnemonic::JZ, out.left,
               pb.addBehavior(Behavior::patternOf({true, false})));

    pb.append(out.right, makeInstr(Mnemonic::ADD));
    pb.append(out.right, makeInstr(Mnemonic::OR));
    pb.endJump(out.right, out.join);

    pb.append(out.left, makeInstr(Mnemonic::SUB));
    pb.endFallThrough(out.left);

    pb.append(out.join, makeInstr(Mnemonic::AND));
    pb.endCond(out.join, Mnemonic::JNZ, out.head,
               pb.addBehavior(Behavior::loop(iters)));

    pb.append(out.tail, makeInstr(Mnemonic::NOP));
    pb.endExit(out.tail);

    pb.setEntry(fn);
    out.program = std::make_shared<Program>(pb.build());
    return out;
}

/**
 * A two-function user program plus a kernel module with one handler:
 * main calls worker() then syscalls into handler(), `iterations` times.
 */
struct KernelProgram
{
    std::shared_ptr<Program> program;
    FuncId worker = kNoFunc;
    FuncId handler = kNoFunc;
    uint64_t iterations = 0;
};

inline KernelProgram
makeKernelProgram(uint64_t iterations, bool with_tracepoint = false)
{
    ProgramBuilder pb;
    ModuleId user = pb.addModule("user.bin", Ring::User);
    ModuleId kern = pb.addModule("kern.ko", Ring::Kernel);

    KernelProgram out;
    out.iterations = iterations;

    out.worker = pb.addFunction(user, "worker");
    BlockId wb = pb.addBlock(out.worker);
    pb.append(wb, makeInstr(Mnemonic::ADD));
    pb.append(wb, makeInstr(Mnemonic::IMUL));
    pb.endReturn(wb);

    out.handler = pb.addFunction(kern, "handler");
    BlockId hb = pb.addBlock(out.handler);
    pb.append(hb, makeInstr(Mnemonic::MOV));
    if (with_tracepoint)
        pb.appendTracepoint(hb);
    pb.append(hb, makeInstr(Mnemonic::AND));
    pb.endReturn(hb, Mnemonic::SYSRET);

    FuncId main_fn = pb.addFunction(user, "main");
    BlockId entry = pb.addBlock(main_fn);
    pb.append(entry, makeInstr(Mnemonic::XOR));
    pb.endFallThrough(entry);
    BlockId head = pb.addBlock(main_fn);
    pb.append(head, makeInstr(Mnemonic::MOV));
    pb.endCall(head, out.worker);
    BlockId mid = pb.addBlock(main_fn);
    pb.append(mid, makeInstr(Mnemonic::LEA));
    pb.endSyscall(mid, out.handler);
    BlockId latch = pb.addBlock(main_fn);
    pb.append(latch, makeInstr(Mnemonic::CMP));
    pb.endCond(latch, Mnemonic::JNZ, head,
               pb.addBehavior(Behavior::loop(iterations)));
    BlockId done = pb.addBlock(main_fn);
    pb.append(done, makeInstr(Mnemonic::NOP));
    pb.endExit(done);

    pb.setEntry(main_fn);
    out.program = std::make_shared<Program>(pb.build());
    return out;
}

/** A fast, low-budget profiler for integration tests. */
inline Profiler
fastProfiler()
{
    return Profiler{};
}

} // namespace hbbp::testutil

#endif // HBBP_TESTS_HELPERS_HH
