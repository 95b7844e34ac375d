#include "workloads/fitter.hh"

#include <memory>

#include "support/logging.hh"
#include "workloads/genutil.hh"

namespace hbbp {

namespace {

constexpr const char *kKernelName = "fit_track";

MnemonicPalette
variantPalette(FitterVariant variant)
{
    switch (variant) {
      case FitterVariant::X87:
        return paletteX87();
      case FitterVariant::Sse:
        return paletteFpPackedSse();
      case FitterVariant::AvxBroken:
      case FitterVariant::AvxFix: {
        MnemonicPalette p = paletteFpPackedAvx();
        // All Fitter builds keep a small legacy x87 prologue component.
        p.mix(paletteX87(), 0.04);
        return p;
      }
      default:
        panic("variantPalette: bad variant %d", static_cast<int>(variant));
    }
}

/**
 * Terminate @p cur with a conditional branch to the next block (both
 * taken and fall-through paths land there) so the analyzer sees a block
 * boundary without changing execution counts.
 */
void
seal(ProgramBuilder &pb, BlockId cur, BlockId next, Rng &rng)
{
    BehaviorId bh = pb.addBehavior(
        Behavior::prob(0.3 + rng.nextDouble() * 0.4));
    pb.endCond(cur, drawCondBranch(rng), next, bh, next);
}

/** The variant's registry key (tools/registry.cc), used as w.name. */
const char *
workloadName(FitterVariant variant)
{
    switch (variant) {
      case FitterVariant::X87: return "fitter_x87";
      case FitterVariant::Sse: return "fitter_sse";
      case FitterVariant::AvxBroken: return "fitter_avx_broken";
      case FitterVariant::AvxFix: return "fitter_avx_fix";
      default:
        panic("workloadName: bad FitterVariant %d",
              static_cast<int>(variant));
    }
}

} // namespace

const char *
name(FitterVariant variant)
{
    switch (variant) {
      case FitterVariant::X87: return "x87";
      case FitterVariant::Sse: return "SSE";
      case FitterVariant::AvxBroken: return "AVX";
      case FitterVariant::AvxFix: return "AVX fix";
      default:
        panic("name: bad FitterVariant %d", static_cast<int>(variant));
    }
}

Workload
makeFitter(FitterVariant variant)
{
    // Per-variant layout pads, calibrated so the builds exhibit the
    // paper's observed quirk pattern: the SSE build's hot backedge hits
    // the LBR entry[0] bias, the x87 and AVX builds do not.
    switch (variant) {
      case FitterVariant::X87: return makeFitter(variant, 0);
      case FitterVariant::Sse: return makeFitter(variant, 33);
      case FitterVariant::AvxBroken: return makeFitter(variant, 2);
      case FitterVariant::AvxFix: return makeFitter(variant, 2);
      default:
        panic("makeFitter: bad variant %d", static_cast<int>(variant));
    }
}

Workload
makeFitter(FitterVariant variant, size_t pad)
{
    Rng rng(0xf177e4 + static_cast<uint64_t>(variant));
    MnemonicPalette palette = variantPalette(variant);
    MnemonicPalette helper_palette = paletteX87();

    ProgramBuilder pb;
    ModuleId mod = pb.addModule(
        format("fitter_%s.bin", name(variant)));

    // Cold init code whose size shifts the hot kernel's addresses (see
    // makeFitter(variant) for why).
    FuncId init_fn = pb.addFunction(mod, "init");
    BlockId init_blk = pb.addBlock(init_fn);
    for (size_t i = 0; i < 4 + pad; i++)
        pb.append(init_blk, makeInstr(Mnemonic::MOV));
    pb.endReturn(init_blk);

    // Scalar fallback helpers — only called by the broken AVX build,
    // where the compiler regression prevented inlining. Each helper
    // loops over the vector lanes calling a tiny per-element routine,
    // which is exactly how the un-inlined scalar fallback multiplies
    // CALL counts (Table 6: 6'150M calls vs 99M in the fixed build).
    std::vector<FuncId> helpers;
    if (variant == FitterVariant::AvxBroken) {
        for (int i = 0; i < 3; i++) {
            FuncId element = addLeafFunction(
                pb, mod, format("kf_element_%d", i), rng, helper_palette,
                4);
            FuncId helper =
                pb.addFunction(mod, format("kf_helper_%d", i));
            BlockId h_entry = pb.addBlock(helper);
            fillBlock(pb, h_entry, rng, helper_palette, 2);
            pb.endFallThrough(h_entry);
            BlockId h_loop = pb.addBlock(helper);
            fillBlock(pb, h_loop, rng, helper_palette, 2);
            pb.endCall(h_loop, element);
            BlockId h_latch = pb.addBlock(helper);
            pb.append(h_latch, makeInstr(Mnemonic::ADD));
            pb.endCond(h_latch, Mnemonic::JNZ, h_loop,
                       pb.addBehavior(Behavior::loop(3)));
            BlockId h_exit = pb.addBlock(helper);
            pb.append(h_exit, makeInstr(Mnemonic::FSTP));
            pb.endReturn(h_exit);
            helpers.push_back(helper);
        }
    }

    FuncId kernel = pb.addFunction(mod, kKernelName);

    // The hot kernel: 15 blocks in layout order whose per-track
    // execution counts reproduce the shape of Table 3:
    //   [1, 2, 1, 1, 7/6, 1, 1, 1/6, 1, 3.5, 1, 1/6, 1, 7/3, 3]
    //
    // Block lengths shrink with vector width: scalar x87 code needs the
    // most instructions per block, packed AVX the fewest — which is why
    // EBS boundary skid hits the AVX build hardest.
    const size_t kLensX87[15] = {9, 16, 11, 19, 12, 8, 14, 10, 17, 18,
                                 9, 12, 15, 20, 13};
    const size_t kLensSse[15] = {5, 9, 6, 12, 7, 4, 8, 6, 10, 11, 5, 7,
                                 9, 13, 8};
    const size_t kLensAvx[15] = {3, 5, 4, 6, 4, 3, 5, 4, 5, 6, 3, 4, 5,
                                 7, 4};
    const size_t *lens = variant == FitterVariant::X87 ? kLensX87
                         : variant == FitterVariant::Sse ? kLensSse
                                                         : kLensAvx;
    std::vector<BlockId> bb(15);
    for (auto &b : bb)
        b = pb.addBlock(kernel);
    // One kernel invocation processes a batch of 8 tracks (the code is
    // batched over vector lanes), so per-track CALL counts are low in
    // the healthy builds — the contrast that makes the broken build's
    // call explosion so visible in Table 6.
    BlockId batch_latch = pb.addBlock(kernel);
    BlockId epilogue = pb.addBlock(kernel);

    // The rarely-taken path (bb[7], bb[11]) is a scalar fallback with a
    // distinctly different mnemonic mix: boundary skid from the hot
    // neighbours inflates exactly these blocks under EBS.
    MnemonicPalette fallback;
    fallback.weights = {
        {Mnemonic::VCVTSI2SS, 5}, {Mnemonic::VMOVD, 5},
        {Mnemonic::FLD, 4},       {Mnemonic::FSTP, 3},
        {Mnemonic::FDIV, 1},      {Mnemonic::MOV, 6},
        {Mnemonic::CDQ, 2},
    };
    auto fill = [&](size_t i) {
        const MnemonicPalette &src =
            (i == 7 || i == 11) ? fallback : palette;
        fillBlock(pb, bb[i], rng, src, lens[i]);
    };
    auto call_or_seal = [&](size_t i) {
        // The broken build calls a scalar helper where the fixed builds
        // have straight-line (inlined) code.
        if (!helpers.empty())
            pb.endCall(bb[i], helpers[i % helpers.size()]);
        else
            seal(pb, bb[i], bb[i + 1], rng);
    };

    fill(0);
    seal(pb, bb[0], bb[1], rng);

    fill(1); // 2x: self loop of two iterations
    pb.endCond(bb[1], Mnemonic::JNZ, bb[1],
               pb.addBehavior(Behavior::loop(2)));

    fill(2); // 1x
    call_or_seal(2);

    fill(3); // 1x
    seal(pb, bb[3], bb[4], rng);

    fill(4); // 7/6: trips cycle 2,1,1,1,1,1
    pb.endCond(bb[4], Mnemonic::JNBE, bb[4],
               pb.addBehavior(Behavior::patternOf(
                   {true, false, false, false, false, false})));

    fill(5); // 1x
    call_or_seal(5);

    fill(6); // 1x; skips bb[7] five times out of six
    pb.endCond(bb[6], Mnemonic::JLE, bb[8],
               pb.addBehavior(Behavior::prob(5.0 / 6.0)));

    fill(7); // 1/6
    pb.endFallThrough(bb[7]);

    fill(8); // 1x
    call_or_seal(8);

    fill(9); // 3.5x: trips cycle 3,4
    pb.endCond(bb[9], Mnemonic::JNZ, bb[9],
               pb.addBehavior(Behavior::patternOf(
                   {true, true, false, true, true, true, false})));

    fill(10); // 1x; skips bb[11] five times out of six
    pb.endCond(bb[10], Mnemonic::JB, bb[12],
               pb.addBehavior(Behavior::prob(5.0 / 6.0)));

    fill(11); // 1/6
    pb.endFallThrough(bb[11]);

    fill(12); // 1x
    call_or_seal(12);

    fill(13); // 7/3: trips cycle 2,2,3
    pb.endCond(bb[13], Mnemonic::JNLE, bb[13],
               pb.addBehavior(Behavior::patternOf(
                   {true, false, true, false, true, true, false})));

    fill(14); // 3x: fixed three iterations
    pb.endCond(bb[14], Mnemonic::JNZ, bb[14],
               pb.addBehavior(Behavior::loop(3)));

    pb.append(batch_latch, makeInstr(Mnemonic::ADD));
    pb.append(batch_latch, makeInstr(Mnemonic::CMP));
    pb.endCond(batch_latch, Mnemonic::JNZ, bb[0],
               pb.addBehavior(Behavior::loop(8)));

    fillBlock(pb, epilogue, rng, palette, 3);
    pb.endReturn(epilogue);

    // Track-processing main loop.
    FuncId main_fn = pb.addFunction(mod, "main");
    BlockId entry = pb.addBlock(main_fn);
    fillBlock(pb, entry, rng, palette, 4);
    pb.endFallThrough(entry);
    BlockId head = pb.addBlock(main_fn);
    fillBlock(pb, head, rng, paletteIntMemory(), 3);
    pb.endCall(head, kernel);
    BlockId latch = pb.addBlock(main_fn);
    fillBlock(pb, latch, rng, paletteIntMemory(), 2);
    pb.endCond(latch, Mnemonic::JNZ, head,
               pb.addBehavior(Behavior::loop(1'000'000'000ULL)));
    BlockId done = pb.addBlock(main_fn);
    pb.append(done, makeInstr(Mnemonic::XOR));
    pb.endExit(done);
    pb.setEntry(main_fn);

    Workload w;
    w.name = workloadName(variant);
    w.program = std::make_shared<Program>(pb.build());
    w.runtime_class = RuntimeClass::Seconds;
    w.max_instructions = 5'000'000;
    w.exec_seed = 0x517 + static_cast<uint64_t>(variant);
    w.paper_clean_seconds = 12.0;
    return w;
}

std::vector<uint64_t>
fitterKernelBlockAddrs(const Program &prog)
{
    for (const Function &fn : prog.functions()) {
        if (fn.name != kKernelName)
            continue;
        std::vector<uint64_t> addrs;
        for (size_t i = 0; i < fn.blocks.size() && i < 15; i++)
            addrs.push_back(prog.block(fn.blocks[i]).start);
        return addrs;
    }
    fatal("fitterKernelBlockAddrs: no '%s' function found", kKernelName);
}

uint64_t
fitterTrackCount(const Program &prog,
                 const std::vector<uint64_t> &bbec_by_block)
{
    for (const Function &fn : prog.functions()) {
        if (fn.name == kKernelName)
            return bbec_by_block[fn.entry];
    }
    fatal("fitterTrackCount: no '%s' function found", kKernelName);
}

} // namespace hbbp
