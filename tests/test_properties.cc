/**
 * @file
 * Property-based tests over randomly parameterized synthetic programs:
 * structural invariants of the builder/disassembler pipeline and
 * statistical invariants of the estimators, swept across seeds.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/analyzer.hh"
#include "tests/helpers.hh"

namespace hbbp {
namespace {

/** A randomized app spec derived from a seed. */
SyntheticAppSpec
randomSpec(uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    SyntheticAppSpec spec;
    spec.name = format("fuzz_%llu", static_cast<unsigned long long>(seed));
    spec.seed = seed;
    switch (rng.nextBelow(5)) {
      case 0: spec.palette = paletteIntBranchy(); break;
      case 1: spec.palette = paletteObjectOriented(); break;
      case 2: spec.palette = paletteFpScalarSse(); break;
      case 3: spec.palette = paletteFpPackedAvx(); break;
      default: spec.palette = paletteIntMemory(); break;
    }
    spec.num_workers = 2 + rng.nextBelow(8);
    spec.num_leaves = rng.nextBelow(5);
    spec.segments_per_worker = 1 + rng.nextBelow(7);
    spec.mean_block_len = 2.0 + rng.nextDouble() * 35.0;
    spec.sd_block_len = spec.mean_block_len / 3.0;
    spec.diamond_prob = rng.nextDouble() * 0.5;
    spec.call_prob = spec.num_leaves ? rng.nextDouble() * 0.3 : 0.0;
    spec.inner_loop_prob = rng.nextDouble() * 0.5;
    spec.mean_inner_trip = 2.0 + rng.nextDouble() * 30.0;
    spec.mean_outer_trip = 2.0 + rng.nextDouble() * 60.0;
    spec.indirect_dispatch = rng.chance(0.5);
    spec.max_instructions = 400'000;
    spec.runtime_class = RuntimeClass::Seconds;
    return spec;
}

class FuzzedPrograms : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzedPrograms, StructuralInvariants)
{
    Workload w = makeSyntheticApp(randomSpec(GetParam()));
    const Program &p = *w.program;

    // Blocks are contiguous, non-empty, with consistent byte sizes.
    for (const Function &fn : p.functions()) {
        uint64_t cursor = fn.start;
        for (BlockId bid : fn.blocks) {
            const BasicBlock &blk = p.block(bid);
            EXPECT_EQ(blk.start, cursor);
            EXPECT_FALSE(blk.instrs.empty());
            cursor = blk.end();
        }
    }

    // Every direct branch targets a block start within its function.
    for (const BasicBlock &blk : p.blocks()) {
        const Instruction *ctrl = blk.controlInstr();
        if (!ctrl || !ctrl->info().hasDisplacement())
            continue;
        BlockId tgt = p.blockAt(ctrl->target());
        ASSERT_NE(tgt, kNoBlock);
        EXPECT_EQ(p.block(tgt).start, ctrl->target());
    }

    // Decoding the emitted text reproduces the instruction stream.
    const Module &mod = p.modules()[0];
    std::vector<Instruction> decoded = decodeAll(mod.live_text, mod.base);
    size_t static_count = 0;
    for (const BasicBlock &blk : p.blocks())
        static_count += blk.instrs.size();
    EXPECT_EQ(decoded.size(), static_count);
}

TEST_P(FuzzedPrograms, MapMatchesExecutionAndStreamsWalk)
{
    Workload w = makeSyntheticApp(randomSpec(GetParam()));
    w.exec_seed = GetParam() + 17;

    // Collect with the quirk disabled: every LBR stream must then walk
    // cleanly on the analyzer's map and both estimators must land near
    // the truth for hot blocks.
    CollectorConfig cc;
    cc.runtime_class = w.runtime_class;
    cc.max_instructions = w.max_instructions;
    cc.seed = w.exec_seed;
    cc.pmu.quirk.enabled = false;
    ProfileData pd = Collector::collect(*w.program, MachineConfig{}, cc);

    BlockMap map(*w.program);
    BbecEstimates est = BbecEstimator().estimate(map, pd);
    EXPECT_EQ(est.lbr_streams_discarded, 0u)
        << "clean LBR streams must all validate";
    EXPECT_EQ(est.ebs_samples_unmapped, 0u);

    ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
    engine.run(w.max_instructions);
    Instrumenter instr(engine, true);
    std::vector<double> truth = trueMapBbec(map, instr.bbecByAddr());

    // Aggregate instruction totals from both estimators are close to
    // the executed total.
    double total_truth = 0, total_ebs = 0, total_lbr = 0;
    for (uint32_t i = 0; i < map.blocks().size(); i++) {
        double len = static_cast<double>(map.block(i).size());
        total_truth += truth[i] * len;
        total_ebs += est.ebs[i] * len;
        total_lbr += est.lbr[i] * len;
    }
    ASSERT_GT(total_truth, 0);
    EXPECT_NEAR(total_ebs / total_truth, 1.0, 0.08);
    EXPECT_NEAR(total_lbr / total_truth, 1.0, 0.08);

    // Very hot blocks (>5% of volume) estimate within 45% per block.
    // The bound is loose because pathological loop trip counts can
    // phase-align with the (prime) sampling period at simulation scale
    // — the residual resonance the paper's prime periods minimize but
    // cannot fully eliminate.
    for (uint32_t i = 0; i < map.blocks().size(); i++) {
        double volume =
            truth[i] * static_cast<double>(map.block(i).size());
        if (volume < 0.05 * total_truth)
            continue;
        EXPECT_LT(blockError(truth[i], est.lbr[i]), 0.45)
            << "block " << hexAddr(map.block(i).start);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzedPrograms,
                         ::testing::Range<uint64_t>(1, 21));

/** A randomized ProfileData exercising every field of the format. */
ProfileData
randomProfile(uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
    ProfileData pd;
    pd.runtime_class = static_cast<RuntimeClass>(rng.nextBelow(3));
    pd.paper_periods = paperPeriods(pd.runtime_class);
    pd.sim_periods = scaledPeriods(pd.runtime_class,
                                   1000 + rng.nextBelow(1'000'000));
    pd.features = {rng.next() >> 20, rng.next() >> 20, rng.next() >> 30,
                   rng.next() >> 30, rng.next() >> 34};
    pd.pmi_count = rng.nextBelow(100'000);

    size_t n_mmaps = rng.nextBelow(5);
    for (size_t i = 0; i < n_mmaps; i++) {
        MmapRecord m;
        m.name = format("mod_%zu.bin", i);
        m.base = rng.next() & 0x7fffffffff000ULL;
        m.size = 0x1000 + rng.nextBelow(1 << 20);
        m.kernel = rng.chance(0.3);
        pd.mmaps.push_back(std::move(m));
    }
    size_t n_ebs = rng.nextBelow(200);
    for (size_t i = 0; i < n_ebs; i++) {
        EbsSample s;
        s.ip = rng.next();
        s.cycle = rng.next() >> 10;
        s.ring = rng.chance(0.2) ? Ring::Kernel : Ring::User;
        pd.ebs.push_back(s);
    }
    size_t n_lbr = rng.nextBelow(100);
    for (size_t i = 0; i < n_lbr; i++) {
        LbrStackSample s;
        size_t depth = rng.nextBelow(17);
        for (size_t j = 0; j < depth; j++)
            s.entries.push_back({rng.next(), rng.next()});
        s.cycle = rng.next() >> 10;
        s.ring = rng.chance(0.2) ? Ring::Kernel : Ring::User;
        s.eventing_ip = rng.next();
        pd.lbr.push_back(std::move(s));
    }
    return pd;
}

/**
 * Serialization property: any profile — including empty sample lists,
 * kernel rings and maximal-depth LBR stacks — survives save/load
 * exactly. Guards the fleet store and merge paths, which round-trip
 * profiles constantly.
 */
TEST(ProfileRoundTrip, RandomizedProfilesSurviveSaveLoad)
{
    for (uint64_t seed = 1; seed <= 25; seed++) {
        ProfileData pd = randomProfile(seed);
        std::string path =
            ::testing::TempDir() +
            format("/prop_profile_%llu.hbbp",
                   static_cast<unsigned long long>(seed));
        pd.save(path);
        ProfileData loaded = ProfileData::load(path);
        EXPECT_EQ(loaded, pd) << "seed " << seed;
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace hbbp
