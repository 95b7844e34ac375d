/**
 * @file
 * The memoized BBEC estimator against the per-stream reference
 * (tests/bbec_reference.hh): every BbecEstimates field must equal the
 * reference's bit for bit. Inputs are the default collections of four
 * workloads, the stale and patched kernel maps, and seeded synthetic
 * profiles on a hand-built map mixing valid streams, mid-block targets,
 * sources before their targets, addresses outside every module, stack
 * depths 0, 1, 2 and 32, and (target, source) pairs that recur early
 * and late in one profile.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "tests/bbec_reference.hh"
#include "tests/helpers.hh"

namespace hbbp {
namespace {

void
expectSameDoubles(const std::vector<double> &got,
                  const std::vector<double> &want, const char *field,
                  const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what << ": " << field;
    for (size_t i = 0; i < got.size(); i++)
        ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                  std::bit_cast<uint64_t>(want[i]))
            << what << ": " << field << "[" << i << "] = " << got[i]
            << ", reference " << want[i];
}

/** Every field of @p got equals the reference estimate, bit for bit. */
void
expectSameBits(const BlockMap &map, const ProfileData &profile,
               const BbecOptions &opts, const std::string &what)
{
    BbecEstimates got = BbecEstimator(opts).estimate(map, profile);
    BbecEstimates want =
        reference::BbecEstimator(opts).estimate(map, profile);

    expectSameDoubles(got.ebs, want.ebs, "ebs", what);
    expectSameDoubles(got.lbr, want.lbr, "lbr", what);
    expectSameDoubles(got.lbr_weight, want.lbr_weight, "lbr_weight", what);
    EXPECT_EQ(got.ebs_samples, want.ebs_samples) << what;
    EXPECT_EQ(got.bias, want.bias) << what;
    EXPECT_EQ(got.lbr_streams_total, want.lbr_streams_total) << what;
    EXPECT_EQ(got.lbr_streams_discarded, want.lbr_streams_discarded)
        << what;
    EXPECT_EQ(got.ebs_samples_unmapped, want.ebs_samples_unmapped) << what;

    std::sort(want.biased_branches.begin(), want.biased_branches.end(),
              [](const BiasedBranch &a, const BiasedBranch &b) {
                  return a.source < b.source;
              });
    ASSERT_EQ(got.biased_branches.size(), want.biased_branches.size())
        << what;
    for (size_t i = 0; i < got.biased_branches.size(); i++) {
        const BiasedBranch &g = got.biased_branches[i];
        const BiasedBranch &w = want.biased_branches[i];
        EXPECT_EQ(g.source, w.source) << what << ": biased branch " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(g.entry0_freq),
                  std::bit_cast<uint64_t>(w.entry0_freq))
            << what << ": biased branch " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(g.overall_freq),
                  std::bit_cast<uint64_t>(w.overall_freq))
            << what << ": biased branch " << i;
    }
}

TEST(BbecMemoProperty, MatchesReferenceOnDefaultCollections)
{
    for (const char *name : {"test40", "kernelbench", "403.gcc",
                             "fitter_sse"}) {
        Workload w = requireWorkloadByName(name);
        CollectorConfig cc = collectorConfigFor(w);
        ASSERT_TRUE(cc.pmu.quirk.enabled);
        ProfileData profile =
            Collector::collect(*w.program, MachineConfig{}, cc);
        BlockMap map(*w.program);
        expectSameBits(map, profile, BbecOptions{}, name);
    }
}

TEST(BbecMemoProperty, MatchesReferenceOnStaleAndPatchedKernelMaps)
{
    auto kp = testutil::makeKernelProgram(300'000,
                                          /*with_tracepoint=*/true);
    CollectorConfig cc;
    cc.runtime_class = RuntimeClass::Seconds;
    cc.max_instructions = 3'000'000;
    cc.pmu.quirk.enabled = false;
    ProfileData profile = Collector::collect(*kp.program, MachineConfig{},
                                             cc);

    BlockMap stale(*kp.program, {.patch_kernel_text = false});
    BlockMap fixed(*kp.program, {.patch_kernel_text = true});
    expectSameBits(stale, profile, BbecOptions{}, "stale kernel map");
    expectSameBits(fixed, profile, BbecOptions{}, "patched kernel map");
    EXPECT_GT(BbecEstimator().estimate(stale, profile).lbr_streams_discarded,
              0u);
}

/**
 * A two-module program whose blocks end in every way the stream walker
 * tells apart: fall-through, conditional branch, always-taken JMP,
 * call, syscall, return and SYSRET.
 */
std::shared_ptr<Program>
makeWalkerProgram()
{
    ProgramBuilder pb;
    ModuleId user = pb.addModule("walker.bin");
    ModuleId kern = pb.addModule("walker.ko", Ring::Kernel);

    FuncId helper = pb.addFunction(user, "helper");
    BlockId hb = pb.addBlock(helper);
    pb.append(hb, makeInstr(Mnemonic::ADD));
    pb.append(hb, makeInstr(Mnemonic::IMUL));
    pb.endReturn(hb);

    FuncId handler = pb.addFunction(kern, "handler");
    BlockId kb = pb.addBlock(handler);
    pb.append(kb, makeInstr(Mnemonic::MOV));
    pb.append(kb, makeInstr(Mnemonic::AND));
    pb.endReturn(kb, Mnemonic::SYSRET);

    FuncId main_fn = pb.addFunction(user, "main");
    BlockId b0 = pb.addBlock(main_fn);
    BlockId b1 = pb.addBlock(main_fn);
    BlockId b2 = pb.addBlock(main_fn);
    BlockId b3 = pb.addBlock(main_fn);
    BlockId b4 = pb.addBlock(main_fn);
    BlockId b5 = pb.addBlock(main_fn);
    BlockId b6 = pb.addBlock(main_fn);
    BlockId b7 = pb.addBlock(main_fn);
    pb.append(b0, makeInstr(Mnemonic::MOV));
    pb.append(b0, makeInstr(Mnemonic::XOR));
    pb.endFallThrough(b0);
    pb.append(b1, makeInstr(Mnemonic::CMP));
    pb.endCond(b1, Mnemonic::JZ, b3, pb.addBehavior(Behavior::prob(0.5)));
    pb.append(b2, makeInstr(Mnemonic::SUB));
    pb.append(b2, makeInstr(Mnemonic::SUB));
    pb.endJump(b2, b4);
    pb.append(b3, makeInstr(Mnemonic::LEA));
    pb.endCall(b3, helper);
    pb.append(b4, makeInstr(Mnemonic::TEST));
    pb.endFallThrough(b4);
    pb.append(b5, makeInstr(Mnemonic::ADD));
    pb.endSyscall(b5, handler);
    pb.append(b6, makeInstr(Mnemonic::CMP));
    pb.endCond(b6, Mnemonic::JNZ, b1, pb.addBehavior(Behavior::loop(10)));
    pb.append(b7, makeInstr(Mnemonic::NOP));
    pb.endExit(b7);
    pb.setEntry(main_fn);
    return std::make_shared<Program>(pb.build());
}

/** Address pools drawn from a block map. */
struct Addresses
{
    std::vector<uint64_t> leaders;   ///< Block starts: valid targets.
    std::vector<uint64_t> mid_block; ///< Non-leader instructions.
    std::vector<uint64_t> outside;   ///< In no block, mostly no module.
};

Addresses
addressesOf(const BlockMap &map)
{
    Addresses a;
    for (const MapBlock &b : map.blocks()) {
        a.leaders.push_back(b.start);
        for (size_t i = 1; i < b.instrs.size(); i++)
            a.mid_block.push_back(b.instrs[i].addr);
    }
    const MapBlock &last = map.blocks().back();
    a.outside = {0, 0x10, map.blocks().front().start - 1, last.end(),
                 last.end() + 0x1000, 0xffff'ffff'ffff'fff0ULL};
    return a;
}

uint64_t
pick(Rng &rng, const std::vector<uint64_t> &pool)
{
    return pool[rng.nextBelow(pool.size())];
}

/**
 * A source for a stream from target @p t: mostly the last instruction
 * of t's block or one a few blocks on (valid unless an always-taken
 * transfer or a gap lies between), otherwise a mid-block instruction,
 * an address before @p t, or one in no block.
 */
uint64_t
pickSource(Rng &rng, const BlockMap &map, const Addresses &a, uint64_t t)
{
    uint32_t bi = map.blockAt(t);
    uint64_t kind = rng.nextBelow(10);
    if (bi != BlockMap::npos && kind < 6) {
        uint32_t last = static_cast<uint32_t>(map.blocks().size() - 1);
        bi = std::min<uint32_t>(
            last, bi + static_cast<uint32_t>(rng.nextBelow(4)));
        return map.block(bi).instrs.back().addr;
    }
    if (kind < 8)
        return pick(rng, a.mid_block);
    if (kind < 9)
        return t > 0 ? t - 1 - rng.nextBelow(std::min<uint64_t>(t, 64)) : 0;
    return pick(rng, a.outside);
}

uint64_t
pickTarget(Rng &rng, const Addresses &a)
{
    uint64_t kind = rng.nextBelow(10);
    if (kind < 6)
        return pick(rng, a.leaders);
    if (kind < 9)
        return pick(rng, a.mid_block);
    return pick(rng, a.outside);
}

ProfileData
syntheticProfile(uint64_t seed, const BlockMap &map, const Addresses &a)
{
    Rng rng(seed);
    ProfileData pd;
    pd.sim_periods.ebs = 1 + rng.nextBelow(100'000);
    pd.sim_periods.lbr = 1 + rng.nextBelow(100'000);

    const size_t n_ebs = rng.nextBelow(200);
    for (size_t i = 0; i < n_ebs; i++) {
        EbsSample s;
        s.ip = rng.chance(0.1) ? pick(rng, a.outside)
                               : rng.chance(0.5) ? pick(rng, a.leaders)
                                                 : pick(rng, a.mid_block);
        pd.ebs.push_back(s);
    }

    // One sticky source recurs at entry[0] so bias detection fires on
    // some profiles; recorded pairs recur later in the profile.
    const uint64_t sticky = map.block(static_cast<uint32_t>(
        rng.nextBelow(map.blocks().size()))).instrs.back().addr;
    const double sticky_share = rng.nextDouble() * 0.5;
    std::vector<LbrEntry> seen; // (source, target) pairs as stream halves
    const size_t n_lbr = 20 + rng.nextBelow(200);
    for (size_t k = 0; k < n_lbr; k++) {
        static constexpr size_t kDepths[] = {0, 1, 2, 32};
        size_t depth = rng.chance(0.4) ? kDepths[rng.nextBelow(4)]
                                       : 3 + rng.nextBelow(14);
        LbrStackSample sample;
        sample.entries.resize(depth);
        for (size_t i = 0; i < depth; i++) {
            // entries[i].target opens the stream that entries[i + 1]
            // closes; either replay a recorded pair or make a new one.
            LbrEntry &e = sample.entries[i];
            if (i + 1 < depth && !seen.empty() && rng.chance(0.3)) {
                const LbrEntry &old = seen[rng.nextBelow(seen.size())];
                e.target = old.target;
                sample.entries[i + 1].source = old.source;
                continue;
            }
            e.target = pickTarget(rng, a);
            if (i + 1 < depth) {
                uint64_t s = pickSource(rng, map, a, e.target);
                sample.entries[i + 1].source = s;
                seen.push_back({s, e.target});
            }
        }
        if (depth > 0) {
            uint64_t s = pickSource(rng, map, a, pick(rng, a.leaders));
            sample.entries[0].source = rng.chance(sticky_share) ? sticky : s;
        }
        pd.lbr.push_back(std::move(sample));
    }
    // The first multi-entry stack again, last: its pairs recur at both
    // ends of the profile.
    for (const LbrStackSample &s : pd.lbr) {
        if (s.entries.size() >= 2) {
            pd.lbr.push_back(s);
            break;
        }
    }
    return pd;
}

/** Options varied so bias detection, the walk cap and renormalization
 *  all take both branches across seeds. */
BbecOptions
syntheticOptions(uint64_t seed)
{
    Rng rng(seed ^ 0x0b1a5ULL);
    BbecOptions o;
    static constexpr double kMinFreq[] = {0.06, 0.01, 0.0};
    static constexpr double kRatio[] = {2.0, 1.0, 0.5};
    o.bias_min_freq = kMinFreq[rng.nextBelow(3)];
    o.bias_ratio = kRatio[rng.nextBelow(3)];
    o.biased_credit_frac = rng.nextDouble();
    static constexpr uint32_t kMaxWalk[] = {4096, 1, 2, 3};
    o.max_walk_blocks = kMaxWalk[rng.nextBelow(4)];
    o.renormalize_discards = rng.chance(0.5);
    return o;
}

TEST(BbecMemoProperty, MatchesReferenceOnSyntheticProfiles)
{
    std::shared_ptr<Program> prog = makeWalkerProgram();
    BlockMap map(*prog);
    Addresses a = addressesOf(map);
    ASSERT_GE(map.blocks().size(), 8u);
    ASSERT_FALSE(a.mid_block.empty());

    uint64_t streams = 0, discarded = 0, with_bias = 0;
    for (uint64_t seed = 1; seed <= 240; seed++) {
        ProfileData profile = syntheticProfile(seed, map, a);
        BbecOptions opts = syntheticOptions(seed);
        expectSameBits(map, profile, opts,
                       "synthetic seed " + std::to_string(seed));
        if (HasFailure())
            return;
        BbecEstimates est = BbecEstimator(opts).estimate(map, profile);
        streams += est.lbr_streams_total;
        discarded += est.lbr_streams_discarded;
        with_bias += est.biased_branches.empty() ? 0 : 1;
    }
    // The mix really exercised both outcomes and the bias path.
    EXPECT_GT(discarded, 0u);
    EXPECT_LT(discarded, streams);
    EXPECT_GT(with_bias, 0u);
}

} // namespace
} // namespace hbbp
