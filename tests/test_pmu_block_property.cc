/**
 * @file
 * The block-granular PMU against the per-instruction reference
 * (tests/pmu_reference.hh): both observe the same run, and their EBS
 * samples, LBR samples and PMI counts must be equal. The configs hit
 * every case in which the PMU has to decline a whole block and retire
 * it one instruction at a time: EBS periods of 1–3 and shorter than a
 * block, an LBR period of 1, no LBR PMI delay, a fixed and a zero
 * skid, LBR depths 1, 4 and 16, every branch sticky, and kernel
 * monitoring on and off; seeded configs mix them. The programs are
 * test40, kernelbench, fitter_sse (whose long-latency stalls put due
 * PMIs in the middle of a block) and a hand-built program that enters
 * the kernel on every iteration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "tests/helpers.hh"
#include "tests/pmu_reference.hh"

namespace hbbp {
namespace {

/** Instructions each run retires: enough for hundreds of PMIs. */
constexpr uint64_t kBudget = 150'000;

struct NamedConfig
{
    std::string name;
    PmuConfig config;
};

/** The collector's periods at the default scale, then one edit. */
NamedConfig
edited(const std::string &name, void (*edit)(PmuConfig &))
{
    PmuConfig c;
    c.ebs_period = 997;
    c.lbr_period = 97;
    edit(c);
    return {name, c};
}

std::vector<NamedConfig>
edgeConfigs()
{
    return {
        edited("collector periods", [](PmuConfig &) {}),
        edited("ebs_period 1", [](PmuConfig &c) { c.ebs_period = 1; }),
        edited("ebs_period 2", [](PmuConfig &c) { c.ebs_period = 2; }),
        edited("ebs_period 3", [](PmuConfig &c) { c.ebs_period = 3; }),
        edited("ebs_period 5", [](PmuConfig &c) { c.ebs_period = 5; }),
        edited("lbr_period 1, lbr_depth 16",
               [](PmuConfig &c) { c.lbr_period = 1; }),
        edited("no LBR PMI delay",
               [](PmuConfig &c) { c.lbr_pmi_delay_cycles = 0; }),
        edited("skid fixed at 3", [](PmuConfig &c) {
            c.precise_skid_min_cycles = 3;
            c.precise_skid_max_cycles = 3;
        }),
        edited("skid 0", [](PmuConfig &c) {
            c.precise_skid_min_cycles = 0;
            c.precise_skid_max_cycles = 0;
        }),
        edited("lbr_depth 1", [](PmuConfig &c) { c.lbr_depth = 1; }),
        edited("lbr_depth 4", [](PmuConfig &c) { c.lbr_depth = 4; }),
        edited("every branch sticky",
               [](PmuConfig &c) { c.quirk.sticky_hash_mod = 1; }),
        edited("kernel not monitored",
               [](PmuConfig &c) { c.monitor_kernel = false; }),
        edited("all at once", [](PmuConfig &c) {
            c.ebs_period = 2;
            c.lbr_period = 1;
            c.lbr_pmi_delay_cycles = 0;
            c.precise_skid_min_cycles = 0;
            c.precise_skid_max_cycles = 0;
            c.lbr_depth = 4;
            c.quirk.sticky_hash_mod = 1;
            c.monitor_kernel = false;
        }),
    };
}

template <typename T>
T
pick(Rng &rng, std::initializer_list<T> values)
{
    return values.begin()[rng.nextBelow(values.size())];
}

/** Configs drawn from the edge values above, by seed. */
std::vector<NamedConfig>
seededConfigs()
{
    std::vector<NamedConfig> out;
    for (uint64_t seed = 1; seed <= 8; seed++) {
        Rng rng(seed);
        PmuConfig c;
        c.ebs_period = pick<uint64_t>(rng, {1, 2, 3, 5, 8, 13, 997});
        c.lbr_period = pick<uint64_t>(rng, {1, 2, 3, 97});
        c.lbr_pmi_delay_cycles = pick<uint32_t>(rng, {0, 1, 2, 7});
        c.precise_skid_min_cycles = pick<uint32_t>(rng, {0, 1, 3});
        c.precise_skid_max_cycles =
            c.precise_skid_min_cycles + pick<uint32_t>(rng, {0, 1, 3, 20});
        c.lbr_depth = pick<uint32_t>(rng, {1, 4, 16});
        c.quirk.enabled = rng.chance(0.8);
        c.quirk.sticky_hash_mod = pick<uint32_t>(rng, {1, 2, 47});
        c.quirk.sticky_persist_prob = pick<double>(rng, {0.5, 0.95, 1.0});
        c.quirk.sticky_max_persist = pick<uint32_t>(rng, {1, 5, 150});
        c.monitor_kernel = rng.chance(0.5);
        c.seed = rng.next();
        out.push_back({"seed " + std::to_string(seed), c});
    }
    return out;
}

/** Index of the first element where @p a and @p b differ, or -1. */
template <typename T>
long
firstMismatch(const std::vector<T> &a, const std::vector<T> &b)
{
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; i++)
        if (!(a[i] == b[i]))
            return static_cast<long>(i);
    return a.size() == b.size() ? -1 : static_cast<long>(n);
}

void
expectSameCollections(const Program &prog, uint64_t exec_seed)
{
    std::vector<NamedConfig> configs = edgeConfigs();
    for (NamedConfig &c : seededConfigs())
        configs.push_back(std::move(c));

    for (const NamedConfig &c : configs) {
        SCOPED_TRACE(c.name);
        DualCollectionPmu pmu(c.config);
        reference::DualCollectionPmu ref(c.config);
        ExecutionEngine engine(prog, MachineConfig{}, exec_seed);
        engine.addObserver(&pmu);
        engine.addObserver(&ref);
        engine.run(kBudget);

        ASSERT_GT(ref.pmiCount(), 0u);
        EXPECT_EQ(pmu.pmiCount(), ref.pmiCount());
        EXPECT_EQ(pmu.ebsSamples().size(), ref.ebsSamples().size());
        EXPECT_EQ(firstMismatch(pmu.ebsSamples(), ref.ebsSamples()), -1)
            << "first differing EBS sample";
        EXPECT_EQ(pmu.lbrSamples().size(), ref.lbrSamples().size());
        EXPECT_EQ(firstMismatch(pmu.lbrSamples(), ref.lbrSamples()), -1)
            << "first differing LBR sample";
    }
}

void
expectSameCollections(const std::string &workload)
{
    Workload w = requireWorkloadByName(workload);
    expectSameCollections(*w.program, w.exec_seed);
}

TEST(PmuBlockProperty, Test40) { expectSameCollections("test40"); }

TEST(PmuBlockProperty, Kernelbench) { expectSameCollections("kernelbench"); }

TEST(PmuBlockProperty, FitterSse) { expectSameCollections("fitter_sse"); }

TEST(PmuBlockProperty, KernelProgram)
{
    auto kp = testutil::makeKernelProgram(20'000);
    expectSameCollections(*kp.program, 1);
}

} // namespace
} // namespace hbbp
