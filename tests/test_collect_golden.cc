/**
 * @file
 * Golden collector bytes. One line per collection: the workload, a
 * config tag, the profile's payloadChecksum() in hex, its EBS and LBR
 * sample counts, its PMI count and its SIMD instruction count. Every
 * registered workload is collected with its default configuration,
 * and five of them also with kernel monitoring off, the LBR quirk off,
 * another seed pair and a finer period scale. A change to the engine,
 * the PMU or the collector that moves any collected byte fails here.
 * Regenerate with HBBP_UPDATE_GOLDEN=1 only for a deliberate,
 * documented change to what the collector records.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <string>

#include "tests/helpers.hh"

namespace hbbp {
namespace {

/** A named edit of a workload's default collector configuration. */
struct Variant
{
    const char *tag;
    void (*apply)(CollectorConfig &);
};

const Variant kVariants[] = {
    {"no_kernel", [](CollectorConfig &cc) { cc.pmu.monitor_kernel = false; }},
    {"no_quirk", [](CollectorConfig &cc) { cc.pmu.quirk.enabled = false; }},
    {"seed7", [](CollectorConfig &cc) {
         cc.seed = 7;
         cc.pmu.seed = 0x1234;
     }},
    {"scale10000", [](CollectorConfig &cc) { cc.period_scale = 10'000; }},
};

std::string
collectionLine(const std::string &name, const char *tag,
               const Workload &w, const CollectorConfig &cc)
{
    ProfileData pd = Collector::collect(*w.program, MachineConfig{}, cc);
    return format("%s %s %016" PRIx64 " %zu %zu %" PRIu64 " %" PRIu64 "\n",
                  name.c_str(), tag, pd.payloadChecksum(), pd.ebs.size(),
                  pd.lbr.size(), pd.pmi_count,
                  pd.features.simd_instructions);
}

TEST(CollectGolden, DefaultAndVariantCollections)
{
    std::string out;
    for (const std::string &name : workloadNames()) {
        Workload w = requireWorkloadByName(name);
        out += collectionLine(name, "default", w, collectorConfigFor(w));
    }
    for (const char *name : {"test40", "kernelbench", "403.gcc",
                             "fitter_sse", "429.mcf"}) {
        Workload w = requireWorkloadByName(name);
        for (const Variant &v : kVariants) {
            CollectorConfig cc = collectorConfigFor(w);
            v.apply(cc);
            out += collectionLine(name, v.tag, w, cc);
        }
    }
    testutil::checkGolden(std::string(HBBP_GOLDEN_DIR) + "/collect.golden",
                          out);
}

} // namespace
} // namespace hbbp
