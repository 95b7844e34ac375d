/**
 * @file
 * Golden estimator bits. For three programs, one line per map block:
 * its start address, then its EBS, LBR and fused (HBBP) estimates as
 * %a hex floats, from Analyzer().analyze on the workload's default
 * collection. A change that moves any bit of any estimate fails here:
 * a reordered float sum in the estimator, or a multiply-add the
 * compiler contracted under -march=native (the CI native-bits job runs
 * this label in such a build). Regenerate with HBBP_UPDATE_GOLDEN=1
 * only for a deliberate, documented change to the estimates.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <string>

#include "tests/helpers.hh"

namespace hbbp {
namespace {

std::string
estimateBits(const std::string &workload)
{
    Workload w = requireWorkloadByName(workload);
    ProfileData profile = Collector::collect(*w.program, MachineConfig{},
                                             collectorConfigFor(w));
    AnalysisResult res = Analyzer().analyze(*w.program, profile);
    std::string out;
    for (const MapBlock &b : res.map.blocks())
        out += format("%#" PRIx64 " %a %a %a\n", b.start,
                      res.estimates.ebs[b.index],
                      res.estimates.lbr[b.index], res.hbbp[b.index]);
    return out;
}

void
checkEstimateBits(const std::string &workload)
{
    testutil::checkGolden(
        std::string(HBBP_GOLDEN_DIR) + "/bbec_" + workload + ".golden",
        estimateBits(workload));
}

TEST(BbecGolden, Test40) { checkEstimateBits("test40"); }

TEST(BbecGolden, Kernelbench) { checkEstimateBits("kernelbench"); }

TEST(BbecGolden, Gcc403) { checkEstimateBits("403.gcc"); }

} // namespace
} // namespace hbbp
