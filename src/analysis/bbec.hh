/**
 * @file
 * Basic block execution count estimation from PMU samples.
 *
 * Implements the two base methods of Section III and their paper-exact
 * scaling:
 *
 *  - EBS: every eventing-IP sample is applied to all instructions of the
 *    enclosing basic block; the block estimate is
 *    samples * period / block_length (the paper's enhancement of
 *    classic EBS);
 *  - LBR: every stack of N entries yields N-1 <Target[i-1], Source[i]>
 *    streams, each crediting all blocks on the straight-line path with
 *    weight 1/(N-1); the block estimate is weighted_streams * period.
 *
 * The stream walker validates that no architecturally always-taken
 * control transfer lies strictly inside a stream — invalid streams are
 * discarded. This is what makes the kernel self-modifying-code anomaly
 * (Section III.C) visible: the static kernel image contains tracepoint
 * JMPs that live execution ignores, so streams walked on the static map
 * are rejected.
 *
 * Bias detection follows Section III.C: a branch whose frequency at
 * entry[0] is disproportionate relative to its overall LBR presence
 * marks the blocks whose evidence depends on it as bias-suspect. The
 * detected branches are listed in ascending source address.
 *
 * Credit order. A profile repeats tens to hundreds of distinct
 * <target, source> pairs over ~100k streams, so the estimator walks
 * each distinct pair once and records its blocks (or that the walk was
 * discarded). It still credits every stream on its own, in profile
 * order, with its own sample's 1/(N-1) weight: the float additions are
 * exactly those of one walk per stream, so the estimates keep their
 * bits. Summing a pair's weights and crediting once would reorder
 * those additions and move low bits of every LBR estimate, which is a
 * deliberate change needing its own golden regeneration
 * (tests/golden/bbec_*.golden pins the bits).
 */

#ifndef HBBP_ANALYSIS_BBEC_HH
#define HBBP_ANALYSIS_BBEC_HH

#include <cstdint>
#include <vector>

#include "collect/profile.hh"
#include "program/blockmap.hh"

namespace hbbp {

/** Tuning knobs for estimation and bias detection. */
struct BbecOptions
{
    /** Minimum entry[0] frequency before a branch can be biased. */
    double bias_min_freq = 0.06;
    /** entry[0] frequency must exceed ratio * overall slot frequency. */
    double bias_ratio = 2.0;
    /** Fraction of a block's LBR credit from biased samples to flag it. */
    double biased_credit_frac = 0.30;
    /** Safety cap on blocks walked per stream. */
    uint32_t max_walk_blocks = 4096;
    /**
     * Scale LBR estimates by 1/(1 - discarded stream fraction): the
     * analyzer knows how many streams it rejected, so the systematic
     * undercount can be corrected globally, leaving only the local
     * distortion near the anomalous branches.
     */
    bool renormalize_discards = true;
};

/** A detected biased branch (diagnostics). */
struct BiasedBranch
{
    uint64_t source = 0;      ///< Branch source address.
    double entry0_freq = 0.0; ///< Fraction of samples with it at [0].
    double overall_freq = 0.0;///< Fraction of all stack slots.
};

/** Per-map-block estimates from both methods plus bias flags. */
struct BbecEstimates
{
    /** EBS-estimated execution counts, indexed by MapBlock index. */
    std::vector<double> ebs;
    /** LBR-estimated execution counts. */
    std::vector<double> lbr;
    /** Raw EBS sample count per block (diagnostics). */
    std::vector<uint32_t> ebs_samples;
    /** Accumulated LBR stream weight per block (diagnostics). */
    std::vector<double> lbr_weight;
    /** Bias-suspect flag per block. */
    std::vector<bool> bias;

    /** Detected biased branches. */
    std::vector<BiasedBranch> biased_branches;

    uint64_t lbr_streams_total = 0;
    uint64_t lbr_streams_discarded = 0;
    uint64_t ebs_samples_unmapped = 0;

    /** Fraction of streams the walker rejected. */
    double
    discardFraction() const
    {
        return lbr_streams_total
            ? static_cast<double>(lbr_streams_discarded) /
              static_cast<double>(lbr_streams_total) : 0.0;
    }
};

/** Computes BbecEstimates from a profile on a block map. */
class BbecEstimator
{
  public:
    explicit BbecEstimator(BbecOptions opts = {}) : opts_(opts) {}

    /** Run both estimators and bias detection. */
    BbecEstimates estimate(const BlockMap &map,
                           const ProfileData &profile) const;

  private:
    BbecOptions opts_;
};

} // namespace hbbp

#endif // HBBP_ANALYSIS_BBEC_HH
