/**
 * @file
 * Test-only reference for DualCollectionPmu: the PMU as it was before
 * retirement became block-granular, with its LBR ring as it was before
 * that became a circular buffer. The bodies of the per-instruction
 * hook (renamed retire(); the engine used to call it once per retired
 * instruction), the taken-branch hook onTakenBranch() (the engine used
 * to call it after the block that ends in the branch) and the ring are
 * copied verbatim. onBlock() expands each executed block into the
 * per-instruction calls the engine used to make, then makes the
 * taken-branch call when the block's terminator was taken. The
 * property tests require the production PMU to collect exactly what
 * this one does; keep it unchanged.
 */

#ifndef HBBP_TESTS_PMU_REFERENCE_HH
#define HBBP_TESTS_PMU_REFERENCE_HH

#include <vector>

#include "pmu/pmu.hh"
#include "support/logging.hh"

namespace hbbp::reference {

/** The LBR ring that shifted every entry down on each eviction. */
class LbrRing
{
  public:
    explicit LbrRing(uint32_t depth = 16, LbrQuirkConfig quirk = {},
                     uint64_t seed = 0x5eedf00d)
        : depth_(depth), quirk_(quirk), rng_(seed)
    {
        if (depth_ == 0)
            panic("LbrRing: depth must be >= 1");
        ring_.reserve(depth_);
    }

    bool
    isSticky(uint64_t source) const
    {
        if (!quirk_.enabled || quirk_.sticky_hash_mod == 0)
            return false;
        return hashAddr(source) % quirk_.sticky_hash_mod == 0;
    }

    void
    insert(uint64_t source, uint64_t target)
    {
        if (ring_.size() < depth_) {
            ring_.push_back({source, target});
            return;
        }
        // Ring is full: evict the oldest entry — unless the quirk freezes
        // the ring while a sticky branch occupies the oldest slot. A frozen
        // ring drops incoming branches entirely, so snapshots taken during
        // the freeze return stale content with the sticky branch pinned at
        // entry[0]; execution that has moved on is under-represented and the
        // pre-freeze window over-represented, which is exactly the
        // disproportionate-entry[0] distortion of Section III.C.
        bool freeze = isSticky(ring_.front().source) &&
                      persist_count_ < quirk_.sticky_max_persist &&
                      rng_.chance(quirk_.sticky_persist_prob);
        if (freeze) {
            persist_count_++;
            return;
        }
        persist_count_ = 0;
        ring_.erase(ring_.begin());
        ring_.push_back({source, target});
    }

    std::vector<LbrEntry>
    snapshot() const
    {
        return ring_;
    }

  private:
    uint32_t depth_;
    LbrQuirkConfig quirk_;
    Rng rng_;
    /** ring_[0] is oldest. */
    std::vector<LbrEntry> ring_;
    uint32_t persist_count_ = 0;
};

/** A taken control transfer, as the engine used to report it. */
struct TakenBranch
{
    uint64_t source = 0; ///< Address of the branch instruction.
    uint64_t target = 0; ///< Address control arrived at.
    uint64_t cycle = 0;  ///< Retirement cycle of the branch.
    Ring ring = Ring::User;
};

/** The dual collection, one retired instruction at a time. */
class DualCollectionPmu : public ExecObserver
{
  public:
    explicit DualCollectionPmu(const PmuConfig &config)
        : config_(config), rng_(config.seed),
          ring_(config.lbr_depth, config.quirk, splitmix64(config.seed))
    {
    }

    void
    onBlock(const BlockRetire &blk) override
    {
        for (size_t i = 0; i < blk.size(); i++)
            retire(blk.block->instrs[i], *blk.block, blk.instrStart(i),
                   blk.instrEnd(i), blk.ring);
        if (blk.taken)
            onTakenBranch({blk.block->instrs.back().addr, blk.taken_target,
                           blk.cycleEnd(), blk.ring});
    }

    void
    retire(const Instruction &instr, const BasicBlock &blk,
           uint64_t cycle_start, uint64_t cycle_end, Ring ring)
    {
        (void)blk;
        (void)cycle_start;
        if (!config_.monitor_kernel && ring == Ring::Kernel)
            return;

        // Deliver any pending PMIs whose delay has elapsed. The sampled IP is
        // the instruction retiring at delivery time — this is where skid and
        // shadowing come from: during a retirement stall, cycle_end jumps
        // forward and this instruction absorbs every PMI initiated in the
        // stall window.
        if (ebs_pmi_pending_ && cycle_end >= ebs_pmi_cycle_) {
            ebs_pmi_pending_ = false;
            pmi_count_++;
            // Eventing IP kept; LBR payload of this collection is discarded
            // at analysis time, so it is not stored at all.
            ebs_.push_back({instr.addr, cycle_end, ring});
        }
        if (lbr_pmi_pending_ && cycle_end >= lbr_pmi_cycle_) {
            lbr_pmi_pending_ = false;
            pmi_count_++;
            LbrStackSample sample;
            sample.entries = ring_.snapshot();
            sample.cycle = cycle_end;
            sample.ring = ring;
            sample.eventing_ip = instr.addr; // discarded by analysis
            lbr_.push_back(std::move(sample));
        }

        // Counter A: instructions retired.
        ebs_counter_++;
        if (ebs_counter_ >= config_.ebs_period && !ebs_pmi_pending_) {
            ebs_counter_ = 0;
            uint64_t span = config_.precise_skid_max_cycles -
                            config_.precise_skid_min_cycles;
            uint64_t skid = config_.precise_skid_min_cycles +
                            (span ? rng_.nextBelow(span + 1) : 0);
            ebs_pmi_cycle_ = cycle_end + skid;
            ebs_pmi_pending_ = true;
        }
    }

    void
    onTakenBranch(const TakenBranch &branch)
    {
        if (!config_.monitor_kernel && branch.ring == Ring::Kernel)
            return;

        // LBR hardware logs every taken branch.
        ring_.insert(branch.source, branch.target);

        // Counter B: taken branches retired.
        lbr_counter_++;
        if (lbr_counter_ >= config_.lbr_period && !lbr_pmi_pending_) {
            lbr_counter_ = 0;
            lbr_pmi_cycle_ = branch.cycle + config_.lbr_pmi_delay_cycles;
            lbr_pmi_pending_ = true;
        }
    }

    const std::vector<EbsSample> &ebsSamples() const { return ebs_; }
    const std::vector<LbrStackSample> &lbrSamples() const { return lbr_; }
    uint64_t pmiCount() const { return pmi_count_; }

  private:
    PmuConfig config_;
    Rng rng_;
    LbrRing ring_;

    uint64_t ebs_counter_ = 0;
    uint64_t lbr_counter_ = 0;

    bool ebs_pmi_pending_ = false;
    uint64_t ebs_pmi_cycle_ = 0;
    bool lbr_pmi_pending_ = false;
    uint64_t lbr_pmi_cycle_ = 0;

    uint64_t pmi_count_ = 0;

    std::vector<EbsSample> ebs_;
    std::vector<LbrStackSample> lbr_;
};

} // namespace hbbp::reference

#endif // HBBP_TESTS_PMU_REFERENCE_HH
