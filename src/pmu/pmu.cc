#include "pmu/pmu.hh"

#include "support/logging.hh"

namespace hbbp {

namespace {

/** @p config, once it is one the PMU can run; fatal() otherwise. */
const PmuConfig &
checked(const PmuConfig &config)
{
    if (config.ebs_period == 0 || config.lbr_period == 0)
        fatal("DualCollectionPmu: sampling periods must be non-zero");
    if (config.precise_skid_max_cycles < config.precise_skid_min_cycles)
        fatal("DualCollectionPmu: precise skid range [%u, %u] is reversed",
              config.precise_skid_min_cycles,
              config.precise_skid_max_cycles);
    if (config.lbr_depth == 0)
        fatal("DualCollectionPmu: LBR depth must be non-zero");
    return config;
}

} // namespace

DualCollectionPmu::DualCollectionPmu(const PmuConfig &config)
    : config_(checked(config)), rng_(config.seed),
      ring_(config.lbr_depth, config.quirk, splitmix64(config.seed))
{
}

void
DualCollectionPmu::onBlock(const BlockRetire &blk)
{
    if (!config_.monitor_kernel && blk.ring == Ring::Kernel)
        return;

    // Which instruction retired matters only where a PMI is delivered
    // or the EBS counter overflows. Anywhere else the block just counts.
    uint64_t end = blk.cycleEnd();
    bool declined = (ebs_pmi_pending_ && end >= ebs_pmi_cycle_) ||
                    (lbr_pmi_pending_ && end >= lbr_pmi_cycle_) ||
                    ebs_counter_ + blk.size() >= config_.ebs_period;
    if (!declined) {
        ebs_counter_ += blk.size();
    } else {
        for (size_t i = 0; i < blk.size(); i++)
            retire(blk.block->instrs[i].addr, blk.instrEnd(i), blk.ring);
    }
    if (!blk.taken)
        return;

    // LBR hardware logs every taken branch, as its block's last
    // instruction retires.
    ring_.insert(blk.block->instrs.back().addr, blk.taken_target);

    // Counter B: taken branches retired.
    lbr_counter_++;
    if (lbr_counter_ >= config_.lbr_period && !lbr_pmi_pending_) {
        lbr_counter_ = 0;
        lbr_pmi_cycle_ = end + config_.lbr_pmi_delay_cycles;
        lbr_pmi_pending_ = true;
    }
}

void
DualCollectionPmu::retire(uint64_t ip, uint64_t cycle_end, Ring ring)
{
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
        ebs_.push_back({ip, cycle_end, ring});
    }
    if (lbr_pmi_pending_ && cycle_end >= lbr_pmi_cycle_) {
        lbr_pmi_pending_ = false;
        pmi_count_++;
        LbrStackSample sample;
        sample.entries = ring_.snapshot();
        sample.cycle = cycle_end;
        sample.ring = ring;
        sample.eventing_ip = ip; // discarded by analysis
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

} // namespace hbbp
