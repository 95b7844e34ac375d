/**
 * @file
 * The dual-collection PMU observer.
 *
 * Models the paper's collector hardware interface (Section V.A): since
 * simultaneous EBS and LBR collection is not supported, two PMU counters
 * both run in LBR mode during a single execution —
 *
 *  - counter A samples on INST_RETIRED:PREC_DIST; at each PMI the
 *    "eventing IP" is kept as the EBS data source (the LBR payload is
 *    discarded at analysis time);
 *  - counter B samples on BR_INST_RETIRED:NEAR_TAKEN; at each PMI the
 *    LBR stack is kept as the LBR data source (the eventing IP is
 *    discarded).
 *
 * The model reproduces the documented PMU inaccuracies:
 *
 *  - skid: a PMI scheduled at counter overflow is delivered a few cycles
 *    later; the sampled IP is whatever retires then;
 *  - shadowing: retirement stalls on long-latency instructions make the
 *    instruction after the stall absorb all PMIs initiated during it;
 *  - LBR entry[0] bias: see lbr.hh.
 *
 * The PMU takes execution a basic block at a time. Which instruction
 * retired matters only where a PMI is delivered or the EBS counter
 * overflows, so a block where neither happens just adds its length to
 * the EBS counter. The PMU declines that shortcut when a pending EBS
 * or LBR PMI falls due by the block's last retire cycle, or when the
 * EBS counter would reach its period inside the block, and then
 * retires the block one instruction at a time. Nothing else happens
 * inside a block: a taken branch can only be a block's last
 * instruction, so the LBR ring and counter B see it after every
 * instruction of the block has retired, and the skid, the PMU's only
 * random draw, is drawn only at an overflow. Both paths therefore
 * collect exactly the same samples.
 */

#ifndef HBBP_PMU_PMU_HH
#define HBBP_PMU_PMU_HH

#include <cstdint>
#include <vector>

#include "pmu/events.hh"
#include "pmu/lbr.hh"
#include "sim/observer.hh"
#include "support/rng.hh"

namespace hbbp {

/** One EBS sample: the eventing IP of an INST_RETIRED PMI. */
struct EbsSample
{
    uint64_t ip = 0;
    uint64_t cycle = 0;
    Ring ring = Ring::User;

    bool operator==(const EbsSample &other) const = default;
};

/** One LBR sample: the stack captured at a BR_INST_RETIRED PMI. */
struct LbrStackSample
{
    /** Entries oldest-first (entry[0] has no preceding target). */
    std::vector<LbrEntry> entries;
    uint64_t cycle = 0;
    Ring ring = Ring::User;
    /** Eventing IP as captured; discarded by the LBR analysis path. */
    uint64_t eventing_ip = 0;

    bool operator==(const LbrStackSample &other) const = default;
};

/** PMU sampling configuration. */
struct PmuConfig
{
    /** Sampling period of the EBS (instructions retired) counter. */
    uint64_t ebs_period = 9973;
    /** Sampling period of the LBR (taken branches) counter. */
    uint64_t lbr_period = 997;

    /**
     * PMI delivery delay for the precise EBS event, in cycles. Even
     * precise events skid: the sampled IP is the first instruction
     * retiring after the delay, so retirement stalls (long-latency
     * instructions) absorb samples — the shadowing effect.
     */
    uint32_t precise_skid_min_cycles = 1;
    uint32_t precise_skid_max_cycles = 4;

    /** PMI delivery delay for the taken-branches counter, in cycles. */
    uint32_t lbr_pmi_delay_cycles = 2;

    /** LBR stack depth. */
    uint32_t lbr_depth = 16;

    /** Entry[0] bias quirk parameters. */
    LbrQuirkConfig quirk;

    /** Monitor ring 0 in addition to user code. */
    bool monitor_kernel = true;

    /** Seed for skid and quirk randomness. */
    uint64_t seed = 0x9e3779b9ULL;
};

/** Execution observer implementing the dual LBR-mode collection. */
class DualCollectionPmu : public ExecObserver
{
  public:
    /**
     * fatal() on a configuration no hardware has: a zero sampling
     * period, a skid range whose maximum is below its minimum, or an
     * LBR depth of 0.
     */
    explicit DualCollectionPmu(const PmuConfig &config);

    void onBlock(const BlockRetire &blk) override;

    /** EBS samples collected so far. */
    const std::vector<EbsSample> &ebsSamples() const { return ebs_; }

    /** LBR stack samples collected so far. */
    const std::vector<LbrStackSample> &lbrSamples() const { return lbr_; }

    /** Total PMIs delivered (both counters); drives overhead models. */
    uint64_t pmiCount() const { return pmi_count_; }

    /** Configuration in use. */
    const PmuConfig &config() const { return config_; }

    /** Move samples out (leaves the PMU empty). */
    std::vector<EbsSample> takeEbsSamples() { return std::move(ebs_); }
    std::vector<LbrStackSample> takeLbrSamples() { return std::move(lbr_); }

  private:
    /** One retired instruction: deliver due PMIs, count, overflow. */
    void retire(uint64_t ip, uint64_t cycle_end, Ring ring);

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

} // namespace hbbp

#endif // HBBP_PMU_PMU_HH
