/**
 * @file
 * Test-only reference for BbecEstimator: the estimator as it was before
 * its LBR pass was memoized, copied verbatim. It walks the block map
 * once per stream and keys its bias counts by address in unordered
 * containers. The property tests require the production estimator to
 * match it bit for bit; keep it unchanged.
 */

#ifndef HBBP_TESTS_BBEC_REFERENCE_HH
#define HBBP_TESTS_BBEC_REFERENCE_HH

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/bbec.hh"
#include "support/vectorops.hh"

namespace hbbp::reference {

/**
 * Walk the straight-line path from stream target @p t to stream source
 * @p s, appending credited block indices to @p out. Returns false when
 * the stream is inconsistent with the block map (invalid target, an
 * always-taken transfer strictly inside the range, or a gap).
 */
inline bool
walkStream(const BlockMap &map, uint64_t t, uint64_t s,
           uint32_t max_blocks, std::vector<uint32_t> &out)
{
    uint32_t bi = map.blockAt(t);
    if (bi == BlockMap::npos)
        return false;
    // A stream target is a branch target, which disassembly makes a
    // block leader; a mid-block target means the map is stale.
    if (map.block(bi).start != t)
        return false;
    if (s < t)
        return false;

    size_t first = out.size();
    for (uint32_t steps = 0; steps < max_blocks; steps++) {
        const MapBlock &blk = map.block(bi);
        out.push_back(bi);
        if (blk.contains(s)) {
            // The source must be the block's control transfer (last
            // instruction); anything else is a stale-map symptom.
            const Instruction &last = blk.instrs.back();
            if (last.addr != s || !last.info().isControl()) {
                out.resize(first);
                return false;
            }
            return true;
        }
        // We must fall off the end of this block: impossible past an
        // always-taken control transfer.
        const Instruction &last = blk.instrs.back();
        if (last.info().isControl() && last.info().isAlwaysTaken()) {
            out.resize(first);
            return false;
        }
        uint32_t next = map.blockAt(blk.end());
        if (next == BlockMap::npos || map.block(next).start != blk.end()) {
            out.resize(first);
            return false;
        }
        bi = next;
    }
    out.resize(first);
    return false;
}

/** The per-stream estimator (BbecEstimator before the memo). */
class BbecEstimator
{
  public:
    explicit BbecEstimator(BbecOptions opts = {}) : opts_(opts) {}

    BbecEstimates
    estimate(const BlockMap &map, const ProfileData &profile) const
    {
        const size_t n = map.blocks().size();
        BbecEstimates est;
        est.ebs.assign(n, 0.0);
        est.lbr.assign(n, 0.0);
        est.ebs_samples.assign(n, 0);
        est.lbr_weight.assign(n, 0.0);
        est.bias.assign(n, false);

        // ---- EBS: eventing IPs credit their enclosing block.
        for (const EbsSample &sample : profile.ebs) {
            uint32_t bi = map.blockAt(sample.ip);
            if (bi == BlockMap::npos) {
                est.ebs_samples_unmapped++;
                continue;
            }
            est.ebs_samples[bi]++;
        }
        const double ebs_period =
            static_cast<double>(profile.sim_periods.ebs);
        for (size_t i = 0; i < n; i++) {
            size_t len = map.block(static_cast<uint32_t>(i)).size();
            if (len == 0)
                continue;
            est.ebs[i] = static_cast<double>(est.ebs_samples[i]) * ebs_period /
                         static_cast<double>(len);
        }

        // ---- Bias detection pass A: entry[0] frequency vs overall slot
        // frequency per branch source address.
        std::unordered_map<uint64_t, uint64_t> entry0_count;
        std::unordered_map<uint64_t, uint64_t> slot_count;
        uint64_t total_samples = 0;
        uint64_t total_slots = 0;
        for (const LbrStackSample &sample : profile.lbr) {
            if (sample.entries.empty())
                continue;
            total_samples++;
            entry0_count[sample.entries.front().source]++;
            for (const LbrEntry &e : sample.entries) {
                slot_count[e.source]++;
                total_slots++;
            }
        }
        std::unordered_set<uint64_t> biased_sources;
        if (total_samples > 0 && total_slots > 0) {
            for (const auto &[src, cnt] : entry0_count) {
                double freq0 = static_cast<double>(cnt) /
                               static_cast<double>(total_samples);
                double overall = static_cast<double>(slot_count[src]) /
                                 static_cast<double>(total_slots);
                if (freq0 >= opts_.bias_min_freq &&
                    freq0 > opts_.bias_ratio * overall) {
                    biased_sources.insert(src);
                    est.biased_branches.push_back({src, freq0, overall});
                }
            }
        }

        // ---- LBR: walk the N-1 streams of every stack.
        std::vector<double> biased_credit(n, 0.0);
        std::vector<uint32_t> credited;
        credited.reserve(64);
        for (const LbrStackSample &sample : profile.lbr) {
            const size_t depth = sample.entries.size();
            if (depth < 2)
                continue;
            const double weight = 1.0 / static_cast<double>(depth - 1);
            // A sample is bias-suspect when a biased branch appears anywhere
            // in the stack: the stale-entry[0] anomaly distorts evidence for
            // every block that co-occurs with the anomalous branch.
            bool sample_biased = false;
            if (!biased_sources.empty()) {
                for (const LbrEntry &e : sample.entries) {
                    if (biased_sources.count(e.source) > 0) {
                        sample_biased = true;
                        break;
                    }
                }
            }
            for (size_t i = 1; i < depth; i++) {
                est.lbr_streams_total++;
                uint64_t t = sample.entries[i - 1].target;
                uint64_t s = sample.entries[i].source;
                credited.clear();
                if (!walkStream(map, t, s, opts_.max_walk_blocks, credited)) {
                    est.lbr_streams_discarded++;
                    continue;
                }
                for (uint32_t bi : credited) {
                    est.lbr_weight[bi] += weight;
                    if (sample_biased)
                        biased_credit[bi] += weight;
                }
            }
        }
        double lbr_scale = static_cast<double>(profile.sim_periods.lbr);
        if (opts_.renormalize_discards && est.lbr_streams_total > 0 &&
            est.lbr_streams_discarded < est.lbr_streams_total) {
            lbr_scale /= 1.0 - est.discardFraction();
        }
        vecops::scaledCopy(est.lbr.data(), est.lbr_weight.data(), lbr_scale,
                           n);

        // ---- Bias flags: blocks containing a biased branch, and blocks
        // whose LBR evidence substantially comes from biased samples.
        for (uint64_t src : biased_sources) {
            uint32_t bi = map.blockAt(src);
            if (bi != BlockMap::npos)
                est.bias[bi] = true;
        }
        for (size_t i = 0; i < n; i++) {
            if (est.lbr_weight[i] > 0.0 &&
                biased_credit[i] / est.lbr_weight[i] >
                    opts_.biased_credit_frac)
                est.bias[i] = true;
        }

        return est;
    }

  private:
    BbecOptions opts_;
};

} // namespace hbbp::reference

#endif // HBBP_TESTS_BBEC_REFERENCE_HH
