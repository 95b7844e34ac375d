#include "analysis/bbec.hh"

#include <algorithm>
#include <utility>

#include "support/dictionary.hh"
#include "support/logging.hh"
#include "support/vectorops.hh"

namespace hbbp {

namespace {

/**
 * Walk the straight-line path from stream target @p t to stream source
 * @p s, appending credited block indices to @p out. Returns false when
 * the stream is inconsistent with the block map (invalid target, an
 * always-taken transfer strictly inside the range, or a gap).
 */
bool
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

} // namespace

BbecEstimates
BbecEstimator::estimate(const BlockMap &map,
                        const ProfileData &profile) const
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

    // ---- Bias pass: entry[0] frequency vs overall slot frequency per
    // branch source, counted by interned source id.
    Dictionary<uint64_t> sources;
    std::vector<uint64_t> entry0_count;
    std::vector<uint64_t> slot_count;
    uint64_t total_samples = 0;
    uint64_t total_slots = 0;
    for (const LbrStackSample &sample : profile.lbr) {
        if (sample.entries.empty())
            continue;
        total_samples++;
        total_slots += sample.entries.size();
        for (size_t i = 0; i < sample.entries.size(); i++) {
            uint32_t id = sources.intern(sample.entries[i].source);
            if (id == slot_count.size()) {
                slot_count.push_back(0);
                entry0_count.push_back(0);
            }
            slot_count[id]++;
            if (i == 0)
                entry0_count[id]++;
        }
    }
    std::vector<bool> biased(entry0_count.size(), false);
    if (total_samples > 0 && total_slots > 0) {
        for (uint32_t id = 0; id < entry0_count.size(); id++) {
            if (entry0_count[id] == 0)
                continue;
            double freq0 = static_cast<double>(entry0_count[id]) /
                           static_cast<double>(total_samples);
            double overall = static_cast<double>(slot_count[id]) /
                             static_cast<double>(total_slots);
            if (freq0 >= opts_.bias_min_freq &&
                freq0 > opts_.bias_ratio * overall) {
                biased[id] = true;
                est.biased_branches.push_back(
                    {sources.keys()[id], freq0, overall});
            }
        }
        std::sort(est.biased_branches.begin(), est.biased_branches.end(),
                  [](const BiasedBranch &a, const BiasedBranch &b) {
                      return a.source < b.source;
                  });
    }
    const bool any_biased = !est.biased_branches.empty();

    // ---- LBR: the N-1 streams of every stack. Each distinct (target,
    // source) pair is walked once, on first sight; every occurrence
    // then credits the recorded blocks with its own sample's weight,
    // in profile order (see the file comment in bbec.hh).
    struct Walk
    {
        size_t begin = 0; ///< Credited blocks: path[begin, end).
        size_t end = 0;
        bool valid = false;         ///< False: walkStream discarded it.
        bool biased_source = false; ///< Its source is a biased branch.
    };
    Dictionary<std::pair<uint64_t, uint64_t>> streams;
    std::vector<Walk> walks; // by stream id
    std::vector<uint32_t> path;
    std::vector<uint32_t> sample_streams; // one sample's stream ids
    std::vector<double> biased_credit(n, 0.0);
    for (const LbrStackSample &sample : profile.lbr) {
        const size_t depth = sample.entries.size();
        if (depth < 2)
            continue;
        const double weight = 1.0 / static_cast<double>(depth - 1);
        // A sample is bias-suspect when a biased branch appears anywhere
        // in the stack: the stale-entry[0] anomaly distorts evidence for
        // every block that co-occurs with the anomalous branch. Entries
        // 1..N-1 are the stream sources; entry[0] is looked up here.
        bool sample_biased =
            any_biased && biased[sources.intern(sample.entries[0].source)];
        sample_streams.clear();
        for (size_t i = 1; i < depth; i++) {
            uint64_t t = sample.entries[i - 1].target;
            uint64_t s = sample.entries[i].source;
            uint32_t id = streams.intern({t, s});
            if (id == walks.size()) { // first sight: ids come in order
                Walk w;
                w.begin = path.size();
                w.valid = walkStream(map, t, s, opts_.max_walk_blocks, path);
                w.end = path.size();
                w.biased_source = any_biased && biased[sources.intern(s)];
                walks.push_back(w);
            }
            sample_biased = sample_biased || walks[id].biased_source;
            sample_streams.push_back(id);
        }
        for (uint32_t id : sample_streams) {
            est.lbr_streams_total++;
            const Walk &w = walks[id];
            if (!w.valid) {
                est.lbr_streams_discarded++;
                continue;
            }
            for (size_t k = w.begin; k < w.end; k++) {
                est.lbr_weight[path[k]] += weight;
                if (sample_biased)
                    biased_credit[path[k]] += weight;
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
    for (const BiasedBranch &b : est.biased_branches) {
        uint32_t bi = map.blockAt(b.source);
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

} // namespace hbbp
