#include "fleet/merge.hh"

#include <atomic>

#include "support/logging.hh"
#include "support/vectorops.hh"

namespace hbbp {

namespace {

/** Lanes clamped at UINT64_MAX across every merge in this process. */
std::atomic<uint64_t> g_saturated_lanes{0};
std::atomic<bool> g_saturation_warned{false};

/** True when [a, a+an) and [b, b+bn) share at least one address. */
bool
rangesOverlap(uint64_t a, uint64_t an, uint64_t b, uint64_t bn)
{
    if (an == 0 || bn == 0)
        return false;
    // Bases come from the module map, sizes from the loader; a range
    // that wraps the address space is malformed, treat it as ending at
    // the top.
    uint64_t a_end = a + an < a ? UINT64_MAX : a + an;
    uint64_t b_end = b + bn < b ? UINT64_MAX : b + bn;
    return a < b_end && b < a_end;
}

} // namespace

bool
mergeCompatible(const ProfileData &a, const ProfileData &b,
                std::string *why)
{
    auto fail = [&](std::string reason) {
        if (why)
            *why = std::move(reason);
        return false;
    };
    if (a.sim_periods.ebs != b.sim_periods.ebs ||
        a.sim_periods.lbr != b.sim_periods.lbr)
        return fail(format(
            "simulation sampling periods differ (ebs %llu/%llu vs "
            "lbr %llu/%llu)",
            static_cast<unsigned long long>(a.sim_periods.ebs),
            static_cast<unsigned long long>(b.sim_periods.ebs),
            static_cast<unsigned long long>(a.sim_periods.lbr),
            static_cast<unsigned long long>(b.sim_periods.lbr)));
    if (a.paper_periods.ebs != b.paper_periods.ebs ||
        a.paper_periods.lbr != b.paper_periods.lbr)
        return fail("paper-scale sampling periods differ");
    if (a.runtime_class != b.runtime_class)
        return fail(format("runtime classes differ (%s vs %s)",
                           name(a.runtime_class), name(b.runtime_class)));
    return true;
}

bool
mmapRecordsConflict(const MmapRecord &have, const MmapRecord &rec,
                    std::string *why)
{
    auto fail = [&](std::string reason) {
        if (why)
            *why = std::move(reason);
        return true;
    };
    if (have.name == rec.name) {
        if (have == rec)
            return false;
        return fail(format(
            "module '%s' mapped at %#llx+%#llx in one shard but "
            "%#llx+%#llx in another",
            rec.name.c_str(),
            static_cast<unsigned long long>(have.base),
            static_cast<unsigned long long>(have.size),
            static_cast<unsigned long long>(rec.base),
            static_cast<unsigned long long>(rec.size)));
    }
    if (rangesOverlap(have.base, have.size, rec.base, rec.size))
        return fail(format(
            "modules '%s' (%#llx+%#llx) and '%s' (%#llx+%#llx) overlap; "
            "shards were collected against different module layouts and "
            "their samples would be cross-attributed",
            have.name.c_str(),
            static_cast<unsigned long long>(have.base),
            static_cast<unsigned long long>(have.size),
            rec.name.c_str(),
            static_cast<unsigned long long>(rec.base),
            static_cast<unsigned long long>(rec.size)));
    return false;
}

bool
reconcileMmaps(std::vector<MmapRecord> &map,
               const std::vector<MmapRecord> &recs, std::string *why)
{
    size_t old_size = map.size();
    for (const MmapRecord &rec : recs) {
        bool found = false;
        // Check every existing record, not just the same-named one: a
        // differently-named record whose address range overlaps is a
        // layout conflict too.
        for (const MmapRecord &have : map) {
            if (mmapRecordsConflict(have, rec, why)) {
                map.resize(old_size);
                return false;
            }
            if (have.name == rec.name)
                found = true;
        }
        if (!found)
            map.push_back(rec);
    }
    return true;
}

uint64_t
saturatedFoldLanes()
{
    return g_saturated_lanes.load(std::memory_order_relaxed);
}

void
mergeInto(ProfileData &into, const ProfileData &shard)
{
    std::string why;
    if (!mergeCompatible(into, shard, &why))
        fatal("cannot merge profiles: %s", why.c_str());

    if (!reconcileMmaps(into.mmaps, shard.mmaps, &why))
        fatal("cannot merge profiles: %s", why.c_str());

    into.ebs.insert(into.ebs.end(), shard.ebs.begin(), shard.ebs.end());
    into.lbr.insert(into.lbr.end(), shard.lbr.begin(), shard.lbr.end());

    // Fold the u64 feature lanes through the saturating accumulate:
    // lanes that would wrap past UINT64_MAX clamp there (the old
    // unchecked += wrapped silently and corrupted fleet-scale
    // cycle/instruction totals).
    uint64_t dst[6] = {
        into.features.cycles,        into.features.instructions,
        into.features.block_entries, into.features.taken_branches,
        into.features.simd_instructions, into.pmi_count,
    };
    const uint64_t src[6] = {
        shard.features.cycles,        shard.features.instructions,
        shard.features.block_entries, shard.features.taken_branches,
        shard.features.simd_instructions, shard.pmi_count,
    };
    size_t saturated = vecops::accumulateSatU64(dst, src, 6);
    into.features.cycles = dst[0];
    into.features.instructions = dst[1];
    into.features.block_entries = dst[2];
    into.features.taken_branches = dst[3];
    into.features.simd_instructions = dst[4];
    into.pmi_count = dst[5];
    if (saturated > 0) {
        g_saturated_lanes.fetch_add(saturated,
                                    std::memory_order_relaxed);
        if (!g_saturation_warned.exchange(true,
                                          std::memory_order_relaxed))
            warn("feature counter saturation: %zu lane(s) clamped at "
                 "UINT64_MAX during a profile merge; aggregate "
                 "cycle/instruction totals are lower bounds from here "
                 "on (reported once; see saturated= in the aggregate "
                 "stats line)",
                 saturated);
    }
}

void
accumulateInto(std::optional<ProfileData> &into, const ProfileData &shard)
{
    if (!into)
        into = shard;
    else
        mergeInto(*into, shard);
}

ProfileData
mergeProfiles(const std::vector<ProfileData> &shards)
{
    if (shards.empty())
        fatal("cannot merge an empty profile list");
    ProfileData merged = shards.front();
    for (size_t i = 1; i < shards.size(); i++)
        mergeInto(merged, shards[i]);
    return merged;
}

} // namespace hbbp
