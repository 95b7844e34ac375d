/**
 * @file
 * Profile merging — the fleet aggregation primitive.
 *
 * Production fleet profilers batch per-machine perf.data shards into one
 * aggregate before analysis; this module gives ProfileData the same
 * well-defined merge semantics. Samples are statistical, so merging is
 * concatenation: EBS and LBR samples append in argument order, PMI
 * counts and run features sum, and module maps reconcile record-by-
 * record. Profiles are only mergeable when they were collected with
 * identical sampling periods and runtime class — mixing periods would
 * silently bias every downstream BBEC estimate, so it is a fatal()
 * diagnostic instead.
 */

#ifndef HBBP_FLEET_MERGE_HH
#define HBBP_FLEET_MERGE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "collect/profile.hh"

namespace hbbp {

/**
 * True when @p a and @p b may be merged (same sampling periods and
 * runtime class); when false and @p why is non-null, *why describes the
 * first mismatch found.
 */
bool mergeCompatible(const ProfileData &a, const ProfileData &b,
                     std::string *why = nullptr);

/**
 * True when two module-map records cannot coexist in one aggregate:
 * either the same module name placed differently, or two *different*
 * names whose [base, base+size) address ranges overlap — the latter
 * used to merge silently and attribute one module's samples to the
 * other. When true and @p why is non-null, *why holds a diagnostic.
 */
bool mmapRecordsConflict(const MmapRecord &have, const MmapRecord &rec,
                         std::string *why = nullptr);

/**
 * Add @p recs to the module map @p map: each record is checked with
 * mmapRecordsConflict() against every record already in @p map,
 * including those added before it, and a name @p map already holds is
 * not added twice. On a conflict returns false with *@p why set and
 * leaves @p map as it was. The one module-map walk behind every merge
 * and fold.
 */
bool reconcileMmaps(std::vector<MmapRecord> &map,
                    const std::vector<MmapRecord> &recs,
                    std::string *why = nullptr);

/**
 * Process-wide count of u64 feature-counter lanes (cycles,
 * instructions, block entries, taken branches, SIMD instructions, PMI
 * count) that saturated at UINT64_MAX during merges. Saturation warns
 * once per process and is surfaced in the aggregate stats line; the
 * pre-fix behavior was an unchecked += that silently wrapped.
 */
uint64_t saturatedFoldLanes();

/**
 * Merge @p shards (in order) into one aggregate profile.
 *
 * fatal() on an empty input, on incompatible sampling periods or
 * runtime classes, and on module maps that disagree about a module's
 * placement. Module records keep first-seen order; records new to the
 * aggregate are appended, so the result is deterministic in the input
 * order regardless of how the shards were produced.
 */
ProfileData mergeProfiles(const std::vector<ProfileData> &shards);

/** Merge @p shard into @p into (same rules as mergeProfiles). */
void mergeInto(ProfileData &into, const ProfileData &shard);

/**
 * mergeInto() that moves @p shard's samples instead of copying them:
 * the same bytes, without an allocation per LBR stack. For a shard
 * the caller is done with (an arrival, a drained pending shard).
 */
void mergeInto(ProfileData &into, ProfileData &&shard);

/**
 * Fold @p shard into the running aggregate @p into, initializing it
 * from the first shard. The incremental-fold primitive: a stream of
 * compatible shards accumulated this way equals mergeProfiles() over
 * the same stream in the same order.
 */
void accumulateInto(std::optional<ProfileData> &into,
                    const ProfileData &shard);

/** accumulateInto() that moves @p shard in (see the moving mergeInto). */
void accumulateInto(std::optional<ProfileData> &into, ProfileData &&shard);

} // namespace hbbp

#endif // HBBP_FLEET_MERGE_HH
