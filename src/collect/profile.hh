/**
 * @file
 * The profile container — our perf.data equivalent.
 *
 * ProfileData bundles everything a collection run produces: EBS IP
 * samples, LBR stack samples, module map records (for virtual address
 * attribution), the periods used, and the clean-run execution features
 * needed by the overhead models. It serializes to a compact binary
 * format so collection and analysis can run as separate steps, exactly
 * like the paper's collector/analyzer split.
 *
 * Writers emit format version 4: a checksummed header over a
 * dictionary-coded payload (sorted address and branch tables, samples
 * as varint ids and cycle deltas). The encoding is canonical — equal
 * profiles give equal bytes — so the payload checksum doubles as a
 * content address. Every reader also accepts version 3 (the same
 * header over fixed-width samples); version 2 needs `hbbp-tool
 * migrate`.
 */

#ifndef HBBP_COLLECT_PROFILE_HH
#define HBBP_COLLECT_PROFILE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "collect/periods.hh"
#include "instr/overhead.hh"
#include "pmu/pmu.hh"

namespace hbbp {

/** A module map record (perf's MMAP events). */
struct MmapRecord
{
    std::string name;
    uint64_t base = 0;
    uint64_t size = 0;
    bool kernel = false;

    bool operator==(const MmapRecord &other) const = default;
};

/** Everything one collection run produces. */
struct ProfileData
{
    /** EBS data source: eventing IPs of INST_RETIRED PMIs. */
    std::vector<EbsSample> ebs;
    /** LBR data source: stacks captured at BR_INST_RETIRED PMIs. */
    std::vector<LbrStackSample> lbr;
    /** Module map at collection time. */
    std::vector<MmapRecord> mmaps;

    /** Periods actually used during (simulated) collection. */
    SamplingPeriods sim_periods;
    /** Paper-scale periods for the runtime class (overhead models). */
    SamplingPeriods paper_periods;
    /** Runtime class the periods were selected for. */
    RuntimeClass runtime_class = RuntimeClass::Seconds;

    /** Clean-run features for the overhead models. */
    RunFeatures features;

    /** PMIs delivered during collection. */
    uint64_t pmi_count = 0;

    /**
     * The exact bytes save() writes (header, payload length, checksum,
     * payload) as a memory buffer — the unit the shard transport
     * frames carry. @p checksum_out, when non-null, receives the
     * payload checksum as a by-product, so callers that need both
     * (shard export, transport send) serialize exactly once.
     */
    std::string serialize(uint64_t *checksum_out = nullptr) const;

    /**
     * tryLoad() over in-memory bytes — the receiving end of
     * serialize(). @p context names the source (a peer address, a
     * frame) in diagnostics. Returns std::nullopt with *@p why set on
     * legacy versions, truncation, a checksum mismatch, or structural
     * corruption behind a self-consistent checksum — the bytes may
     * come from an untrusted peer whose checksum proves nothing, so
     * nothing here is allowed to take the process down. An accepted
     * version-4 payload re-serializes to exactly @p bytes, and
     * *@p checksum_out is then its payloadChecksum().
     */
    static std::optional<ProfileData>
    parse(std::string_view bytes, const std::string &context,
          std::string *why, uint64_t *checksum_out = nullptr);

    /**
     * Serialize to @p path; fatal() on I/O errors. @p checksum_out,
     * when non-null, receives the payload checksum as a by-product —
     * callers that need both (shard export) serialize once instead of
     * paying payloadChecksum() again.
     */
    void save(const std::string &path,
              uint64_t *checksum_out = nullptr) const;

    /**
     * save() through a uniquely named temp file renamed into place, so
     * a crashed or failed writer never leaves a truncated or corrupt
     * profile at @p path — the required form wherever @p path may
     * already hold data worth keeping or other processes may read it
     * concurrently (the profile store, shard export, migration).
     */
    void saveAtomically(const std::string &path,
                        uint64_t *checksum_out = nullptr) const;

    /**
     * Deserialize from @p path; fatal() on I/O or format errors,
     * including a payload-checksum mismatch (stale or corrupt file) and
     * legacy pre-checksum format versions — the diagnostic suggests
     * re-collecting or `hbbp-tool migrate`.
     */
    static ProfileData load(const std::string &path);

    /**
     * The migration loader: additionally accepts the legacy version-2
     * (pre-checksum) format and files whose stored checksum is stale,
     * re-deriving the checksum from the payload. @p version_out, when
     * non-null, reports the on-disk format version. Used by
     * `hbbp-tool migrate`, which re-saves the result as version 4.
     */
    static ProfileData loadAnyVersion(const std::string &path,
                                      uint32_t *version_out = nullptr);

    /**
     * Non-fatal load(): returns std::nullopt with *@p why set when the
     * file is unreadable, a legacy version, truncated, fails its
     * checksum, or is structurally corrupt behind a valid checksum;
     * @p checksum_out, when non-null, receives the verified payload
     * checksum. *@p io_failed, when non-null, reports whether the
     * failure was at the I/O level (could not open or read the file —
     * says nothing about the bytes) rather than a verdict on the
     * content; cache eviction keys off it. One file read serves
     * validation and parsing — the aggregation import path.
     */
    static std::optional<ProfileData>
    tryLoad(const std::string &path, std::string *why,
            uint64_t *checksum_out = nullptr,
            bool *io_failed = nullptr);

    /**
     * Stable FNV-1a checksum of the serialized (version-4) payload.
     * Identical profiles hash identically on every host, so shard
     * manifests use this for duplicate detection and transfer
     * integrity. It costs a full encode: callers that also need the
     * bytes get both from serialize().
     */
    uint64_t payloadChecksum() const;

    bool operator==(const ProfileData &other) const = default;
};

} // namespace hbbp

#endif // HBBP_COLLECT_PROFILE_HH
