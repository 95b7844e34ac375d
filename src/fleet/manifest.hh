/**
 * @file
 * The shard manifest — the unit of multi-host profile exchange.
 *
 * A collector host exports its profile as a *shard*: the serialized
 * ProfileData plus a small versioned text manifest describing where it
 * came from (host id, workload, sequence number — the aggregator
 * refuses to mix workloads), what produced it (the collection-options
 * hash, for provenance: host-derived seeds make it differ across
 * hosts by design), and what its payload hashes to (so transfers are
 * integrity-checked and duplicate deliveries are detected). The
 * manifest is written last and renamed into place, so a manifest's
 * presence guarantees the profile beside it is complete — aggregators
 * can watch a drop directory without racing exporters.
 *
 * Version 2 makes *partial aggregates* first-class shards: a relay
 * node that folded shards from N downstream hosts exports the fold
 * with `level` >= 1 and a `hosts=` line naming the covered hosts and
 * how many of each host's leaf shards the fold contains. Leaf shards
 * keep rendering in the version-1 text, so aggregation points built
 * before relays existed still read every collector's output.
 */

#ifndef HBBP_FLEET_MANIFEST_HH
#define HBBP_FLEET_MANIFEST_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "collect/profile.hh"

namespace hbbp {

/** Manifest text version written for leaf (level-0) shards. */
constexpr uint32_t kManifestVersion = 1;

/** Manifest text version written for aggregate (level >= 1) shards. */
constexpr uint32_t kManifestVersionAggregate = 2;

/**
 * One covered host inside an aggregate shard: the fold contains leaf
 * shards with sequence numbers [0, count) from this host.
 */
struct HostCoverage
{
    std::string host;
    uint32_t count = 0;

    bool operator==(const HostCoverage &other) const = default;
};

/** Lifecycle of an exported shard. */
enum class ShardStatus : uint8_t {
    Complete, ///< The profile beside the manifest is whole.
    Partial,  ///< Reserved: an exporter streaming an open collection.
};

const char *name(ShardStatus status);

/**
 * A usable host id: non-empty, no whitespace or '/' (ids become file
 * names), no ',' or ':' (ids are list elements in `hosts=` coverage
 * lines). Enforced wherever a host id enters the system — manifest
 * parse, drop-dir export, the push CLI — so a shard that folds
 * anywhere can always be re-exported one level up.
 */
bool validHostId(const std::string &host);

/** Everything an aggregator needs to know about one exported shard. */
struct ShardManifest
{
    uint32_t version = kManifestVersion;
    /** Collector host id (any non-empty label without whitespace). */
    std::string host;
    /** Workload the profile was collected from. */
    std::string workload;
    /** Shard sequence number within the host's export stream. */
    uint32_t seq = 0;
    /**
     * ProfileKey::hash() of the collection options used — provenance
     * for debugging a surprising aggregate, not a compatibility gate
     * (host-derived seeds make it differ across hosts by design; the
     * aggregator gates on workload and merge compatibility instead).
     */
    uint64_t options_hash = 0;
    /** ProfileData::payloadChecksum() of the exported profile. */
    uint64_t checksum = 0;
    /** Profile file name, relative to the manifest's directory. */
    std::string profile_file;
    ShardStatus status = ShardStatus::Complete;
    /**
     * Aggregation level: 0 for a leaf collector shard, N >= 1 for a
     * partial aggregate pushed by a relay whose deepest input was
     * level N-1. Levels exist for observability and sanity checks —
     * the fold semantics depend only on `covered`.
     */
    uint32_t level = 0;
    /**
     * For level >= 1: the hosts this aggregate covers, sorted by host
     * id with no duplicates, each count >= 1. The payload travels as
     * one chunk per entry, in this order — each chunk is that host's
     * folded partial — so a receiver can splice per-host partials into
     * its own per-host state and stay byte-identical to flat
     * aggregation no matter how the tree was shaped. Empty for leaf
     * shards.
     */
    std::vector<HostCoverage> covered;
    /**
     * Optional shard-lifecycle trace ids (see shardTraceId()). A
     * collector that pushes with --event-log stamps its leaf shard
     * with one id; relays stamp their aggregates with the sorted
     * union of every stamped id they folded, so a root can attribute
     * an arriving aggregate to the leaf shards inside it. Rendered as
     * a trailing `trace=` line only when non-empty — unstamped leaf
     * manifests stay byte-identical to the frozen version-1 text, and
     * older parsers skip the key entirely (unknown keys are ignored).
     */
    std::vector<std::string> trace_ids;
    /**
     * Optional metrics scrape endpoint (`host:port`) of the daemon
     * that pushed this shard. A relay stamps its aggregates with its
     * own --metrics-port address so the parent learns where to
     * federate metrics from — endpoint discovery rides the shard tree
     * instead of needing separate configuration. Rendered as a
     * trailing `metrics=` line only when non-empty, so unstamped
     * manifests keep their frozen bytes and older parsers skip the
     * key.
     */
    std::string metrics_endpoint;

    bool operator==(const ShardManifest &other) const = default;

    /** Total leaf shards the manifest accounts for (1 for a leaf). */
    size_t coveredShardCount() const;

    /**
     * The manifest text (the exact bytes save() writes). Leaf shards
     * render as version 1 — byte-identical to what pre-relay builds
     * wrote — and aggregate shards as version 2 with the `level` and
     * `hosts` lines appended.
     */
    std::string render() const;

    /** Write atomically (temp file + rename) to @p path. */
    void save(const std::string &path) const;

    /**
     * Parse a manifest out of @p text. Returns std::nullopt with
     * *@p why describing the failure on truncated input, unknown
     * versions, missing fields or malformed values.
     */
    static std::optional<ShardManifest> parse(const std::string &text,
                                              std::string *why);

    /** parse() applied to the contents of @p path. */
    static std::optional<ShardManifest> tryLoad(const std::string &path,
                                                std::string *why);

    /** tryLoad() that fatal()s with the diagnostic instead. */
    static ShardManifest load(const std::string &path);
};

/**
 * Deterministic seed for @p host's export stream, mixing the host name
 * and @p seq into @p base the way shardStreamSeed() mixes shard
 * indices. Distinct hosts collect with distinct (but reproducible)
 * streams, so re-running an export is idempotent while two hosts never
 * produce byte-identical shards.
 */
uint64_t hostStreamSeed(uint64_t base, const std::string &host,
                        uint32_t seq);

/**
 * The lifecycle trace id of a shard: `<host>-<seq>-<checksum hex>`.
 * Deterministic, so every stage of the pipeline mints the same id for
 * the same shard without coordination; unique per shard because the
 * (host, seq) slot plus payload checksum is what the aggregator
 * itself dedups on. Trace ids are opaque to every consumer — they are
 * matched, never decomposed.
 */
std::string shardTraceId(const ShardManifest &m);

/**
 * Publish an already-serialized shard into @p dir: writes
 * `<host>-<seq>-<checksum>.hbbp` (the bytes as-is) then the matching
 * `.manifest` (manifest last, both atomically, so a watcher that sees
 * the manifest is guaranteed a complete profile beside it). @p m names
 * the shard; its profile_file and status are set here. fatal() on an
 * invalid host id or I/O failure. Returns the manifest path;
 * *@p manifest_out, when non-null, receives the written manifest.
 */
std::string writeShardFiles(ShardManifest m, const std::string &bytes,
                            const std::string &dir,
                            ShardManifest *manifest_out = nullptr);

/**
 * Export @p profile into @p dir as a shard via writeShardFiles() (the
 * payload is serialized exactly once). Returns the manifest path;
 * *@p manifest_out, when non-null, receives the written manifest.
 */
std::string exportShard(const ProfileData &profile,
                        const std::string &host,
                        const std::string &workload, uint32_t seq,
                        uint64_t options_hash, const std::string &dir,
                        ShardManifest *manifest_out = nullptr);

/** A shard pulled back out of a drop directory. */
struct ImportedShard
{
    ShardManifest manifest;
    ProfileData profile;
    /** The profile file as read and verified: what a node deposits
     * and journals, so the file is never read twice. */
    std::string bytes;
};

/**
 * Import the shard described by the manifest at @p manifest_path:
 * parse the manifest, locate the profile beside it, verify the
 * profile's header and payload checksum, and check it matches the
 * checksum the manifest promises. Returns std::nullopt with *@p why on
 * any failure (truncated manifest, missing or corrupt profile file,
 * checksum disagreement, legacy profile versions needing migration).
 */
std::optional<ImportedShard> importShard(const std::string &manifest_path,
                                         std::string *why);

} // namespace hbbp

#endif // HBBP_FLEET_MANIFEST_HH
