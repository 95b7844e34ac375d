/**
 * @file
 * Incremental multi-host aggregation.
 *
 * Shards from N collector hosts arrive in whatever order the transport
 * delivers them; the aggregator folds each one into a cached per-host
 * partial aggregate on arrival, detects duplicate deliveries by payload
 * checksum, rejects incompatible collections (mixed sampling periods or
 * runtime classes) with a diagnostic, and invalidates downstream
 * analysis whenever a new shard lands — so re-analysis runs exactly
 * once per arrival, never more. The final aggregate folds hosts in
 * sorted host-id order and each host's shards in sequence order, so
 * the result is byte-identical no matter what order shards arrived in
 * — and identical to a one-shot mergeProfiles() over the same shards.
 *
 * watchAndAggregate() is the transport stand-in: it polls a drop
 * directory for shard manifests (the multi-host simulation; a network
 * transport would enqueue the same imports), skipping files it has
 * already judged.
 */

#ifndef HBBP_FLEET_AGGREGATE_HH
#define HBBP_FLEET_AGGREGATE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fleet/manifest.hh"

namespace hbbp {

/** What the aggregator has seen and done (the invalidation proof). */
struct AggregatorStats
{
    size_t accepted = 0;     ///< Shards folded into the aggregate.
    size_t duplicates = 0;   ///< Rejected: checksum already aggregated.
    size_t incompatible = 0; ///< Rejected: periods/class mismatch.
    size_t malformed = 0;    ///< Rejected: unreadable manifest/profile.
    size_t rebuilds = 0;     ///< Aggregate recomputations (not cache hits).
    size_t aggregates = 0;   ///< Accepted arrivals that were partial
                             ///< aggregates (manifest level >= 1).
    size_t superseded = 0;   ///< Aggregate arrivals whose whole coverage
                             ///< was already surpassed (folded nothing).
};

/**
 * One host's transportable partial: the fold of that host's leaf
 * shards with sequence numbers [0, covered), serialized.
 */
struct HostPartial
{
    std::string host;
    uint32_t covered = 0;
    std::string bytes;
};

/**
 * An out-of-order leaf shard stranded behind a sequence gap. It cannot
 * ride inside an aggregate (coverage is a gap-free prefix), so a relay
 * forwards it upstream verbatim as the leaf shard it is.
 */
struct OrphanShard
{
    std::string host;
    uint32_t seq = 0;
    uint64_t checksum = 0;
    std::string bytes;
};

/** Everything a relay needs to push its state upstream. */
struct PartialExport
{
    /** Per-host contiguous partials, sorted by host id. */
    std::vector<HostPartial> partials;
    /** Pending out-of-order leaf shards, forwarded as-is. */
    std::vector<OrphanShard> orphans;
    /** Payload checksum of the partials folded in order — what the
     * aggregate-shard manifest promises. */
    uint64_t checksum = 0;
    std::string workload;
};

/** Folds arriving shards into one canonical-order aggregate. */
class IncrementalAggregator
{
  public:
    /**
     * Fold an arrived shard in. Returns false with *@p why set when
     * the shard is a duplicate (payload checksum already aggregated),
     * collides with an existing (host, seq) slot, or is incompatible
     * with the shards aggregated so far — a different workload,
     * mismatched sampling periods / runtime class, or a conflicting
     * module placement; stats() records which.
     */
    bool addShard(const ShardManifest &manifest, ProfileData profile,
                  std::string *why = nullptr);

    /**
     * Fold an arrived *aggregate* shard in: @p partials are the
     * per-host folds aligned with @p manifest.covered (one per entry,
     * same order). Each host's coverage splices into that host's state
     * independently — arriving coverage [0, n) *supersedes* what we
     * hold when n exceeds the host's folded prefix (replacing the
     * partial wholesale, retiring any pending shards it now covers)
     * and is skipped when it does not, so re-deliveries, restarted
     * relays and growing flushes fold idempotently and the root
     * aggregate is byte-identical to flat ingestion of the same leaf
     * shards regardless of tree shape or arrival order.
     *
     * Returns false with *@p why set when the arrival is a duplicate
     * (payload checksum already seen), entirely superseded (every
     * host's coverage already surpassed — counted separately in
     * stats().superseded), malformed (coverage/partials disagree) or
     * incompatible. Duplicate and superseded arrivals record the
     * checksum as seen, so hasChecksum() lets a transport confirm
     * them back to the sender as successes.
     */
    bool addAggregateShard(const ShardManifest &manifest,
                           std::vector<ProfileData> partials,
                           std::string *why = nullptr);

    /**
     * importShard() the manifest at @p manifest_path and fold it in.
     * Returns the manifest on acceptance; std::nullopt with *@p why
     * set otherwise (unreadable files count into stats().malformed,
     * rejected shards into duplicates/incompatible).
     */
    std::optional<ShardManifest>
    importFile(const std::string &manifest_path,
               std::string *why = nullptr);

    /**
     * The aggregate of everything accepted so far, in canonical order
     * (hosts sorted by id, shards by sequence within each host).
     * Cached until the next accepted shard invalidates it; fatal()
     * when no shards have been accepted.
     */
    const ProfileData &aggregate();

    const AggregatorStats &stats() const { return stats_; }

    /** Accepted shard count (== stats().accepted). */
    size_t shardCount() const { return stats_.accepted; }

    /** Distinct hosts that have contributed accepted shards. */
    size_t hostCount() const { return hosts_.size(); }

    /**
     * The invalidation epoch: bumped once per accepted shard, never
     * otherwise. Anything derived from aggregate() — an analysis, a
     * rendered report, a served query result — is valid exactly as
     * long as this number stands still, which is what the query
     * layer's `epoch=`/`cached=` headers expose.
     */
    uint64_t epoch() const { return epoch_; }

    /** Workload of the accepted shards ("" before the first one). */
    const std::string &workloadName() const { return workload_; }

    /**
     * One host's folded contiguous partial, or nullptr when the host
     * is unknown or still gapped at sequence 0. The pointer is valid
     * until the next accepted shard. Backs per-host slice queries.
     */
    const ProfileData *hostPartial(const std::string &host) const;

    /** One row of hostProgress(). (Distinct from the manifest's
     *  HostCoverage, which describes an aggregate shard's payload.) */
    struct HostProgress
    {
        std::string host;
        uint32_t covered = 0; ///< Gap-free folded prefix [0, covered).
        size_t pending = 0;   ///< Out-of-order shards behind a gap.
    };

    /** Per-host arrival coverage, sorted by host id. */
    std::vector<HostProgress> hostProgress() const;

    /**
     * Leaf shards the aggregate accounts for: each host's folded
     * prefix plus its pending out-of-order arrivals. Equal to
     * stats().accepted when every arrival was a leaf shard; with
     * aggregate arrivals it counts what they *cover*, which is what a
     * fleet-completeness wait (`--expect`) actually means.
     */
    size_t coveredShards() const;

    /**
     * Deepest aggregation level folded in so far: 0 after only leaf
     * shards, N after an aggregate shard of level N. A relay stamps
     * its own exports one level above this.
     */
    uint32_t maxLevelSeen() const { return max_level_; }

    /**
     * Snapshot the per-host state in transportable form: sorted
     * per-host partials (serialized, with their coverage counts and
     * the folded checksum an aggregate-shard manifest promises) plus
     * any pending out-of-order leaf shards re-serialized for verbatim
     * forwarding. Empty partials and orphans when nothing has been
     * accepted.
     */
    PartialExport exportPartials() const;

    /** Count a shard the transport rejected before addShard() ran. */
    void noteMalformed() { stats_.malformed++; }

    /**
     * True when a shard with this payload checksum is already
     * aggregated — how a transport tells a re-delivery (confirm it,
     * the sender succeeded) from a rejection (fail it loudly).
     */
    bool
    hasChecksum(uint64_t checksum) const
    {
        return seen_checksums_.count(checksum) != 0;
    }

    /**
     * Persist everything acceptance depends on — the per-host partial
     * aggregates (with their out-of-order pending shards), the
     * seen-checksum set, the compatibility reference, the reconciled
     * module map and the cumulative stats — to @p path as a versioned,
     * checksummed binary state file (atomic write, like every on-disk
     * artifact here). A fresh aggregator restored from the file and
     * fed the remaining shards produces an aggregate byte-identical to
     * one that never restarted.
     */
    void saveState(const std::string &path) const;

    /**
     * Restore a *fresh* aggregator from a saveState() file. Returns
     * false with *@p why set when the file is missing, unreadable, a
     * foreign or unsupported format, fails its checksum, or is
     * structurally corrupt behind a valid checksum — all of it a cold
     * start, never a crash: the shards can always be re-imported.
     */
    bool restoreState(const std::string &path,
                      std::string *why = nullptr);

    /** Shards carried in by restoreState() (0 on a cold start). */
    size_t restoredShards() const { return restored_; }

    /**
     * Mark everything accepted so far as restored rather than newly
     * imported — the journal-replay path's equivalent of the count
     * restoreState() sets, so `restored=` reporting stays truthful
     * when a checkpoint is topped up from an append-only journal.
     */
    void markRestored() { restored_ = stats_.accepted; }

  private:
    /** restoreState()'s checksummed-payload parse (throws on damage). */
    void parseStateBody(const std::string &body,
                        const std::string &path);

    /** One host's arrival state. */
    struct HostState
    {
        /** Shards folded so far, in sequence order. */
        std::optional<ProfileData> partial;
        /** Next sequence number the partial is waiting for. */
        uint32_t next_seq = 0;
        /** Out-of-order arrivals, folded once the gap fills. */
        std::map<uint32_t, ProfileData> pending;
    };

    std::map<std::string, HostState> hosts_; ///< Sorted by host id.
    std::set<uint64_t> seen_checksums_;
    /** Periods/class of the first accepted shard (compat reference). */
    std::optional<ProfileData> compat_ref_;
    /** Workload of the first accepted shard; mixing is refused. */
    std::string workload_;
    /**
     * Module map reconciled across every accepted shard. Conflicting
     * placements are caught here, at the acceptance gate, so the merge
     * folds (which fatal() on conflicts) can never hit one.
     */
    std::vector<MmapRecord> mmaps_;

    uint32_t max_level_ = 0; ///< Deepest manifest level accepted.
    uint64_t epoch_ = 0; ///< Bumped per accepted shard.
    std::optional<ProfileData> cached_aggregate_;
    uint64_t aggregate_epoch_ = UINT64_MAX;

    size_t restored_ = 0; ///< Shards carried in by restoreState().
    AggregatorStats stats_;
};

/** Drop-directory watch parameters. */
struct WatchOptions
{
    /**
     * Stop once this many leaf shards are covered (counting any
     * restoreState() carry-in; equal to the accepted count when every
     * arrival is a leaf shard); 0 means scan the directory once and
     * return without waiting.
     */
    size_t expect = 0;
    /**
     * Give up after this long with no successful import. An *idle*
     * timeout, not a wall-clock deadline: every accepted shard resets
     * it, so a slow-but-steady trickle from many hosts is never
     * aborted mid-stream — only a genuinely stalled transport is.
     * Negative waits forever, like ListenOptions::idle_timeout_ms.
     */
    int timeout_ms = 10'000;
    /** Poll interval between directory scans. */
    int poll_ms = 50;
    /** Called after each accepted shard (e.g. to trigger analysis). */
    std::function<void(const ShardManifest &)> on_accept;
};

/**
 * Poll @p dir for `*.manifest` files and import each new one into
 * @p agg (scan order is sorted, so a fixed directory state aggregates
 * deterministically). Returns the number of accepted shards; inspect
 * agg.stats() for rejections. Files are judged once — a manifest that
 * fails to import is skipped on later scans, never retried.
 */
size_t watchAndAggregate(IncrementalAggregator &agg,
                         const std::string &dir,
                         const WatchOptions &options = {});

} // namespace hbbp

#endif // HBBP_FLEET_AGGREGATE_HH
