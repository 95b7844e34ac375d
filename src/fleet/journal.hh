/**
 * @file
 * The aggregator's durable state: one append-only log of arrivals.
 *
 * The file `--state` names is a log of framed records. Each record is
 * one accepted arrival exactly as it was received — the manifest plus
 * its chunks: the serialized shard of a leaf, the per-host partials of
 * a relay flush — appended before the arrival is acknowledged, at
 * O(shard) I/O. Restore replays the log through the aggregator's own
 * fold, so a restarted aggregator lands on the same bytes as one that
 * never stopped. Nothing is ever re-encoded: the state is the arrivals.
 *
 * Relay flushes make older records redundant: the leaf shards a flush
 * covers, and earlier flushes of the same hosts (the aggregator's
 * per-host lineage says which, IncrementalAggregator::superseded()).
 * Every `compact_every` records, once those superseded bytes reach the
 * live ones, the log is rewritten with the live records copied
 * verbatim behind one record listing the dropped checksums, so a
 * re-delivery of a dropped arrival still confirms as a duplicate. A
 * restore drops superseded records the same way, since it has read the
 * whole log anyway. A log of leaves only is never rewritten.
 *
 * Every frame carries its position in the log and a checksum of its
 * body. A torn append (the process died mid-write), a flipped byte or
 * a record out of place stops the replay there with a warning, and the
 * file is cut back to the intact prefix, so later appends stay
 * reachable. The record a torn append carried was never acknowledged,
 * so its sender retries it and nothing is lost.
 *
 * A state from an older build — an `HBBPAGGS` checkpoint at `<state>`
 * or a `<state>.journal` beside it — is never read: restore warns that
 * its shards must be re-imported, removes it, and starts cold.
 */

#ifndef HBBP_FLEET_JOURNAL_HH
#define HBBP_FLEET_JOURNAL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/aggregate.hh"
#include "fleet/manifest.hh"

namespace hbbp {

/** The arrival log that makes an IncrementalAggregator durable. */
class StateJournal
{
  public:
    /**
     * Log accepted arrivals to @p path, checking every @p
     * compact_every records (>= 1) whether a rewrite pays.
     */
    explicit StateJournal(std::string path, size_t compact_every = 32);

    /**
     * Replay the log into @p agg (which must be fresh), then mark
     * everything carried in as restored. Damage is warned about and
     * cut off, never fatal. Returns true when any arrival was carried
     * in; false with *@p why set on a cold start.
     */
    bool restore(IncrementalAggregator &agg, std::string *why = nullptr);

    /**
     * Append one accepted arrival: @p chunks is the arrival in
     * transportable form (the serialized shard of a leaf manifest, the
     * per-host partials aligned with manifest.covered of an aggregate)
     * and must not be empty. Call after the fold and before the
     * arrival is acknowledged.
     */
    void record(IncrementalAggregator &agg, const ShardManifest &manifest,
                const std::vector<std::string> &chunks);

    /**
     * Rewrite the log without the records @p agg no longer needs; a
     * no-op when none is superseded.
     */
    void compact(IncrementalAggregator &agg);

    /** Arrival records replayed by restore() (0 on a cold start). */
    size_t replayedRecords() const { return replayed_; }

    /**
     * Records appended since the log was last rewritten (a restore
     * counts the records it replayed and kept).
     */
    size_t pendingRecords() const { return pending_records_; }

    /**
     * Bytes of the records the state still needs, as of the last
     * check: the live arrivals and the dropped-checksums record.
     */
    uint64_t liveBytes() const { return live_bytes_; }

    /** The log (the one file; both names are kept for callers). */
    const std::string &checkpointPath() const { return path_; }
    const std::string &journalPath() const { return path_; }

  private:
    /** One arrival record in the log. */
    struct Entry
    {
        ShardManifest manifest;
        uint64_t offset = 0; ///< Frame start in the file.
        uint64_t size = 0;   ///< Frame bytes.
        bool superseded = false;
    };

    /** Move records @p agg no longer needs to the superseded side. */
    void markSuperseded(const IncrementalAggregator &agg);

    /** Rewrite @p log (the current file) as dropped list + live. */
    void rewrite(const std::string &log);

    std::string path_;
    size_t compact_every_;
    size_t pending_records_ = 0;
    size_t replayed_ = 0;
    std::vector<Entry> entries_;
    /** Checksums listed by the log's opening record. */
    std::vector<uint64_t> dropped_;
    uint64_t dropped_bytes_ = 0; ///< That record's frame (0 if none).
    uint64_t live_bytes_ = 0;
    uint64_t superseded_bytes_ = 0;
    uint64_t end_ = 0; ///< File size: where the next frame goes.
    /** agg.stats().aggregates at the last markSuperseded() walk: only
     * an accepted relay flush can supersede anything. */
    size_t aggregates_walked_ = 0;
};

} // namespace hbbp

#endif // HBBP_FLEET_JOURNAL_HH
