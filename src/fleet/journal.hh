/**
 * @file
 * Incremental aggregator-state journaling.
 *
 * PR 4's `--state` checkpoint rewrites the whole aggregator state per
 * accepted shard — O(aggregate size) I/O per arrival, which a large
 * fleet turns into the ingest bottleneck. StateJournal keeps the same
 * crash-resume contract at O(shard size) per arrival: each accepted
 * arrival appends one self-checksummed record (the manifest plus the
 * shard in transportable form) to `<state>.journal`, and every
 * `compact_every` records the full checkpoint is rewritten and the
 * journal truncated. Restore loads the checkpoint, then replays the
 * journal through the aggregator's own fold — the checksum-dedup gate
 * makes replay idempotent, so the checkpoint-then-truncate ordering
 * can crash anywhere and still restore to the exact same bytes as an
 * aggregator that rewrote its state on every arrival.
 *
 * A torn tail record (the process died mid-append) is detected by the
 * record checksum and dropped with a warning; everything before it
 * replays. The shard a torn record carried was never acknowledged —
 * the per-accept record is written *before* the transport ack — so
 * its sender retries it, and nothing is lost.
 */

#ifndef HBBP_FLEET_JOURNAL_HH
#define HBBP_FLEET_JOURNAL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "fleet/aggregate.hh"
#include "fleet/manifest.hh"

namespace hbbp {

/** Journaled checkpointing around an IncrementalAggregator. */
class StateJournal
{
  public:
    /**
     * Journal accepted arrivals against the checkpoint at @p
     * checkpoint_path, appending to `<checkpoint_path>.journal` and
     * compacting after @p compact_every records (>= 1).
     */
    explicit StateJournal(std::string checkpoint_path,
                         size_t compact_every = 32);

    /**
     * Restore @p agg (which must be fresh) from the checkpoint plus a
     * journal replay, then mark everything carried in as restored.
     * Returns true when any state was carried in; false with *@p why
     * set on a cold start (no checkpoint and no replayable records —
     * *why explains a checkpoint that existed but could not be used).
     */
    bool restore(IncrementalAggregator &agg, std::string *why = nullptr);

    /**
     * Record one accepted arrival: @p chunks is the shard in
     * transportable form (the assembled serialized shard for a leaf
     * manifest, the per-host partials aligned with manifest.covered
     * for an aggregate). Appends one O(shard) record, then compacts
     * (full @p agg checkpoint + journal truncation) once the
     * threshold is reached. Call after the fold and before the
     * arrival is acknowledged, like saveState() was.
     */
    void record(IncrementalAggregator &agg, const ShardManifest &manifest,
                const std::vector<std::string> &chunks);

    /** Rewrite the full checkpoint now and truncate the journal. */
    void compact(IncrementalAggregator &agg);

    /** Journal records replayed by restore() (0 on a cold start). */
    size_t replayedRecords() const { return replayed_; }

    /** Records appended since the last compaction (restore counts). */
    size_t pendingRecords() const { return pending_records_; }

    const std::string &checkpointPath() const { return checkpoint_; }
    const std::string &journalPath() const { return journal_; }

  private:
    std::string checkpoint_;
    std::string journal_;
    size_t compact_every_;
    size_t pending_records_ = 0;
    size_t replayed_ = 0;
};

} // namespace hbbp

#endif // HBBP_FLEET_JOURNAL_HH
