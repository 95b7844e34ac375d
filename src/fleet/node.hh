/**
 * @file
 * The ingest node — the one shard accept path every daemon shares.
 *
 * `aggregate` (over a socket or a drop directory) and RelayNode fold
 * arriving shards the same way: log one span event per stamped trace
 * id, register a metrics-advertising sender as a federation child,
 * deposit the shard's bytes into the shared ProfileStore, and make the
 * arrival durable in `--state` (one journal record, or a full
 * checkpoint) — all before the arrival is acknowledged. IngestNode
 * owns that path and everything it touches: the IncrementalAggregator,
 * the optional StateJournal, the ProfileStore and its StorePin, and a
 * borrowed MetricsFederator. Spans go to the process-wide event log
 * (support/events), tagged with the id the daemon opened it under.
 * What differs between daemons stays with the caller: the listener or
 * watcher that delivers arrivals, the query endpoint, and a relay's
 * upstream flushes.
 *
 * The pin rule: a node pins store entries only when it has `--state`,
 * under an owner derived from the state path alone. A pin covers the
 * window between the deposit and the journal record; a restarted node
 * with the same `--state` inherits a crashed predecessor's pins and
 * releases them once its restored state proves them durable. A node
 * without `--state` has no restart that could inherit a pin, so it
 * deposits unpinned.
 */

#ifndef HBBP_FLEET_NODE_HH
#define HBBP_FLEET_NODE_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "fleet/aggregate.hh"
#include "fleet/journal.hh"
#include "fleet/store.hh"

namespace hbbp {

class MetricsFederator;

/** IngestNode configuration. */
struct IngestOptions
{
    /** Span event logged per stamped trace id on each accepted arrival. */
    std::string accept_span = "root_fold";
    /** Checkpoint+journal base path; empty disables persistence. */
    std::string state_file;
    /** Shared profile store to deposit arrivals into; empty = none. */
    std::string store_dir;
    /** Federation parent hook (borrowed; may be null). */
    MetricsFederator *federator = nullptr;
};

/** The aggregator plus its durability and deposit, behind one path. */
class IngestNode
{
  public:
    explicit IngestNode(IngestOptions options);

    /**
     * Carry in the state a previous run left in `--state` (warning,
     * never dying, on a state that cannot be used) and release the
     * pins a crashed predecessor left behind. Returns the restored
     * shard count (0 on a cold start or without `--state`).
     */
    size_t restore();

    /**
     * The accept path, for an arrival the aggregator already folded:
     * @p chunks is the shard in transportable form (ListenOptions::
     * on_accept's third argument) and @p profile its assembly, which
     * a multi-chunk arrival deposits. Call before the arrival is
     * acknowledged.
     */
    void accept(const ShardManifest &m, const ProfileData *profile,
                const std::vector<std::string> &chunks);

    /**
     * accept() for a drop-directory import: the shard's verified
     * bytes are the profile file at @p path. A file that vanished
     * after the import is neither deposited nor journaled; the node
     * writes a full checkpoint instead, so durability does not depend
     * on the drop directory's hygiene.
     */
    void acceptFile(const ShardManifest &m, const std::string &path);

    /** Clean exit: every arrival is durable, drop this node's pins. */
    void release();

    IncrementalAggregator &aggregator() { return agg_; }

  private:
    IngestOptions options_;
    IncrementalAggregator agg_;
    std::optional<StateJournal> journal_;
    std::optional<ProfileStore> store_;
    std::optional<StorePin> pin_;
};

} // namespace hbbp

#endif // HBBP_FLEET_NODE_HH
