/**
 * @file
 * The ingest node — the one shard accept path every daemon shares.
 *
 * `aggregate` (over a socket or a drop directory) and RelayNode fold
 * arriving shards the same way: log one span event per stamped trace
 * id, register a metrics-advertising sender as a federation child,
 * deposit the shard's bytes into the shared ProfileStore, and append
 * the arrival as received to the `--state` log — all before the
 * arrival is acknowledged. Every arrival reaches the node with its
 * bytes: the payloads of the listener's frame, or the profile file a
 * drop-directory import already read and verified. IngestNode owns that path and
 * everything it touches: the IncrementalAggregator, the optional
 * StateJournal, the ProfileStore and its StorePin, and a borrowed
 * MetricsFederator. Spans go to the process-wide event log
 * (support/events), tagged with the id the daemon opened it under.
 * What differs between daemons stays with the caller: the listener or
 * watcher that delivers arrivals, the query endpoint, and a relay's
 * upstream flushes.
 *
 * The pin rule: a node pins store entries only when it has `--state`,
 * under an owner derived from the state path alone. A pin covers the
 * window between the deposit and the log append; a restarted node
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
    /** The state log (StateJournal); empty disables persistence. */
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
     * arrival count (0 on a cold start or without `--state`).
     */
    size_t restore();

    /**
     * The accept path, for an arrival the aggregator already folded:
     * @p payloads is the arrival in transportable form (ListenOptions::
     * on_accept's third argument, or the one profile file a
     * WatchOptions::on_accept hands over) and @p profile its profile,
     * which an aggregate of several hosts deposits (may be null
     * otherwise). Call before the arrival is acknowledged.
     */
    void accept(const ShardManifest &m, const ProfileData *profile,
                const std::vector<std::string> &payloads);

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
