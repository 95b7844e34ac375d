/**
 * @file
 * The relay node — hierarchical fan-in for very large fleets.
 *
 * PR 4's socket transport made every collector dial one aggregator,
 * which caps fleet size on a single process's accept/fold throughput.
 * A RelayNode composes aggregators into arbitrary-depth fan-in trees:
 * it serves a ShardListener like any aggregation point, folds arriving
 * shards (leaf or aggregate — relays stack) with an
 * IncrementalAggregator, and pushes its own partial aggregate
 * *upstream* as a first-class shard over the existing ShardTransport —
 * a level-N+1 manifest whose payloads are the per-host partials, so the
 * parent splices them into its per-host state and the root aggregate
 * stays byte-identical to flat single-aggregator ingestion of the same
 * leaf shards, whatever the tree shape or arrival order.
 *
 * Flushes happen every `flush_every` accepted arrivals and always once
 * more on exit. An unreachable upstream is buffered, never fatal: the
 * relay keeps folding, retries on the next flush trigger, and only the
 * final flush's failure is reported as an error — with `--state`
 * (the arrival log) the folded shards survive even that, and a
 * restarted relay resumes and re-pushes. Out-of-order leaf shards
 * stranded behind a sequence gap cannot ride inside an aggregate
 * (coverage is a gap-free prefix), so they are forwarded upstream
 * verbatim as the leaf shards they are.
 */

#ifndef HBBP_FLEET_RELAY_HH
#define HBBP_FLEET_RELAY_HH

#include <cstdint>
#include <set>
#include <string>

#include "fleet/aggregate.hh"
#include "fleet/node.hh"
#include "fleet/transport.hh"

namespace hbbp {

class MetricsFederator;

/** RelayNode configuration. */
struct RelayOptions
{
    /** Downstream listen port (0 picks an ephemeral port). */
    uint16_t listen_port = 0;
    /** Downstream listen address (loopback by default, like
     * `aggregate --listen`). */
    std::string bind_addr = "127.0.0.1";
    /** Upstream aggregation point (the parent relay or the root). */
    std::string upstream_host = "127.0.0.1";
    uint16_t upstream_port = 0;
    /** Host id stamped on upstream aggregate shards (observability —
     * the fold keys on the covered hosts, not on this). */
    std::string relay_id = "relay";
    /**
     * Push the partial aggregate upstream after every N accepted
     * arrivals; 0 flushes only on exit. Small values trade upstream
     * traffic for freshness and a smaller loss window without
     * `--state`.
     */
    size_t flush_every = 0;
    /** Leaf shards to wait for downstream (covered count, counting
     * restored state); 0 serves until the idle timeout. */
    size_t expect = 0;
    /** Downstream idle timeout (matches ListenOptions semantics). */
    int idle_timeout_ms = 10'000;
    /** The state log (StateJournal); empty disables persistence. */
    std::string state_file;
    /** Upstream connection attempts per flush (bounded retry). */
    int upstream_retries = 5;
    /** Backoff before the first upstream reconnect; doubles per
     * retry (see SocketTransportOptions). */
    int upstream_backoff_ms = 100;
    /**
     * Profile store to deposit accepted shards into (shared,
     * multi-process-safe); empty disables. With `state_file` set, a
     * deposit stays pinned until it is journaled (see fleet/node.hh).
     */
    std::string store_dir;
    /**
     * This relay's own metrics scrape address (`host:port`), stamped
     * as a `metrics=` line on every aggregate flushed upstream so the
     * parent can federate metrics from it; empty advertises nothing.
     */
    std::string metrics_endpoint;
    /**
     * When set, arriving shards that advertise a `metrics=` endpoint
     * register their sender as a federation child (borrowed, not
     * owned; must outlive run()).
     */
    MetricsFederator *federator = nullptr;
};

/** What a relay run did (the no-shard-loss proof). */
struct RelayStats
{
    size_t accepted = 0;  ///< Arrivals accepted downstream this run.
    size_t covered = 0;   ///< Leaf shards covered at exit.
    size_t restored = 0;  ///< Shards carried in from --state.
    size_t flushes = 0;   ///< Successful upstream aggregate pushes.
    size_t flush_failures = 0; ///< Upstream pushes that gave up (the
                               ///< data stays buffered for the next).
    size_t orphans_forwarded = 0; ///< Gap-stranded leaves sent verbatim.
    /** The final flush delivered everything the relay holds. */
    bool upstream_ok = false;
    /** Final-flush diagnostic when !upstream_ok. */
    std::string error;
};

/** One node of a fan-in tree: listen, fold, push partials upstream. */
class RelayNode
{
  public:
    /** Binds the downstream listener; fatal() like ShardListener. */
    explicit RelayNode(RelayOptions options);

    /** The bound downstream port (what collectors connect to). */
    uint16_t port() const { return listener_.port(); }

    /**
     * Restore state (when configured), serve downstream until the
     * expected coverage or the idle timeout, flushing upstream per
     * flush_every, then push one final flush. Returns the run's
     * stats; upstream_ok=false means the upstream never took the
     * final state — nothing is lost (the aggregator still holds it,
     * and --state persists it), but the caller should exit loudly.
     */
    RelayStats run();

    /**
     * Push the current partial aggregate (and any orphans) upstream
     * now. No-op when nothing changed since the last successful
     * flush. False with *@p why on a failed push; the data stays
     * buffered and the next flush retries it. @p max_attempts caps
     * the connection attempts for this flush (0 uses the configured
     * upstream_retries); mid-run flushes run from inside the accept
     * path, so run() gives them a single attempt and saves the full
     * retry budget for the final flush.
     */
    bool flushUpstream(std::string *why = nullptr,
                       int max_attempts = 0);

    /** The relay's aggregator (tests and embedding callers). */
    IncrementalAggregator &aggregator() { return node_.aggregator(); }

  private:
    RelayOptions options_;
    IngestNode node_;
    ShardListener listener_;
    uint32_t flush_seq_ = 0;
    uint64_t last_flushed_checksum_ = 0;
    std::set<uint64_t> forwarded_orphans_;
    size_t accepted_since_flush_ = 0;
    RelayStats stats_;
    /**
     * Every stamped trace id accepted this run, sorted (std::set) so
     * the outgoing aggregate's `trace=` line is deterministic. Only
     * *stamped* arrivals propagate: tracing is opt-in at the
     * collector, and an unstamped fleet must keep rendering the exact
     * pre-tracing manifest bytes.
     */
    std::set<std::string> seen_trace_ids_;
};

} // namespace hbbp

#endif // HBBP_FLEET_RELAY_HH
