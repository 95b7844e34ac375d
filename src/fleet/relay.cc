#include "fleet/relay.hh"

#include <utility>

#include "support/events.hh"
#include "support/logging.hh"
#include "support/telemetry.hh"

namespace hbbp {

namespace {

IngestOptions
ingestOptions(const RelayOptions &ro)
{
    IngestOptions io;
    io.accept_span = "relay_accept";
    io.state_file = ro.state_file;
    io.store_dir = ro.store_dir;
    io.federator = ro.federator;
    return io;
}

} // namespace

RelayNode::RelayNode(RelayOptions options)
    : options_(std::move(options)), node_(ingestOptions(options_)),
      listener_(options_.listen_port, options_.bind_addr)
{
    telemetry::beatEnable(telemetry::Stage::Flush);
}

bool
RelayNode::flushUpstream(std::string *why, int max_attempts)
{
    std::string local;
    std::string *out = why ? why : &local;
    IncrementalAggregator &agg = node_.aggregator();
    PartialExport ex = agg.exportPartials();
    if (ex.partials.empty() && ex.orphans.empty())
        return true;

    SocketTransportOptions so;
    so.host = options_.upstream_host;
    so.port = options_.upstream_port;
    so.max_attempts = max_attempts > 0
                          ? max_attempts
                          : std::max(options_.upstream_retries, 1);
    so.backoff_ms = options_.upstream_backoff_ms;
    SocketTransport transport(so);

    static telemetry::Counter &m_flushes =
        telemetry::counter("hbbp_relay_flushes_total");
    static telemetry::Counter &m_flush_failures =
        telemetry::counter("hbbp_relay_flush_failures_total");
    static telemetry::Counter &m_orphans =
        telemetry::counter("hbbp_relay_orphans_forwarded_total");

    if (!ex.partials.empty() &&
        ex.checksum != last_flushed_checksum_) {
        ShardManifest m;
        m.version = kManifestVersionAggregate;
        m.host = options_.relay_id;
        m.workload = ex.workload;
        m.seq = flush_seq_;
        m.checksum = ex.checksum;
        // One level above the deepest input: leaf-only relays export
        // level 1, a relay-of-relays exports one deeper, and so on.
        m.level = agg.maxLevelSeen() + 1;
        // The aggregate carries every stamped trace id it folded, so
        // the next level up (or the root) can attribute the arrival
        // back to individual collector shards.
        m.trace_ids.assign(seen_trace_ids_.begin(),
                           seen_trace_ids_.end());
        // Advertise this relay's scrape address: federation endpoint
        // discovery rides the shard tree.
        m.metrics_endpoint = options_.metrics_endpoint;
        std::vector<std::string> payloads;
        payloads.reserve(ex.partials.size());
        for (HostPartial &hp : ex.partials) {
            m.covered.push_back({hp.host, hp.covered});
            payloads.push_back(std::move(hp.bytes));
        }
        // Span the flush as it *starts*: the upstream's own accept
        // span (root_fold or a parent's relay_accept) lands between
        // our send and its ack, so logging afterwards would put this
        // relay's span after its parent's and break the lifecycle's
        // timestamp monotonicity. A failed flush leaves the span as a
        // record of the attempt.
        if (events::logActive()) {
            std::string agg_id = shardTraceId(m);
            for (const std::string &id : m.trace_ids)
                events::emit(events::Level::Info, "relay_flush",
                             {{"trace", id}, {"aggregate", agg_id}});
        }
        SendResult res = transport.sendShard(m, payloads);
        if (!res.ok) {
            stats_.flush_failures++;
            m_flush_failures.add();
            *out = res.error;
            return false;
        }
        // A duplicate ack means the upstream already holds this exact
        // coverage (a retried or restarted flush) — success either way.
        stats_.flushes++;
        m_flushes.add();
        telemetry::beat(telemetry::Stage::Flush);
        last_flushed_checksum_ = ex.checksum;
        flush_seq_++;
    }

    for (OrphanShard &orphan : ex.orphans) {
        if (forwarded_orphans_.count(orphan.checksum))
            continue;
        ShardManifest m;
        m.host = orphan.host;
        m.workload = ex.workload;
        m.seq = orphan.seq;
        m.checksum = orphan.checksum;
        SendResult res = transport.sendShard(m, {orphan.bytes});
        if (!res.ok) {
            stats_.flush_failures++;
            *out = format("forwarding orphan shard %s/%u: %s",
                          orphan.host.c_str(), orphan.seq,
                          res.error.c_str());
            return false;
        }
        forwarded_orphans_.insert(orphan.checksum);
        stats_.orphans_forwarded++;
        m_orphans.add();
    }
    accepted_since_flush_ = 0;
    return true;
}

RelayStats
RelayNode::run()
{
    stats_.restored = node_.restore();

    ListenOptions lo;
    lo.expect = options_.expect;
    lo.idle_timeout_ms = options_.idle_timeout_ms;
    lo.on_accept = [&](const ShardManifest &m, const ProfileData &pd,
                       const std::vector<std::string> &payloads) {
        // Durable before the downstream ack: the sender's success must
        // imply the arrival survives this relay, exactly as at a root.
        node_.accept(m, &pd, payloads);
        seen_trace_ids_.insert(m.trace_ids.begin(), m.trace_ids.end());
        accepted_since_flush_++;
        if (options_.flush_every > 0 &&
            accepted_since_flush_ >= options_.flush_every) {
            std::string why;
            // A failed flush is buffering, not an error: the partial
            // stays here and the next trigger (or the final flush)
            // retries a strictly fresher superset of it. One attempt
            // only — this runs before the downstream ack, and a dead
            // upstream must not turn the serve loop's accepts into
            // retry loops that time downstream senders out.
            if (!flushUpstream(&why, /*max_attempts=*/1))
                warn("upstream flush failed, buffering: %s",
                     why.c_str());
        }
    };
    stats_.accepted = listener_.serve(node_.aggregator(), lo);
    stats_.covered = node_.aggregator().coveredShards();

    std::string why;
    stats_.upstream_ok = flushUpstream(&why);
    if (!stats_.upstream_ok)
        stats_.error = why;
    node_.release();
    return stats_;
}

} // namespace hbbp
