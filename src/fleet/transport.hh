/**
 * @file
 * The shard transport layer — how shards travel from collector hosts
 * to the aggregation point.
 *
 * ShardTransport is the sender-side seam: a shard is a manifest plus
 * its *payloads* (self-validating serialized profiles: the one shard
 * of a leaf, one folded partial per covered host of a relay's
 * aggregate), and a transport delivers them somewhere an aggregator
 * can fold them in. Two implementations ship:
 *
 *  - DropDirTransport writes profile-then-manifest into a drop
 *    directory: a shared filesystem or object store is the medium,
 *    watchAndAggregate() the receiving end.
 *  - SocketTransport pushes a shard to a ShardListener as one frame
 *    over TCP and retries the whole frame, with bounded backoff, until
 *    the listener acknowledges it. The frame's body is the arrival's
 *    envelope (ArrivalParts, fleet/manifest.hh) — the bytes a state-log
 *    record holds:
 *
 *      u64 magic      "HBPSFRM2"
 *      u64 body_len   bytes of envelope after the header
 *      u64 checksum   encodeArrival()'s checksum of the envelope
 *      envelope       manifest text, payload count, payloads
 *
 * The listener splits and verifies each frame, parses every payload,
 * checks the shard against the checksum its manifest promises, folds
 * it and answers once: accepted, duplicate or rejected. A truncated or
 * corrupt transfer can be retried, never folded in.
 */

#ifndef HBBP_FLEET_TRANSPORT_HH
#define HBBP_FLEET_TRANSPORT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fleet/aggregate.hh"
#include "fleet/manifest.hh"

namespace hbbp {

/** What one sendShard() attempt chain ended as. */
struct SendResult
{
    /** The shard is aggregated (or already was — see duplicate). */
    bool ok = false;
    /** The receiver had the payload already (a retried delivery). */
    bool duplicate = false;
    /** Connection attempts consumed (1 = first try succeeded). */
    int attempts = 0;
    /** Failure or rejection diagnostic when !ok. */
    std::string error;
};

/** Delivers shards (manifest + payloads) to an aggregator. */
class ShardTransport
{
  public:
    virtual ~ShardTransport() = default;

    /**
     * Deliver one shard. @p payloads are serialized profiles (the
     * bytes ProfileData::serialize() emits): the shard itself for a
     * leaf manifest, one partial per manifest.covered entry (in that
     * order) for an aggregate. @p manifest.checksum must be the
     * checksum of the shard, or of the partials' merge.
     */
    virtual SendResult sendShard(const ShardManifest &manifest,
                                 const std::vector<std::string> &payloads)
        = 0;
};

/** The drop-directory transport: export into a watched directory. */
class DropDirTransport : public ShardTransport
{
  public:
    explicit DropDirTransport(std::string dir) : dir_(std::move(dir)) {}

    /**
     * Writes `<host>-<seq>-<checksum>.hbbp` then the `.manifest`
     * beside it (both atomic, manifest last — see exportShard()).
     * Aggregate shards (manifest level >= 1) are refused: a drop-dir
     * file holds one profile, and their fold needs one payload per
     * covered host.
     */
    SendResult sendShard(const ShardManifest &manifest,
                         const std::vector<std::string> &payloads) override;

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
};

/** SocketTransport connection and retry policy. */
struct SocketTransportOptions
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /** Total connection attempts before giving up (>= 1). */
    int max_attempts = 5;
    /** Backoff before the first reconnect; doubles per retry. */
    int backoff_ms = 100;
    /** Cap on the doubled backoff. */
    int max_backoff_ms = 2'000;
    /** Per-operation socket send/receive timeout. */
    int io_timeout_ms = 30'000;
};

/** The socket push transport: one frame per shard to a ShardListener. */
class SocketTransport : public ShardTransport
{
  public:
    explicit SocketTransport(SocketTransportOptions options)
        : options_(std::move(options))
    {
    }

    /**
     * Push the shard as one frame and wait for its ack. A connection
     * failure, or a connection lost before the ack, resends the whole
     * frame after an exponential backoff, up to max_attempts; a
     * listener that already folded it answers "duplicate", which is
     * success. A *rejection* (incompatible shard, checksum mismatch)
     * is permanent — retrying would produce the same answer — and
     * fails immediately.
     */
    SendResult sendShard(const ShardManifest &manifest,
                         const std::vector<std::string> &payloads) override;

  private:
    SocketTransportOptions options_;
};

/** ShardListener serve parameters (the socket analogue of watching). */
struct ListenOptions
{
    /**
     * Stop once this many leaf shards are covered, counting what a
     * state-log replay carried in (equal to the accepted count when every
     * arrival is a leaf shard; an aggregate arrival covers all of its
     * hosts' leaves at once); 0 means serve until the idle timeout.
     */
    size_t expect = 0;
    /**
     * Give up after this long with no progress — an idle timeout (any
     * received byte or answered frame resets it), matching the
     * watcher's slow-trickle-friendly semantics. Negative never gives
     * up.
     */
    int idle_timeout_ms = 10'000;
    /**
     * Called after each accepted shard — after the aggregator folded
     * it but *before* the ack goes out, so a sender's success implies
     * the callback (state log append, store deposit) completed. The
     * second argument is the shard's profile (a leaf's own, a relay
     * flush's merged partials); the third is the frame's payloads —
     * the serialized shard of a leaf, the per-host partials (aligned
     * with manifest.covered) of an aggregate — so a journaling
     * callback can record the arrival verbatim without re-deriving
     * it.
     */
    std::function<void(const ShardManifest &, const ProfileData &,
                       const std::vector<std::string> &)>
        on_accept;
    /**
     * Analysis-query handler: body in, reply body out (the listener
     * does the framing — see fleet/query.hh for the wire format).
     * Query connections share the shard port and are told apart by
     * their opening magic; with no handler set they get one error
     * reply and are closed. Handlers run on the serve() thread, so
     * they may touch the aggregator without locking.
     */
    std::function<std::string(const std::string &)> on_query;
    /**
     * Polled once per loop round; returning true ends serve() as if
     * the expected count had been reached. Lets a co-hosted query
     * endpoint (e.g. a `shutdown` verb) stop the daemon cleanly.
     */
    std::function<bool()> should_stop;
};

/**
 * The receiving end of SocketTransport: accepts any number of
 * concurrent sender connections, verifies each frame and folds its
 * shard into an IncrementalAggregator. A malformed frame header, or a
 * sender that hangs up mid-frame, costs its connection and a warning;
 * every frame that arrives whole gets exactly one ack. A sender of the
 * chunked `HBPSFRM1` frames of older builds gets a rejection naming
 * the upgrade.
 */
class ShardListener
{
  public:
    /**
     * Bind and listen on @p bind_addr:@p port (0 picks an ephemeral
     * port — read it back with port()); fatal() when the port is
     * taken or the address does not parse. The default binds loopback
     * for local pipelines and tests; a real aggregation point passes
     * "0.0.0.0" (CLI: `aggregate --listen PORT --bind 0.0.0.0`) to
     * accept collector hosts from the network.
     */
    explicit ShardListener(uint16_t port,
                           const std::string &bind_addr = "127.0.0.1");
    ~ShardListener();

    ShardListener(const ShardListener &) = delete;
    ShardListener &operator=(const ShardListener &) = delete;

    /** The bound port (the one senders connect to). */
    uint16_t port() const { return port_; }

    /**
     * Serve until @p options.expect shards are aggregated or the idle
     * timeout passes. Returns the number of shards accepted by this
     * call (agg.stats() has the cumulative picture).
     */
    size_t serve(IncrementalAggregator &agg,
                 const ListenOptions &options = {});

  private:
    int listen_fd_ = -1;
    uint16_t port_ = 0;
};

} // namespace hbbp

#endif // HBBP_FLEET_TRANSPORT_HH
