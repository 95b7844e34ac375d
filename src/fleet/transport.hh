/**
 * @file
 * The shard transport layer — how shards travel from collector hosts
 * to the aggregation point.
 *
 * ShardTransport is the sender-side seam: a shard is a manifest plus
 * one or more *chunks* (each a self-validating serialized profile
 * whose in-order merge is the shard), and a transport delivers them
 * somewhere an aggregator can fold them in. Two implementations ship:
 *
 *  - DropDirTransport writes profile-then-manifest into a drop
 *    directory (the PR-3 stand-in, now behind the interface): a shared
 *    filesystem or object store is the medium, watchAndAggregate() the
 *    receiving end.
 *  - SocketTransport pushes length-prefixed frames over TCP to a
 *    ShardListener, with bounded retry/backoff and mid-stream resume:
 *    every frame is acknowledged, so a reconnecting sender continues
 *    from its first unacknowledged chunk instead of starting over.
 *    Multi-chunk sends frame each chunk `status=partial` and finalize
 *    with a `status=complete` frame: a chunk bounds one frame's size,
 *    and a resumed send skips the chunks already acknowledged. The
 *    sender holds every chunk before the first frame goes out.
 *
 * The receiving end verifies every chunk's payload checksum on
 * receipt, stages partial chunks per (host, seq), and only hands the
 * aggregator a shard once the complete frame's merged payload matches
 * the checksum the manifest promises — a truncated or corrupt transfer
 * can be retried, never folded in.
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

/** Delivers shards (manifest + chunked payload) to an aggregator. */
class ShardTransport
{
  public:
    virtual ~ShardTransport() = default;

    /**
     * Deliver one shard. @p chunks are serialized profiles (the bytes
     * ProfileData::serialize() emits) whose in-order merge is the
     * shard; @p manifest.checksum must be the merged payload's
     * checksum. A single chunk is the common complete-in-one-frame
     * case.
     */
    virtual SendResult sendShard(const ShardManifest &manifest,
                                 const std::vector<std::string> &chunks)
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
     * Multi-chunk shards are merged locally first: a directory has no
     * streaming, so the "transport" degenerates to one complete file.
     * Aggregate shards (manifest level >= 1) are refused: a single
     * file cannot carry the per-host chunk split their fold needs.
     */
    SendResult sendShard(const ShardManifest &manifest,
                         const std::vector<std::string> &chunks) override;

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

/** The socket push transport: stream frames to a ShardListener. */
class SocketTransport : public ShardTransport
{
  public:
    explicit SocketTransport(SocketTransportOptions options)
        : options_(std::move(options))
    {
    }

    /**
     * Push the shard chunk by chunk, waiting for the per-frame ack.
     * Connection failures retry with exponential backoff up to
     * max_attempts, resuming from the first unacknowledged chunk; a
     * receiver that lost its staged chunks (it restarted) answers
     * "incomplete" and the send resumes from chunk 0. A *rejection*
     * (incompatible shard, checksum mismatch) is permanent — retrying
     * would produce the same answer — and fails immediately.
     *
     * Test hook: @p fail_after_chunks >= 0 makes the sender exit the
     * process (code 3) after that many chunk frames are acknowledged,
     * simulating a collector crash mid-stream.
     */
    SendResult sendShard(const ShardManifest &manifest,
                         const std::vector<std::string> &chunks) override;

    int fail_after_chunks = -1;

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
     * Give up after this long with no successfully processed frame —
     * an idle timeout (any accepted chunk resets it), matching the
     * watcher's slow-trickle-friendly semantics. Negative never gives
     * up.
     */
    int idle_timeout_ms = 10'000;
    /**
     * Called after each accepted shard — after the aggregator folded
     * it but *before* the ack goes out, so a sender's success implies
     * the callback (state log append, store deposit) completed. The
     * third argument is the shard in transportable form — the
     * assembled serialized shard for a leaf, the per-host partial
     * chunks (aligned with manifest.covered) for an aggregate — so a
     * journaling callback can record the arrival verbatim without
     * re-deriving it.
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
 * concurrent sender connections, verifies and stages their frames, and
 * folds completed shards into an IncrementalAggregator.
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
     * call (agg.stats() has the cumulative picture). Chunks staged for
     * an unfinished shard do not survive serve() returning — an
     * interrupted sender simply retries from scratch.
     */
    size_t serve(IncrementalAggregator &agg,
                 const ListenOptions &options = {});

  private:
    int listen_fd_ = -1;
    uint16_t port_ = 0;
};

} // namespace hbbp

#endif // HBBP_FLEET_TRANSPORT_HH
