/**
 * @file
 * The analysis-query wire layer: how QueryRequests travel to a
 * serving daemon and QueryResults travel back.
 *
 * Query connections share the ShardListener's port — a query client
 * dials the same HOST:PORT the collectors push shards to — and are
 * told apart by their opening magic: shard frames start with
 * kFrameMagic ("HBPSFRM2"), query frames with kQueryFrameMagic
 * ("HBPQRY01"). Keeping both on one port keeps ALL aggregator access
 * on the listener's single poll thread: query handlers run between
 * shard frames, never concurrently with a fold, so the daemon needs
 * no locks and stays TSan-clean. Concurrent queriers are multiplexed
 * by poll(), not threads.
 *
 * Framing follows the PR-4 shard idiom, minimal form: a query frame
 * is `u64 magic | u32 body_len | body`, the reply mirrors it with
 * kQueryReplyMagic. Bodies are the versioned text forms from
 * analysis/service.hh (hbbp-query/1 requests) and the reply body
 * below — headers first, then a blank line, then the rendered
 * payload:
 *
 *   hbbp-reply/1
 *   status=ok
 *   epoch=7
 *   cached=1
 *
 *   <payload bytes>
 */

#ifndef HBBP_FLEET_QUERY_HH
#define HBBP_FLEET_QUERY_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "analysis/service.hh"
#include "fleet/aggregate.hh"

namespace hbbp {

/** First 8 bytes of a query frame ("HBPQRY01", little-endian). */
constexpr uint64_t kQueryFrameMagic = 0x3130595251504248ULL;

/** First 8 bytes of a reply frame ("HBPQRP01", little-endian). */
constexpr uint64_t kQueryReplyMagic = 0x3130505251504248ULL;

/** Query/reply frame header: u64 magic + u32 body length. */
constexpr size_t kQueryFrameHeaderBytes = 12;

/** Bound on a query or reply body a peer can make us buffer. */
constexpr size_t kMaxQueryBodyBytes = 1u << 20;

/** Frame @p body as a query frame (magic + length prefix + body). */
std::string encodeQueryFrame(const std::string &body);

/** A parsed reply body. */
struct QueryReply
{
    bool ok = false;
    uint64_t epoch = 0;
    bool cached = false;
    std::string error;   ///< Set when !ok.
    std::string payload; ///< The rendered QueryResult bytes.
    /**
     * Server-side time split, rendered as
     * `timing=parse:N,cache:N,analysis:N,render:N` (nanoseconds)
     * when has_timing — where the request's wall time went: request
     * parse, cache probe (epoch refresh + result-cache lookup),
     * analysis build (0 on a cache hit), payload render. Older
     * clients skip the header; older servers simply never send it.
     */
    bool has_timing = false;
    uint64_t parse_ns = 0;
    uint64_t cache_ns = 0;
    uint64_t analysis_ns = 0;
    uint64_t render_ns = 0;
    /**
     * Query trace id (`trace=` header) when the serving daemon runs
     * with --event-log: the id of the query_serve span event it
     * appended, so a reply can be joined to the shard-lifecycle trace
     * timeline.
     */
    std::string trace_id;
};

/** Serialize a reply body (headers, blank line, payload). */
std::string renderQueryReplyBody(const QueryReply &reply);

/** Parse a reply body; false with *@p why on malformed input. */
bool parseQueryReplyBody(const std::string &body, QueryReply *reply,
                         std::string *why);

/** A ready-made status=error reply body (epoch 0, not cached). */
std::string queryErrorReplyBody(const std::string &error);

/**
 * The client side: connects lazily, keeps the connection for
 * back-to-back queries, and reconnects once per query() call after a
 * failure.
 * Built on the shared socket-client discipline (connect deadline, IO
 * timeouts, progress-stalled close).
 */
class QueryClient
{
  public:
    QueryClient(std::string host, uint16_t port,
                int io_timeout_ms = 30'000);
    ~QueryClient();

    QueryClient(const QueryClient &) = delete;
    QueryClient &operator=(const QueryClient &) = delete;

    /**
     * Send one request body, await the framed reply, parse it into
     * *@p reply. False with *@p why on connection, framing or
     * protocol failure; a status=error reply is a *successful* call
     * with reply->ok == false.
     */
    bool query(const std::string &request_body, QueryReply *reply,
               std::string *why);

  private:
    bool ensureConnected(std::string *why);
    void disconnect();

    std::string host_;
    uint16_t port_ = 0;
    int io_timeout_ms_ = 30'000;
    int fd_ = -1;
};

/**
 * The live-aggregator profile source: epoch is the aggregator's
 * invalidation epoch, slices come from its per-host partials. Valid
 * only on the thread that folds shards (the listener's serve loop).
 */
class AggregatorProfileSource : public ProfileSource
{
  public:
    explicit AggregatorProfileSource(IncrementalAggregator &agg)
        : agg_(agg)
    {
    }

    uint64_t epoch() const override { return agg_.epoch(); }
    std::string workloadName() const override
    {
        return agg_.workloadName();
    }
    const ProfileData *profile() override
    {
        // aggregate() fatal()s on an empty aggregator; an empty
        // source must answer "nothing yet" instead.
        return agg_.hostCount() == 0 ? nullptr : &agg_.aggregate();
    }
    const ProfileData *hostProfile(const std::string &host) override
    {
        return agg_.hostPartial(host);
    }
    std::vector<HostSlice> hostSlices() const override;

  private:
    IncrementalAggregator &agg_;
};

/**
 * The server side: turns raw query bodies into raw reply bodies over
 * an AnalysisService. Plugged into ListenOptions::on_query; also
 * implements the transport-level `shutdown` verb (reply ok, then
 * stopRequested() flips, which the co-hosted listener polls via
 * should_stop — the daemon's deterministic exit).
 *
 * While the process event log is open, every served query appends one
 * `query_serve` span event with a fresh `query-<node>-<seq>` trace id,
 * which the reply echoes in its `trace=` header — the query's join
 * point into the ingestion trace timeline.
 */
class QueryEndpoint
{
  public:
    explicit QueryEndpoint(AnalysisService &service);

    /** One request body in, one reply body out. Never throws. */
    std::string handle(const std::string &request_body);

    /** True once a shutdown query was acknowledged. */
    bool stopRequested() const { return stop_; }

  private:
    AnalysisService &service_;
    bool stop_ = false;
    uint64_t query_seq_ = 0;
};

} // namespace hbbp

#endif // HBBP_FLEET_QUERY_HH
