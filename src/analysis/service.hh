/**
 * @file
 * The analysis-query service: one typed QueryRequest → QueryResult
 * API over every analysis entry point.
 *
 * Before this facade existed the mix/report/FDO paths lived as option
 * plumbing inside the CLI's analyze/report commands: each re-loaded
 * the profile, re-ran the analyzer and printf'd its own view. The
 * service owns those entry points once, behind a transport-neutral
 * request/result pair, so the same analysis API serves three
 * transports — the in-process CLI, the socket query endpoint of
 * `aggregate --listen` (fleet/query.hh), and a future relay-side mix
 * offload.
 *
 * Results are cached per *epoch*: the profile source exposes the
 * aggregator's invalidation epoch (bumped once per accepted shard),
 * and both cache levels — rendered-result by canonical request key,
 * and the expensive AnalysisResult by analyzer configuration — are
 * dropped the moment the epoch moves. Repeated queries between
 * arrivals are cache hits; every result carries the epoch it was
 * computed at and whether it came from cache, which the wire protocol
 * surfaces as `epoch=`/`cached=` headers.
 */

#ifndef HBBP_ANALYSIS_SERVICE_HH
#define HBBP_ANALYSIS_SERVICE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "collect/profile.hh"
#include "support/table.hh"
#include "workloads/workload.hh"

namespace hbbp {

/** The query API version spoken by requests and replies. */
constexpr uint32_t kQueryApiVersion = 1;

/** How a QueryResult is rendered for output. */
enum class RenderFormat { Text, Csv, Json };

/** Parse a --format value; std::nullopt for unknown names. */
std::optional<RenderFormat>
renderFormatFromName(const std::string &format_name);

/** Printable name of a format. */
const char *name(RenderFormat format);

/**
 * One analysis query: a verb plus key=value parameters.
 *
 * The canonical text form (renderText()) doubles as the versioned
 * wire request body:
 *
 *   hbbp-query/1
 *   verb=mix
 *   cutoff=20
 *   format=csv
 *
 * Parameters are kept sorted, so two requests that mean the same
 * thing serialize — and cache — identically.
 */
struct QueryRequest
{
    std::string verb;
    std::map<std::string, std::string> params;

    /** The parameter's value, or @p fallback when absent. */
    std::string param(const std::string &key,
                      const std::string &fallback = "") const;

    /** Canonical versioned text form (the wire request body). */
    std::string renderText() const;

    /**
     * Parse a renderText()-shaped body. Rejects missing/unsupported
     * version lines, malformed parameter lines, duplicate keys and a
     * missing verb — std::nullopt with *@p why set.
     */
    static std::optional<QueryRequest>
    parseText(const std::string &body, std::string *why);

    /**
     * The result-cache key: the canonical form minus the `format`
     * parameter — rendering is cheap and happens per response, so
     * text/csv/json views of one analysis share a cache entry.
     */
    std::string cacheKey() const;
};

/**
 * One section of a result. A section may carry prose, a table, or
 * both: render(Text) prefers the text (which preserves byte-exact
 * legacy output like the FDO profile or the report preamble), while
 * Csv/Json prefer the table (structured data for machines).
 */
struct QuerySection
{
    std::string title;
    std::optional<std::string> text;
    std::optional<TextTable> table;
};

/** The typed result every analysis entry point returns. */
struct QueryResult
{
    std::string verb;
    /** Source epoch the result was computed at. */
    uint64_t epoch = 0;
    /** True when served from the per-epoch result cache. */
    bool cached = false;
    /** Non-empty = the query failed; sections are empty. */
    std::string error;
    std::vector<QuerySection> sections;
    /** Append one final newline in render(Text) (report does). */
    bool trailing_newline = false;

    /** Render the sections in @p format (see QuerySection). */
    std::string render(RenderFormat format) const;

    static QueryResult failure(std::string verb, uint64_t epoch,
                               std::string error);
};

/** One host's arrival coverage, as a slice query reports it. */
struct HostSlice
{
    std::string host;
    uint32_t covered = 0; ///< Gap-free folded shard prefix.
    size_t pending = 0;   ///< Out-of-order shards behind a gap.
};

/**
 * Where the service's profile bytes come from. The epoch is the
 * invalidation contract: everything the service derived from this
 * source is valid exactly as long as epoch() stands still.
 */
class ProfileSource
{
  public:
    virtual ~ProfileSource() = default;

    /** Invalidation epoch; any change drops the service's caches. */
    virtual uint64_t epoch() const = 0;

    /** Workload the profile was collected from ("" when unknown). */
    virtual std::string workloadName() const = 0;

    /** The full profile; nullptr when nothing has been aggregated. */
    virtual const ProfileData *profile() = 0;

    /**
     * One host's slice of the profile; nullptr when the host is
     * unknown or the source has no per-host decomposition.
     */
    virtual const ProfileData *hostProfile(const std::string &host) = 0;

    /** Per-host coverage rows (empty without a decomposition). */
    virtual std::vector<HostSlice> hostSlices() const = 0;
};

/**
 * A fixed, epoch-0 source over one loaded profile — the in-process
 * CLI transport (`analyze -i profile.hbbp`). No per-host slices.
 */
class FixedProfileSource : public ProfileSource
{
  public:
    FixedProfileSource(ProfileData profile, std::string workload_name)
        : profile_(std::move(profile)),
          workload_(std::move(workload_name))
    {
    }

    uint64_t epoch() const override { return 0; }
    std::string workloadName() const override { return workload_; }
    const ProfileData *profile() override { return &profile_; }
    const ProfileData *hostProfile(const std::string &) override
    {
        return nullptr;
    }
    std::vector<HostSlice> hostSlices() const override { return {}; }

  private:
    ProfileData profile_;
    std::string workload_;
};

/** What the service has served (the cache-effectiveness proof). */
struct ServiceStats
{
    uint64_t requests = 0; ///< Queries served, errors included.
    uint64_t hits = 0;     ///< Result-cache hits (cacheable verbs).
    uint64_t misses = 0;   ///< Result-cache misses (cacheable verbs).
    uint64_t errors = 0;   ///< Queries answered with an error.
    /** Full analyzer runs — the expensive path. A cached repeat must
     *  never move this, in process or over the wire. */
    uint64_t analyses = 0;
};

/** Resolves a workload name to its generated Workload. */
using WorkloadResolver =
    std::function<std::optional<Workload>(const std::string &)>;

/**
 * Where one served query's time went, in nanoseconds. The query
 * endpoint forwards this split in the reply's `timing=` header; the
 * transport-side parse/render halves are measured by the caller.
 */
struct ServeTiming
{
    uint64_t cache_ns = 0;    ///< Epoch refresh + result-cache probe.
    uint64_t analysis_ns = 0; ///< Building the result (0 on a hit).
};

/**
 * The analysis facade: serves `mix`, `report`, `fdo`, `hosts` and
 * `status` queries over a ProfileSource, with per-epoch caching.
 *
 * Not thread-safe by design: the serving transports (CLI, the shard
 * listener's poll loop) are single-threaded where they touch the
 * aggregator, and the service inherits that discipline.
 */
class AnalysisService
{
  public:
    /**
     * @param source    profile bytes + invalidation epoch
     * @param resolver  workload-name lookup, injected so this layer
     *                  never depends on the CLI's registry
     */
    AnalysisService(ProfileSource &source, WorkloadResolver resolver)
        : source_(source), resolver_(std::move(resolver))
    {
    }

    /**
     * Serve one query. Never throws and never kills the process on
     * bad input — a malformed query from the network must cost one
     * error result, not the daemon. `mix`/`report`/`fdo` results are
     * cached per epoch; `hosts`/`status` are computed fresh (status
     * reports live counters). *@p timing, when non-null, receives
     * the cache-probe/analysis time split.
     */
    QueryResult serve(const QueryRequest &request,
                      ServeTiming *timing = nullptr);

    /** The source's current epoch (what new results will carry). */
    uint64_t epoch() const { return source_.epoch(); }

    const ServiceStats &stats() const { return stats_; }

  private:
    /** Drop both cache levels when the source epoch moved. */
    void refreshEpoch();

    /** Validate params against @p allowed; error text or "". */
    std::string checkParams(const QueryRequest &request,
                            const std::vector<std::string> &allowed);

    /**
     * The expensive level: AnalysisResult by analyzer configuration
     * (cutoff/bias/patch/host), shared by every verb and format that
     * needs the same analysis within one epoch.
     */
    const AnalysisResult *analysisFor(const QueryRequest &request,
                                      std::string *error);

    QueryResult buildMix(const QueryRequest &request);
    QueryResult buildReport(const QueryRequest &request);
    QueryResult buildFdo(const QueryRequest &request);
    QueryResult buildHosts(const QueryRequest &request);
    QueryResult buildStatus(const QueryRequest &request);

    ProfileSource &source_;
    WorkloadResolver resolver_;
    /** Resolved lazily from the source's workload name (the daemon
     *  learns the workload from the first accepted shard). */
    std::optional<Workload> workload_;

    uint64_t cache_epoch_ = UINT64_MAX;
    std::map<std::string, QueryResult> result_cache_;
    std::map<std::string, std::unique_ptr<AnalysisResult>>
        analysis_cache_;

    ServiceStats stats_;
};

} // namespace hbbp

#endif // HBBP_ANALYSIS_SERVICE_HH
