/**
 * @file
 * Shared pieces of the pipeline benchmark: the run report, the
 * in-process ingest/serve node assembled from the library's public
 * classes, the push/query helpers the load generators use, machine
 * calibration, and the decomposition replays that time the sub-layers
 * ShardListener::serve and AnalysisService::serve hide.
 */

#ifndef PERFBENCH_PIPELINE_HH
#define PERFBENCH_PIPELINE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/service.hh"
#include "collect/collector.hh"
#include "fleet/aggregate.hh"
#include "fleet/journal.hh"
#include "fleet/query.hh"
#include "fleet/store.hh"
#include "fleet/transport.hh"
#include "metrics.hh"
#include "trace.hh"

namespace perfbench {

/** One reported number. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (0 = a single measurement). */
    size_t n = 0;
    /** Free text: the percentile used, where the number came from. */
    std::string note;
};

/** What the machine looked like while the run measured. */
struct Calibration
{
    unsigned nproc = 0;
    /** nproc * (1-thread spin time) / (nproc-thread spin time). */
    double effective_cores = 0.0;
    double spin_1_ms = 0.0;
    double spin_n_ms = 0.0;
    /** Cost of one steady_clock::now(), in nanoseconds. */
    double clock_read_ns = 0.0;
};

Calibration calibrate();

/** Everything one run prints. */
struct Report
{
    Calibration calibration;

    /** The gated end-to-end metrics (BENCHMARK.json end_to_end). */
    std::map<std::string, Metric> e2e;
    /** The same timings under their workload-specific names. */
    std::map<std::string, Metric> detail;
    /** Per-layer metrics (BENCHMARK.json per_layer). */
    std::map<std::string, Metric> layer;

    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Correctness checks, in the order they ran. */
    std::vector<std::pair<std::string, bool>> checks;

    void check(const std::string &name, bool ok);
    size_t failedChecks() const;
};

/** Journal compaction cadence of every node (the CLI default). */
constexpr size_t kCompactEvery = 32;

/** A workload's name → generated Workload lookup over prebuilt ones. */
hbbp::WorkloadResolver resolverFor(std::vector<hbbp::Workload> workloads);

/** Collector config for one host/sequence slot of a run seed. */
hbbp::CollectorConfig shardConfig(const hbbp::Workload &w, uint64_t seed,
                                  const std::string &host, uint32_t seq,
                                  uint64_t budget_divisor);

/**
 * The daemon side, assembled the way `hbbp-tool aggregate --listen
 * --state --store` and `serve` assemble it: an aggregator fed by a
 * ShardListener whose on_accept pins, deposits, journals and unpins
 * each shard, plus a QueryEndpoint over an AnalysisService reading
 * the live aggregate. Lives on the thread that calls serve().
 */
class Node
{
  public:
    /** State under @p dir (created fresh; removed by the caller). */
    Node(const std::string &dir, hbbp::WorkloadResolver resolver);

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    /**
     * Serve @p listener until @p expect shards are covered (0 = until
     * a shutdown query or @p abort).
     */
    void serve(hbbp::ShardListener &listener, size_t expect,
               const std::atomic<bool> &abort);

    /** Fold a shard in directly and run the on_accept work for it. */
    void ingestLocal(const hbbp::ShardManifest &m,
                     const hbbp::ProfileData &pd, const std::string &bytes);

    /** Link key of a shard's transport span (prefix + host + seq). */
    std::string linkKey(const std::string &host, uint32_t seq) const;

    std::string dir;
    /** Unique per node, so link keys never collide across nodes. */
    std::string key_prefix;

    hbbp::IncrementalAggregator agg;
    hbbp::AggregatorProfileSource source{agg};
    hbbp::AnalysisService service;
    hbbp::QueryEndpoint endpoint{service};
    hbbp::ProfileStore store;
    hbbp::StorePin pin;
    hbbp::StateJournal journal;

    /** Cached replies that moved ServiceStats::analyses (must be 0). */
    uint64_t cached_reanalyses = 0;
    /** One analyzer run the service did, as its reply reported it. */
    struct Analyzed
    {
        uint64_t epoch = 0;
        std::string host; ///< The query's host parameter.
        uint64_t analysis_ns = 0;
    };
    std::vector<Analyzed> analyzed;
    /** Journal bytes appended by non-compacting records (traced). */
    uint64_t journal_bytes = 0;
    size_t journal_appends = 0;

  private:
    void onAccept(const hbbp::ShardManifest &m, const hbbp::ProfileData &pd,
                  const std::vector<std::string> &chunks);
    std::string onQuery(const std::string &body);
};

/** One push as the sender saw it. */
struct PushOutcome
{
    bool ok = false;
    int attempts = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::string error;
};

/**
 * Serialize @p pd and push it under @p m (checksum filled in here),
 * inside an op span @p op_name with `profile.serialize` and
 * `transport.send` children; the latter is keyed @p link_key so the
 * node's on_accept span attaches to it.
 */
PushOutcome pushShard(hbbp::SocketTransport &transport,
                      hbbp::ShardManifest m, const hbbp::ProfileData &pd,
                      const std::string &link_key, const char *op_name);

/** One query as the client saw it. */
struct QueryOutcome
{
    bool ok = false;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    hbbp::QueryReply reply;
    std::string error;
};

/** One QueryClient::query round trip inside a `query` span. */
QueryOutcome runQuery(hbbp::QueryClient &client, const std::string &body);

/** Request body of @p verb with @p params. */
std::string requestBody(const std::string &verb,
                        std::map<std::string, std::string> params = {});

/** Per-name running means for replay numbers. */
class Means
{
  public:
    void add(const std::string &name, double value);
    double mean(const std::string &name) const;
    size_t count(const std::string &name) const;

  private:
    std::map<std::string, std::pair<double, size_t>> sums_;
};

/**
 * Replay of Analyzer::analyze's stages on @p profile, in its order and
 * with the service's default options: BlockMap, BbecEstimator,
 * computeFeatures + classifier, InstructionMix + the default mnemonic
 * pivot. Adds blockmap/bbec/classify/mix timings and the estimator
 * health counts to @p out; returns the stage-time sum in ns. Fails
 * the check in @p report when the replayed fused counts differ from
 * Analyzer::analyze's.
 */
double replayAnalysis(const hbbp::Program &prog,
                      const hbbp::ProfileData &profile, Means &out,
                      Report &report);

/**
 * Replay of the profile layers on @p shards (in arrival order):
 * serialize, parse (checked against the original) and fold into a
 * shadow aggregator. With @p rebuild_each the aggregate is rebuilt
 * after every fold (the per-epoch rebuild a serving node pays),
 * otherwise once at the end. Returns the shadow aggregator.
 */
std::unique_ptr<hbbp::IncrementalAggregator>
replayFolds(const std::vector<hbbp::ShardManifest> &manifests,
            const std::vector<hbbp::ProfileData> &shards, bool rebuild_each,
            Means &out, Report &report);

/**
 * The render layer on @p profile: AnalysisService::serve(report) over
 * a FixedProfileSource, then QueryResult::render(Text).
 */
void replayRender(const hbbp::Workload &w, const hbbp::ProfileData &profile,
                  Means &out, Report &report);

/**
 * Push @p shards serially through a private node and listener, query
 * every verb of the serve cycle once, and compact the journal: the
 * transport, journal, store, service and query layers measured on
 * this workload's inputs, for workloads that do not drive them live.
 * Returns the traced spans of that pass.
 */
trace::Tree replayServed(const hbbp::Workload &w,
                         const std::vector<hbbp::ShardManifest> &manifests,
                         const std::vector<hbbp::ProfileData> &shards,
                         const std::string &dir, Means &out,
                         Report &report);

/** The five queries the serve workload's clients cycle. */
std::vector<std::string> serveCycle(const std::string &host);

/**
 * Fill the span-derived per-layer metrics: from @p live where the
 * workload drove the layer, otherwise from @p replay.
 */
void layersFromSpans(Report &report, const trace::Tree &live,
                     const trace::Tree &replay);

/** Write @p tree as JSON lines to @p path (best effort). */
void writeSpans(const trace::Tree &tree, const std::string &path);

/** Remove @p dir recursively, ignoring errors. */
void removeTree(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_HH
