/**
 * @file
 * Process-wide metrics registry and per-stage health heartbeats.
 *
 * Every fleet stage (transport, listener, aggregator, journal, store,
 * thread pool) reports through this registry. Three metric kinds:
 *
 *  - Counter:   monotonic u64. Increments are relaxed fetch_adds on
 *               per-thread-sharded, cache-line-padded slots, so hot-path
 *               bumps are wait-free and TSan-clean.
 *  - Gauge:     signed level (queue depth, active streams, resident
 *               bytes). Single atomic; set/add/sub.
 *  - Histogram: fixed upper-bound buckets over u64 observations
 *               (latencies in ms/us/ns). Cumulative bucket counts plus
 *               a saturating sum; bounds are frozen at registration.
 *
 * Two exposition surfaces, both with byte-deterministic output (metrics
 * render in lexicographic name order):
 *
 *  - renderSnapshot():   compact `kind name value` lines — the format
 *                        `hbbp-tool stats` prints and daemons dump to
 *                        stderr on SIGUSR1 and at exit.
 *  - renderPrometheus(): Prometheus text exposition format, served by
 *                        the `--metrics-port` endpoint (fleet/metrics).
 *
 * Call sites keep a static reference so the name lookup happens once:
 *
 *     static telemetry::Counter &c =
 *         telemetry::counter("hbbp_transport_frames_sent_total");
 *     c.add();
 *
 * Shard-lifecycle spans are records in the structured event log
 * (support/events), not metrics.
 */

#ifndef HBBP_SUPPORT_TELEMETRY_HH
#define HBBP_SUPPORT_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hbbp {
namespace telemetry {

/// Number of independent counter slots; power of two, sized so a
/// handful of threads rarely share a cache line.
constexpr size_t kCounterShards = 8;

/** Monotonic counter with per-thread-sharded storage. */
class Counter
{
  public:
    /** Wait-free increment. */
    void add(uint64_t n = 1);

    /** Sum over all shards. Exact once writers have quiesced. */
    uint64_t value() const;

  private:
    struct alignas(64) Slot {
        std::atomic<uint64_t> v{0};
    };
    Slot slots_[kCounterShards];
};

/** Signed level gauge (queue depth, active streams, resident bytes). */
class Gauge
{
  public:
    void set(int64_t v);
    void add(int64_t n = 1);
    void sub(int64_t n = 1);
    int64_t value() const;

  private:
    std::atomic<int64_t> v_{0};
};

/** Fixed-bucket histogram over u64 observations. */
class Histogram
{
  public:
    explicit Histogram(std::vector<uint64_t> bounds);

    /** Record one observation. */
    void observe(uint64_t v);

    /** Upper bounds, ascending; the +Inf bucket is implicit. */
    const std::vector<uint64_t> &bounds() const { return bounds_; }

    /** Non-cumulative count for bucket i (bounds().size() == +Inf). */
    uint64_t bucketCount(size_t i) const;

    /** Total observations. */
    uint64_t count() const;

    /** Saturating sum of observations. */
    uint64_t sum() const;

  private:
    std::vector<uint64_t> bounds_;
    std::vector<std::atomic<uint64_t>> counts_; ///< bounds_.size() + 1
    std::atomic<uint64_t> sum_{0};
};

/// Default latency bucket bounds in milliseconds: 1..16384 powers of 4.
std::vector<uint64_t> latencyBucketsMs();
/// Default latency bucket bounds in microseconds: 16..2^26 powers of 8.
std::vector<uint64_t> latencyBucketsUs();

/**
 * A named collection of metrics.
 *
 * The process-wide instance is registry(); tests construct their own so
 * snapshot bytes are deterministic. Registration takes a mutex; the
 * returned references stay valid for the registry's lifetime, so call
 * sites cache them and never look up again.
 */
class Registry
{
  public:
    /** Find-or-create. panic()s if `name` exists with another kind. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /**
     * Find-or-create with the given ascending bucket bounds; on
     * rediscovery the bounds argument is ignored (first caller wins).
     */
    Histogram &histogram(const std::string &name,
                         std::vector<uint64_t> bounds);

    /**
     * Compact deterministic text: one metric per line, lexicographic
     * name order, `counter|gauge|hist NAME ...` with histograms
     * rendered as `count=N sum=S le<bound>=C ... le+Inf=C`.
     */
    std::string renderSnapshot() const;

    /** Prometheus text exposition format, same deterministic order. */
    std::string renderPrometheus() const;

  private:
    struct Entry {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };
    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
};

/** The process-wide registry daemons expose and instrument into. */
Registry &registry();

/** Shorthands against the process-wide registry. */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name, std::vector<uint64_t> bounds);

/**
 * Ask the process to dump the registry snapshot to stderr at the next
 * dumpIfRequested() poll. Async-signal-safe (one relaxed store) — this
 * is the SIGUSR1 handler's entire body.
 */
void requestDump();

/** If a dump was requested, print the snapshot to stderr and clear. */
void dumpIfRequested();

/** Print `prefix` then the process registry snapshot to stderr. */
void dumpSnapshot(const char *prefix);

// ---------------------------------------------------------------------
// Per-stage progress heartbeats — the health plane's liveness signal.
// ---------------------------------------------------------------------

/**
 * The pipeline stages a daemon reports progress for. Loop stages
 * (Listener, Federator) beat once per poll round whether or not work
 * arrived, so a stale beat means the serving thread itself is wedged
 * — those are the stages that degrade the process and trip the
 * watchdog. Work stages (Accept, Fold, Journal, Deposit, Query,
 * Flush) beat once per completed operation; their ages are reported
 * on healthz for triage but an idle work stage is not a stalled one.
 */
enum class Stage : uint8_t {
    Listener,  ///< Shard-listener poll round (loop).
    Federator, ///< Metrics-federation scrape round (loop).
    Accept,    ///< Shard accepted by the listener.
    Fold,      ///< Aggregator fold completed.
    Journal,   ///< State-journal append durable.
    Deposit,   ///< Profile-store deposit completed.
    Query,     ///< Analysis query served.
    Flush,     ///< Relay upstream flush completed.
};
constexpr size_t kStageCount = 8;

/** Printable stage name ("listener", "fold", ...). */
const char *name(Stage s);

/** Mark @p s as present in this process (idempotent). */
void beatEnable(Stage s);

/** Record progress on @p s now (one relaxed store; wait-free). */
void beat(Stage s);

/** Reset all stages to absent — the test seam between cases. */
void beatResetForTest();

/** One enabled stage's health as healthz reports it. */
struct StageHealth
{
    Stage stage = Stage::Listener;
    bool loop = false;  ///< Degrades the process when stalled.
    double age_s = 0.0; ///< Seconds since the last beat.
};

/** Steady-clock milliseconds — the beat/stageHealth time base. */
int64_t healthNowMs();

/**
 * Health of every beatEnable()d stage, ages computed against
 * @p now_ms (pass healthNowMs(); the parameter is the stall logic's
 * test seam).
 */
std::vector<StageHealth> stageHealth(int64_t now_ms);

/**
 * True when some loop stage is enabled and last beat more than
 * @p stall_s ago — the daemon stopped making progress. Names of the
 * stalled stages are appended to *@p stalled when non-null.
 */
bool anyStageStalled(int64_t now_ms, double stall_s,
                     std::vector<std::string> *stalled = nullptr);

/**
 * The healthz body's process-local half: a `status: live|degraded`
 * first line (degraded iff anyStageStalled) followed by one
 * `stage <name> age_s=<age> loop=<0|1>` line per enabled stage.
 */
std::string renderHealth(int64_t now_ms, double stall_s);

} // namespace telemetry
} // namespace hbbp

#endif // HBBP_SUPPORT_TELEMETRY_HH
