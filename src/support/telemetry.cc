#include "support/telemetry.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "support/logging.hh"

namespace hbbp {
namespace telemetry {

namespace {

std::atomic<bool> g_dump_requested{false};

/// Round-robin shard assignment: each thread gets a fixed slot for its
/// lifetime, so a thread's increments never migrate between cache lines.
size_t
threadSlot()
{
    static std::atomic<size_t> next{0};
    static thread_local size_t slot =
        next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
    return slot;
}

uint64_t
saturatingAdd(uint64_t a, uint64_t b)
{
    uint64_t s = a + b;
    return s < a ? UINT64_MAX : s;
}

} // namespace

void
Counter::add(uint64_t n)
{
    slots_[threadSlot()].v.fetch_add(n, std::memory_order_relaxed);
}

uint64_t
Counter::value() const
{
    uint64_t total = 0;
    for (const Slot &s : slots_)
        total += s.v.load(std::memory_order_relaxed);
    return total;
}

void
Gauge::set(int64_t v)
{
    v_.store(v, std::memory_order_relaxed);
}

void
Gauge::add(int64_t n)
{
    v_.fetch_add(n, std::memory_order_relaxed);
}

void
Gauge::sub(int64_t n)
{
    add(-n);
}

int64_t
Gauge::value() const
{
    return v_.load(std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
    if (bounds_.empty())
        panic("histogram needs at least one bucket bound");
    for (size_t i = 1; i < bounds_.size(); ++i) {
        if (bounds_[i] <= bounds_[i - 1])
            panic("histogram bounds must be strictly ascending");
    }
}

void
Histogram::observe(uint64_t v)
{
    // First bucket whose upper bound admits v (le semantics); values
    // above every bound land in the implicit +Inf bucket.
    size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) -
               bounds_.begin();
    counts_[i].fetch_add(1, std::memory_order_relaxed);
    // Saturating sum: a CAS loop, but observations are off the fold
    // hot path (latency sampling only).
    uint64_t cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, saturatingAdd(cur, v),
                                       std::memory_order_relaxed)) {
    }
}

uint64_t
Histogram::bucketCount(size_t i) const
{
    if (i >= counts_.size())
        panic("histogram bucket index %zu out of range", i);
    return counts_[i].load(std::memory_order_relaxed);
}

uint64_t
Histogram::count() const
{
    uint64_t total = 0;
    for (const auto &c : counts_)
        total += c.load(std::memory_order_relaxed);
    return total;
}

uint64_t
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

std::vector<uint64_t>
latencyBucketsMs()
{
    return {1, 4, 16, 64, 256, 1024, 4096, 16384};
}

std::vector<uint64_t>
latencyBucketsUs()
{
    return {16, 128, 1024, 8192, 65536, 524288, 4194304, 33554432};
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    Entry &e = entries_[name];
    if (e.gauge || e.histogram)
        panic("metric '%s' already registered with a different kind",
              name.c_str());
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    Entry &e = entries_[name];
    if (e.counter || e.histogram)
        panic("metric '%s' already registered with a different kind",
              name.c_str());
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

Histogram &
Registry::histogram(const std::string &name, std::vector<uint64_t> bounds)
{
    std::lock_guard<std::mutex> lock(mu_);
    Entry &e = entries_[name];
    if (e.counter || e.gauge)
        panic("metric '%s' already registered with a different kind",
              name.c_str());
    if (!e.histogram)
        e.histogram = std::make_unique<Histogram>(std::move(bounds));
    return *e.histogram;
}

std::string
Registry::renderSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    char buf[256];
    for (const auto &[name, e] : entries_) {
        if (e.counter) {
            std::snprintf(buf, sizeof(buf), "counter %s %" PRIu64 "\n",
                          name.c_str(), e.counter->value());
            out += buf;
        } else if (e.gauge) {
            std::snprintf(buf, sizeof(buf), "gauge %s %" PRId64 "\n",
                          name.c_str(), e.gauge->value());
            out += buf;
        } else if (e.histogram) {
            const Histogram &h = *e.histogram;
            std::snprintf(buf, sizeof(buf), "hist %s count=%" PRIu64
                          " sum=%" PRIu64, name.c_str(), h.count(),
                          h.sum());
            out += buf;
            for (size_t i = 0; i < h.bounds().size(); ++i) {
                std::snprintf(buf, sizeof(buf), " le%" PRIu64 "=%" PRIu64,
                              h.bounds()[i], h.bucketCount(i));
                out += buf;
            }
            std::snprintf(buf, sizeof(buf), " le+Inf=%" PRIu64 "\n",
                          h.bucketCount(h.bounds().size()));
            out += buf;
        }
    }
    return out;
}

std::string
Registry::renderPrometheus() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    char buf[256];
    for (const auto &[name, e] : entries_) {
        if (e.counter) {
            std::snprintf(buf, sizeof(buf),
                          "# TYPE %s counter\n%s %" PRIu64 "\n",
                          name.c_str(), name.c_str(), e.counter->value());
            out += buf;
        } else if (e.gauge) {
            std::snprintf(buf, sizeof(buf),
                          "# TYPE %s gauge\n%s %" PRId64 "\n",
                          name.c_str(), name.c_str(), e.gauge->value());
            out += buf;
        } else if (e.histogram) {
            const Histogram &h = *e.histogram;
            std::snprintf(buf, sizeof(buf), "# TYPE %s histogram\n",
                          name.c_str());
            out += buf;
            // Prometheus buckets are cumulative.
            uint64_t cum = 0;
            for (size_t i = 0; i < h.bounds().size(); ++i) {
                cum += h.bucketCount(i);
                std::snprintf(buf, sizeof(buf),
                              "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                              name.c_str(), h.bounds()[i], cum);
                out += buf;
            }
            cum += h.bucketCount(h.bounds().size());
            std::snprintf(buf, sizeof(buf),
                          "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n"
                          "%s_sum %" PRIu64 "\n"
                          "%s_count %" PRIu64 "\n",
                          name.c_str(), cum, name.c_str(), h.sum(),
                          name.c_str(), cum);
            out += buf;
        }
    }
    return out;
}

Registry &
registry()
{
    static Registry *r = new Registry(); // leaked: outlive static dtors
    return *r;
}

Counter &
counter(const std::string &name)
{
    return registry().counter(name);
}

Gauge &
gauge(const std::string &name)
{
    return registry().gauge(name);
}

Histogram &
histogram(const std::string &name, std::vector<uint64_t> bounds)
{
    return registry().histogram(name, std::move(bounds));
}

void
requestDump()
{
    g_dump_requested.store(true, std::memory_order_relaxed);
}

void
dumpIfRequested()
{
    if (!g_dump_requested.exchange(false, std::memory_order_relaxed))
        return;
    dumpSnapshot("telemetry snapshot (SIGUSR1)");
}

void
dumpSnapshot(const char *prefix)
{
    std::string snap = registry().renderSnapshot();
    std::fprintf(stderr, "--- %s ---\n%s--- end snapshot ---\n", prefix,
                 snap.c_str());
    std::fflush(stderr);
}

// ---------------------------------------------------------------------
// Stage heartbeats.
// ---------------------------------------------------------------------

namespace {

struct StageState
{
    std::atomic<bool> enabled{false};
    std::atomic<int64_t> last_ms{0};
};

StageState g_stages[kStageCount];

bool
stageIsLoop(Stage s)
{
    return s == Stage::Listener || s == Stage::Federator;
}

} // namespace

const char *
name(Stage s)
{
    switch (s) {
      case Stage::Listener: return "listener";
      case Stage::Federator: return "federator";
      case Stage::Accept: return "accept";
      case Stage::Fold: return "fold";
      case Stage::Journal: return "journal";
      case Stage::Deposit: return "deposit";
      case Stage::Query: return "query";
      case Stage::Flush: return "flush";
      default:
        panic("name: bad Stage %d", static_cast<int>(s));
    }
}

int64_t
healthNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
beatEnable(Stage s)
{
    StageState &st = g_stages[static_cast<size_t>(s)];
    st.last_ms.store(healthNowMs(), std::memory_order_relaxed);
    st.enabled.store(true, std::memory_order_release);
}

void
beat(Stage s)
{
    g_stages[static_cast<size_t>(s)].last_ms.store(
        healthNowMs(), std::memory_order_relaxed);
}

void
beatResetForTest()
{
    for (StageState &st : g_stages) {
        st.enabled.store(false, std::memory_order_relaxed);
        st.last_ms.store(0, std::memory_order_relaxed);
    }
}

std::vector<StageHealth>
stageHealth(int64_t now_ms)
{
    std::vector<StageHealth> out;
    for (size_t i = 0; i < kStageCount; i++) {
        if (!g_stages[i].enabled.load(std::memory_order_acquire))
            continue;
        StageHealth h;
        h.stage = static_cast<Stage>(i);
        h.loop = stageIsLoop(h.stage);
        int64_t last = g_stages[i].last_ms.load(std::memory_order_relaxed);
        h.age_s = now_ms > last ? (now_ms - last) / 1000.0 : 0.0;
        out.push_back(h);
    }
    return out;
}

bool
anyStageStalled(int64_t now_ms, double stall_s,
                std::vector<std::string> *stalled)
{
    bool any = false;
    for (const StageHealth &h : stageHealth(now_ms)) {
        if (!h.loop || h.age_s <= stall_s)
            continue;
        any = true;
        if (stalled)
            stalled->push_back(name(h.stage));
    }
    return any;
}

std::string
renderHealth(int64_t now_ms, double stall_s)
{
    std::string out = anyStageStalled(now_ms, stall_s)
                          ? "status: degraded\n"
                          : "status: live\n";
    char buf[128];
    for (const StageHealth &h : stageHealth(now_ms)) {
        std::snprintf(buf, sizeof(buf), "stage %s age_s=%.3f loop=%d\n",
                      name(h.stage), h.age_s, h.loop ? 1 : 0);
        out += buf;
    }
    return out;
}

} // namespace telemetry
} // namespace hbbp
