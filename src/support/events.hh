/**
 * @file
 * Structured, stable-coded JSONL event log — the fleet's one record
 * stream: exceptional paths and shard-lifecycle spans.
 *
 * warn() tells a human that something odd happened; this log tells a
 * machine *what*. Every exceptional path a daemon takes — a rejected
 * shard, a superseded partial, a transport retry, a gc eviction, a
 * watchdog stall, a stale federation child — emits one event with a
 * wall-clock timestamp in microseconds, a severity level, a *stable
 * code* (grep/alert keys that never change meaning once shipped) and
 * flat key=value fields. One JSON object per line, flushed per line,
 * append-only, so daemons across a machine can share one file and
 * `tail -f` always sees whole records.
 *
 * Shard-lifecycle tracing rides the same stream: each hop a stamped
 * shard (or a served query) passes logs one `info` event whose code
 * is the span name and whose `trace` field is the trace id minted by
 * shardTraceId() in fleet/manifest. Microsecond timestamps keep the
 * hops of one shard ordered across processes.
 *
 * The stable code table (also in README.md — extend, never repurpose):
 *
 *   shard_reject     warn   listener rejected a frame or shard
 *   shard_supersede  info   partial aggregate superseded by coverage
 *   push_retry       warn   sender retrying after a transport error
 *   store_gc_evict   info   store gc removed an entry
 *   idle_abort       warn   listener aborted an idle stream
 *   watchdog_stall   error  a loop stage stopped beating
 *   child_stale      warn   federation scrape of a child failed
 *   child_recovered  info   a stale federation child answered again
 *   push_start       info   span: a collector starts pushing its shard
 *   push_acked       info   span: the collector's push was acknowledged
 *   relay_accept     info   span: a relay folded the shard
 *   relay_flush      info   span: a relay pushes an aggregate holding it
 *   root_fold        info   span: the root folded the shard
 *   query_serve      info   span: the root served a query
 *
 * The process-wide sink is openLog(); an unopened log makes emit() a
 * no-op, so instrumented sites never check a flag. `hbbp-tool events
 * --from FILE [--code C] [--since T]` reads the other end through
 * loadEvents().
 *
 * StallWatchdog is the health plane's active half: a background
 * thread that watches the telemetry stage heartbeats and emits
 * `watchdog_stall` (plus a warn() and a counter bump) when a loop
 * stage stops progressing for --stall-warn-s seconds.
 */

#ifndef HBBP_SUPPORT_EVENTS_HH
#define HBBP_SUPPORT_EVENTS_HH

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace hbbp {
namespace events {

/** Event severity. */
enum class Level : uint8_t { Info, Warn, Error };

/** Printable level name ("info", "warn", "error"). */
const char *name(Level level);

/** Parse a level name; false on an unknown one. */
bool levelFromName(const std::string &s, Level *out);

/** One event record, as emitted or as parsed back from a log. */
struct Event
{
    uint64_t ts_us = 0; ///< Wall-clock microseconds since the epoch.
    Level level = Level::Info;
    std::string code; ///< Stable machine code (see the table above).
    std::string node; ///< Emitting daemon's id.
    std::vector<std::pair<std::string, std::string>> fields;

    /** The field's value, or "" when absent. */
    std::string field(const std::string &key) const;

    /** One human-readable line (what `hbbp-tool events` prints). */
    std::string render() const;
};

/**
 * Open the process-wide event log for appending and tag every record
 * with @p node. An empty path closes the log. fatal()s when the file
 * cannot be opened.
 */
void openLog(const std::string &path, const std::string &node);

namespace detail {
/** Set while openLog() holds a file (written under the sink's lock). */
extern std::atomic<bool> log_open;
} // namespace detail

/** True when openLog() armed a sink: one relaxed atomic load, cheap
 *  enough for paths as hot as a query handler. */
inline bool
logActive()
{
    return detail::log_open.load(std::memory_order_relaxed);
}

/** The node id records are tagged with ("" while the log is closed). */
std::string logNode();

/**
 * Append one event (no-op while the log is closed). Also bumps
 * hbbp_events_total so the metrics surface shows event volume.
 */
void emit(Level level, const std::string &code,
          std::initializer_list<std::pair<std::string, std::string>>
              fields);

/** Parse one JSONL record; false with *@p why set on malformed. */
bool parseEventLine(const std::string &line, Event *out,
                    std::string *why);

/**
 * Load @p path and keep events matching @p code (empty = all) stamped
 * at or after @p since_ms milliseconds (0 = all). Malformed lines,
 * including records without `ts_us`, fail the load —
 * a corrupt flight recorder must be loud. Returns false with *@p why
 * set on I/O or parse errors.
 */
bool loadEvents(const std::string &path, const std::string &code,
                uint64_t since_ms, std::vector<Event> *out,
                std::string *why);

/**
 * Watches the telemetry stage heartbeats from a background thread
 * (2 Hz) and emits one `watchdog_stall` event — plus a warn() and a
 * hbbp_watchdog_stalls_total bump — each time a loop stage's beat
 * age first exceeds the threshold. A stage that recovers re-arms.
 */
class StallWatchdog
{
  public:
    StallWatchdog() = default;
    ~StallWatchdog();
    StallWatchdog(const StallWatchdog &) = delete;
    StallWatchdog &operator=(const StallWatchdog &) = delete;

    /** Arm with a threshold in seconds; <= 0 keeps it disarmed. */
    void start(double stall_warn_s);

    /** Stop and join the watcher thread (idempotent). */
    void stop();

  private:
    void watch(double stall_warn_s);

    std::thread thread_;
    std::atomic<bool> stop_{false};
};

} // namespace events
} // namespace hbbp

#endif // HBBP_SUPPORT_EVENTS_HH
