/**
 * @file
 * In-memory spans recorded by the benchmark around its calls into the
 * library, and the self-time arithmetic over them.
 *
 * A span knows its parent in two ways: the span open on the same
 * thread when it started, or — for work a request causes on another
 * thread, such as the listener's on_accept/on_query callbacks — a
 * link key naming the parent span, resolved after the run. Spans are
 * buffered per thread without locking and drained once every
 * recording thread has stopped. With tracing disabled a Span is one
 * relaxed load.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench::trace {

/** steady_clock now, in nanoseconds. */
int64_t nowNs();

/** One finished span. */
struct SpanRecord
{
    uint64_t id = 0;
    /** Same-thread parent id (0 = none). */
    uint64_t parent = 0;
    /** Static name, e.g. "transport.send". */
    const char *name = "";
    /** Key other threads' spans link to (empty = none). */
    std::string key;
    /** Key of a parent on another thread (empty = none). */
    std::string parent_key;
    uint32_t thread = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;

    int64_t duration() const { return end_ns - start_ns; }
};

void setEnabled(bool on);
bool enabled();

/** RAII span; records nothing while tracing is disabled. */
class Span
{
  public:
    explicit Span(const char *name, std::string parent_key = {});
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Rename before the span closes (e.g. record → compact). */
    void rename(const char *name) { name_ = name; }
    /** Key spans on other threads may name as their parent. */
    void setKey(std::string key) { key_ = std::move(key); }
    /** Link to a parent on another thread. */
    void setParentKey(std::string key) { parent_key_ = std::move(key); }

  private:
    bool on_ = false;
    const char *name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    std::string key_;
    std::string parent_key_;
    int64_t start_ = 0;
};

/**
 * Take every recorded span out of every thread's buffer. Call only
 * while no thread is recording (after joining the workers).
 */
std::vector<SpanRecord> drain();

/**
 * Length of the union of @p children clipped to [start, end) — the
 * part of a parent's interval its children cover.
 */
int64_t coveredNs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> children);

/** Spans with parents resolved and self times computed. */
struct Tree
{
    std::vector<SpanRecord> spans;
    /** Resolved parent index per span (-1 = root). */
    std::vector<long> parent;
    /** Duration minus the covered child intervals, per span. */
    std::vector<int64_t> self_ns;
    /** Spans whose parent_key named no span. */
    size_t unresolved = 0;
};

Tree buildTree(std::vector<SpanRecord> spans);

/** Per-name totals over a tree. */
struct NameStats
{
    size_t count = 0;
    int64_t total_ns = 0;
    int64_t self_total_ns = 0;

    double meanNs() const { return count ? double(total_ns) / count : 0; }
    double meanSelfNs() const
    {
        return count ? double(self_total_ns) / count : 0;
    }
};

std::map<std::string, NameStats> statsByName(const Tree &tree);

/**
 * For every root span named @p op: the sum of self times over its
 * subtree divided by its duration, summed over all such roots (1.0
 * when every op's time is accounted for by its own and its
 * descendants' self times). 0 when there is no such root.
 */
double accountedRatio(const Tree &tree, const std::string &op);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_HH
