/**
 * @file
 * Tests of the benchmark's own arithmetic: the tail-percentile rule,
 * span self time (including children on another thread), the failure
 * ratio, RSS conversion, generator lateness and the traced/untraced
 * overhead split. Prints one line per failed expectation and exits 1
 * if there was any.
 */

#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "../src/metrics.hh"
#include "../src/trace.hh"

using namespace perfbench;

namespace {

int g_failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        std::printf("selftest: FAILED line %d: %s\n", line, what);
        g_failures++;
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9 * std::max(1.0, std::fabs(b));
}

std::vector<double>
range(size_t n)
{
    std::vector<double> v;
    for (size_t i = 1; i <= n; i++)
        v.push_back(static_cast<double>(i));
    return v;
}

trace::SpanRecord
span(uint64_t id, uint64_t parent, const char *name, int64_t start,
     int64_t end, std::string key = {}, std::string parent_key = {})
{
    trace::SpanRecord r;
    r.id = id;
    r.parent = parent;
    r.name = name;
    r.start_ns = start;
    r.end_ns = end;
    r.key = std::move(key);
    r.parent_key = std::move(parent_key);
    return r;
}

void
testPercentiles()
{
    std::vector<double> ten = range(10);
    EXPECT(percentileSorted(ten, 50) == 5);
    EXPECT(percentileSorted(ten, 90) == 9);
    EXPECT(percentileSorted(ten, 100) == 10);
    EXPECT(percentileSorted({}, 50) == 0);

    EXPECT(samplesBeyond(1000, 99) == 10);
    EXPECT(samplesBeyond(1000, 99.9) == 1);
    EXPECT(samplesBeyond(200, 95) == 10);

    // The tail is the highest ladder percentile leaving >= 10 beyond.
    Tail t = tailOf(range(1000));
    EXPECT(t.percentile == 99 && t.value == 990 && t.beyond == 10);
    EXPECT(t.name() == "p99");
    EXPECT(tailOf(range(10000)).name() == "p99.9");
    EXPECT(tailOf(range(200)).percentile == 95);
    EXPECT(tailOf(range(150)).percentile == 90);
    EXPECT(tailOf(range(40)).percentile == 75);
    Tail small = tailOf(range(19));
    EXPECT(small.percentile == 50 && small.beyond == 9);

    std::vector<double> shuffled = {5, 1, 4, 2, 3};
    Summary s = summarize(shuffled);
    EXPECT(s.n == 5 && s.p50 == 3 && s.max == 5 && near(s.mean, 3));
    EXPECT(near(median({4, 1, 3}), 3));
}

void
testFailRatio()
{
    EXPECT(near(failRatio(1, 2, 10), 0.3));
    EXPECT(near(failRatio(0, 0, 10), 0.0));
    // Nothing attempted but a failed check still reads as failing.
    EXPECT(near(failRatio(0, 1, 0), 1.0));
}

void
testRssAndLateness()
{
    EXPECT(near(rssMbFromKb(2048), 2.0));
    EXPECT(peakRssMb() > 0.0);

    Lateness l = lateness({0, 1'000'000, 2'000'000},
                          {0, 3'000'000, 1'500'000});
    EXPECT(l.n == 3 && near(l.max_ms, 2.0) && near(l.mean_ms, 2.0 / 3));
    EXPECT(lateness({}, {}).n == 0);
}

void
testOverhead()
{
    // Units 0, 2 traced; 1 untraced A; 3 untraced B.
    AlternatingSamples s;
    s.add(0, 10);
    s.add(1, 8);
    s.add(2, 12);
    s.add(3, 8.8);
    EXPECT(s.traced.size() == 2 && s.untraced_a.size() == 1 &&
           s.untraced_b.size() == 1);
    Overhead o = s.overhead();
    // Nearest-rank medians: traced 10, untraced {8, 8.8} -> 8.
    EXPECT(near(o.pct, 25.0));
    EXPECT(near(o.aa_pct, 10.0));
    EXPECT(o.traced_n == 2 && o.untraced_n == 2);
    EXPECT(AlternatingSamples::tracedUnit(4) &&
           !AlternatingSamples::tracedUnit(5));
}

void
testCoverage()
{
    // Overlapping children merge; parts outside the parent are clipped.
    EXPECT(trace::coveredNs(0, 100,
                            {{10, 20}, {15, 30}, {90, 120}, {200, 300}}) ==
           30);
    EXPECT(trace::coveredNs(0, 100, {}) == 0);
    EXPECT(trace::coveredNs(0, 100, {{-50, 150}}) == 100);
}

void
testSelfTimes()
{
    // push [0,100) ⊃ send [10,90) on the sender; the listener's accept
    // [20,60) links to send by key, and holds a deposit [25,35).
    std::vector<trace::SpanRecord> spans = {
        span(1, 0, "push", 0, 100),
        span(2, 1, "send", 10, 90, "k"),
        span(3, 0, "accept", 20, 60, {}, "k"),
        span(4, 3, "deposit", 25, 35),
        span(5, 0, "orphan", 0, 5, {}, "missing"),
    };
    trace::Tree t = trace::buildTree(spans);
    EXPECT(t.parent[2] == 1 && t.parent[3] == 2 && t.parent[4] == -1);
    EXPECT(t.self_ns[0] == 20);
    EXPECT(t.self_ns[1] == 40);
    EXPECT(t.self_ns[2] == 30);
    EXPECT(t.self_ns[3] == 10);
    EXPECT(t.unresolved == 1);
    EXPECT(near(trace::accountedRatio(t, "push"), 1.0));
    auto stats = trace::statsByName(t);
    EXPECT(stats["send"].count == 1 && near(stats["send"].meanSelfNs(), 40));

    // Two cross-thread children covering the same interval count once.
    trace::Tree u = trace::buildTree({
        span(1, 0, "query", 0, 100, "q"),
        span(2, 0, "service", 10, 50, {}, "q"),
        span(3, 0, "service", 30, 70, {}, "q"),
    });
    EXPECT(u.self_ns[0] == 40);
}

void
testRecordedSpans()
{
    trace::drain();
    trace::setEnabled(true);
    {
        trace::Span op("op");
        trace::Span child("child");
        child.setKey("link");
        std::thread other([] {
            trace::Span remote("remote", "link");
            trace::Span inner("inner");
        });
        other.join();
    }
    trace::setEnabled(false);
    {
        trace::Span off("off"); // Not recorded.
    }
    trace::Tree t = trace::buildTree(trace::drain());
    EXPECT(t.spans.size() == 4 && t.unresolved == 0);
    EXPECT(near(trace::accountedRatio(t, "op"), 1.0));
    for (size_t i = 0; i < t.spans.size(); i++)
        EXPECT(t.self_ns[i] >= 0);
}

} // namespace

int
main()
{
    testPercentiles();
    testFailRatio();
    testRssAndLateness();
    testOverhead();
    testCoverage();
    testSelfTimes();
    testRecordedSpans();
    if (g_failures == 0)
        std::printf("selftest: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
