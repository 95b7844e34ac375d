/**
 * @file
 * The benchmark's own arithmetic: percentiles and the tail rule, the
 * failure ratio, peak RSS, load-generator lateness and tracing
 * overhead. Kept free of the hbbp library so tests/selftest.cc can
 * check it in isolation.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Minimum number of samples a tail percentile must leave beyond it. */
constexpr size_t kTailBeyond = 10;

/**
 * Nearest-rank percentile of @p sorted (ascending): the sample at
 * 1-based rank ceil(p/100 * n). 0 for an empty input.
 */
double percentileSorted(const std::vector<double> &sorted, double p);

/** Samples strictly beyond the nearest-rank @p p-th percentile. */
size_t samplesBeyond(size_t n, double p);

/** The tail a timing is reported at. */
struct Tail
{
    double value = 0.0;
    /** The percentile used, e.g. 99 for p99. */
    double percentile = 50.0;
    /** Samples beyond it (below kTailBeyond only for tiny inputs). */
    size_t beyond = 0;

    /** "p99", "p99.9", ... */
    std::string name() const;
};

/**
 * The highest percentile of the ladder {99.99, 99.9, 99, 95, 90, 75,
 * 50} that leaves at least kTailBeyond samples beyond it; p50 when
 * even that one does not.
 */
Tail tailOf(std::vector<double> samples);

/** Median, mean, max and tail of one sample set. */
struct Summary
{
    size_t n = 0;
    double p50 = 0.0;
    double mean = 0.0;
    double max = 0.0;
    Tail tail;
};

Summary summarize(std::vector<double> samples);

/**
 * Failed or rejected operations plus failed correctness checks, as a
 * share of the operations attempted (at least 1, so a run that
 * attempted nothing but failed a check still reads as failing).
 */
double failRatio(uint64_t failed_ops, uint64_t failed_checks,
                 uint64_t attempted_ops);

/** ru_maxrss (kilobytes on Linux) in MiB. */
double rssMbFromKb(long max_rss_kb);

/** This process's peak resident set so far, in MiB. */
double peakRssMb();

/**
 * How late a load generator issued its requests. @p due_ns[i] is when
 * request i was due (its schedule slot in an open loop, the previous
 * reply in a closed loop) and @p start_ns[i] when it was issued.
 * Early starts count as 0.
 */
struct Lateness
{
    size_t n = 0;
    double mean_ms = 0.0;
    double max_ms = 0.0;
};

Lateness lateness(const std::vector<int64_t> &due_ns,
                  const std::vector<int64_t> &start_ns);

/** Median of @p values (0 when empty); the input is copied. */
double median(std::vector<double> values);

/** Tracing overhead, with the noise floor it has to clear. */
struct Overhead
{
    /** median(traced) / median(all untraced) - 1, in percent. */
    double pct = 0.0;
    /** The same ratio between the two untraced halves (an A/A test). */
    double aa_pct = 0.0;
    size_t traced_n = 0, untraced_n = 0;
};

/**
 * Samples of a phase that alternates traced and untraced units (cycles
 * or rounds): even units are traced, odd ones untraced, and the
 * untraced ones split into A (unit % 4 == 1) and B (unit % 4 == 3), so
 * traced and untraced samples come from interleaved stretches of the
 * same run.
 */
struct AlternatingSamples
{
    std::vector<double> traced, untraced_a, untraced_b;

    static bool tracedUnit(uint64_t unit) { return unit % 2 == 0; }

    void add(uint64_t unit, double value);
    Overhead overhead() const;
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
