#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

namespace perfbench {

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t n = sorted.size();
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
    rank = std::clamp<size_t>(rank, 1, n);
    return sorted[rank - 1];
}

size_t
samplesBeyond(size_t n, double p)
{
    if (n == 0)
        return 0;
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
    rank = std::clamp<size_t>(rank, 1, n);
    return n - rank;
}

std::string
Tail::name() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "p%g", percentile);
    return buf;
}

Tail
tailOf(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    Tail t;
    for (double p : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (samplesBeyond(samples.size(), p) >= kTailBeyond) {
            t.percentile = p;
            break;
        }
    }
    t.value = percentileSorted(samples, t.percentile);
    t.beyond = samplesBeyond(samples.size(), t.percentile);
    return t;
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = percentileSorted(samples, 50.0);
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    s.mean = sum / static_cast<double>(samples.size());
    s.max = samples.back();
    s.tail = tailOf(std::move(samples));
    return s;
}

double
failRatio(uint64_t failed_ops, uint64_t failed_checks,
          uint64_t attempted_ops)
{
    uint64_t base = std::max<uint64_t>(attempted_ops, 1);
    return static_cast<double>(failed_ops + failed_checks) /
           static_cast<double>(base);
}

double
rssMbFromKb(long max_rss_kb)
{
    return static_cast<double>(max_rss_kb) / 1024.0;
}

double
peakRssMb()
{
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    return rssMbFromKb(ru.ru_maxrss);
}

Lateness
lateness(const std::vector<int64_t> &due_ns,
         const std::vector<int64_t> &start_ns)
{
    Lateness l;
    size_t n = std::min(due_ns.size(), start_ns.size());
    l.n = n;
    if (n == 0)
        return l;
    double sum = 0.0;
    for (size_t i = 0; i < n; i++) {
        double late = std::max<int64_t>(start_ns[i] - due_ns[i], 0) / 1e6;
        sum += late;
        l.max_ms = std::max(l.max_ms, late);
    }
    l.mean_ms = sum / static_cast<double>(n);
    return l;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return percentileSorted(values, 50.0);
}

void
AlternatingSamples::add(uint64_t unit, double value)
{
    if (tracedUnit(unit))
        traced.push_back(value);
    else if (unit % 4 == 1)
        untraced_a.push_back(value);
    else
        untraced_b.push_back(value);
}

Overhead
AlternatingSamples::overhead() const
{
    auto pct = [](double num, double den) {
        return (num / std::max(den, 1e-12) - 1.0) * 100.0;
    };
    std::vector<double> untraced = untraced_a;
    untraced.insert(untraced.end(), untraced_b.begin(), untraced_b.end());
    Overhead o;
    o.pct = pct(median(traced), median(untraced));
    o.aa_pct = pct(median(untraced_b), median(untraced_a));
    o.traced_n = traced.size();
    o.untraced_n = untraced.size();
    return o;
}

} // namespace perfbench
