#include "support/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/logging.hh"
#include "support/vectorops.hh"

namespace hbbp {

void
RunningStats::add(double x)
{
    addWeighted(x, 1.0);
}

void
RunningStats::addWeighted(double x, double weight)
{
    if (weight <= 0.0)
        return;
    count_++;
    if (!has_any_) {
        min_ = max_ = x;
        has_any_ = true;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    // Weighted Welford update (West 1979).
    double new_weight = weight_ + weight;
    double delta = x - mean_;
    double r = delta * weight / new_weight;
    mean_ += r;
    m2_ += weight_ * delta * r;
    weight_ = new_weight;
}

double
RunningStats::mean() const
{
    return weight_ > 0.0 ? mean_ : 0.0;
}

double
RunningStats::variance() const
{
    if (count_ < 2 || weight_ <= 0.0)
        return 0.0;
    return m2_ / weight_;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    // The fold goes through vecops: bit-stable 8-lane reduction.
    return vecops::sum(xs) / static_cast<double>(xs.size());
}

double
variance(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    double m = mean(xs);
    // Two-pass population variance: center first (one IEEE subtract
    // per element), then fold the squares as a vecops dot product —
    // both halves are bit-stable.
    std::vector<double> centered(xs.size());
    for (size_t i = 0; i < xs.size(); i++)
        centered[i] = xs[i] - m;
    return vecops::dot(centered.data(), centered.data(),
                       centered.size()) /
           static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    return std::sqrt(variance(xs));
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    if (p < 0.0 || p > 100.0)
        panic("percentile: p=%f out of [0,100]", p);
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1)
        return xs[0];
    double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    // log() stays scalar (not a span kernel); the fold of the logs
    // routes through vecops like every other reduction.
    std::vector<double> logs(xs.size());
    for (size_t i = 0; i < xs.size(); i++) {
        if (xs[i] <= 0.0)
            panic("geomean requires positive inputs, got %f", xs[i]);
        logs[i] = std::log(xs[i]);
    }
    return std::exp(vecops::sum(logs) /
                    static_cast<double>(xs.size()));
}

} // namespace hbbp
