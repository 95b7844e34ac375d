/**
 * @file
 * Small statistics helpers used by the analyzer and the ML trainer.
 */

#ifndef HBBP_SUPPORT_STATS_HH
#define HBBP_SUPPORT_STATS_HH

#include <cstddef>
#include <vector>

namespace hbbp {

/**
 * Streaming accumulator for mean / variance / extrema (Welford's method).
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Add one weighted observation. */
    void addWeighted(double x, double weight);

    /** Number of (unweighted) observations. */
    size_t count() const { return count_; }

    /** Sum of weights (== count() when unweighted). */
    double totalWeight() const { return weight_; }

    /** Weighted mean; 0 when empty. */
    double mean() const;

    /** Weighted population variance; 0 when fewer than 2 samples. */
    double variance() const;

    /** Square root of variance(). */
    double stddev() const;

    /** Smallest observation; +inf when empty. */
    double min() const { return min_; }

    /** Largest observation; -inf when empty. */
    double max() const { return max_; }

    /** Sum of x * weight. */
    double weightedSum() const { return mean_ * weight_; }

  private:
    size_t count_ = 0;
    double weight_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    bool has_any_ = false;
};

/** Arithmetic mean of a vector; 0 when empty. Folds via vecops. */
double mean(const std::vector<double> &xs);

/**
 * Population variance of a vector; 0 with fewer than 2 samples.
 * Two-pass (mean, then centered squares), both folds via vecops, so
 * the result is bit-identical on every build.
 */
double variance(const std::vector<double> &xs);

/** Square root of variance(xs). */
double stddev(const std::vector<double> &xs);

/**
 * Percentile via linear interpolation between closest ranks.
 *
 * @param xs  samples (need not be sorted; copied internally)
 * @param p   percentile in [0, 100]
 */
double percentile(std::vector<double> xs, double p);

/** Geometric mean; requires strictly positive inputs, 0 when empty. */
double geomean(const std::vector<double> &xs);

} // namespace hbbp

#endif // HBBP_SUPPORT_STATS_HH
