/**
 * @file
 * Generic keyed counters.
 *
 * Counter<Key> is the workhorse container for instruction mixes and basic
 * block execution counts: a hash map from key to double with convenience
 * arithmetic (scaling, merging, normalized views, top-N extraction).
 */

#ifndef HBBP_SUPPORT_HISTOGRAM_HH
#define HBBP_SUPPORT_HISTOGRAM_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/vectorops.hh"

namespace hbbp {

/** A keyed counter with double-valued weights. */
template <typename Key>
class Counter
{
  public:
    using Map = std::unordered_map<Key, double>;

    /** Add @p weight (default 1) to @p key. */
    void
    add(const Key &key, double weight = 1.0)
    {
        values_[key] += weight;
    }

    /** Value for @p key; 0 when absent. */
    double
    get(const Key &key) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? 0.0 : it->second;
    }

    /** True when @p key has been recorded. */
    bool
    contains(const Key &key) const
    {
        return values_.find(key) != values_.end();
    }

    /**
     * Sum of all values, accumulated in sorted-key order through the
     * bit-stable vecops reduction. Summing in unordered_map iteration
     * order would make the result depend on the hash table's bucket
     * layout — i.e. on the standard library, insertion history, and
     * key type — which leaked into mix percentages and aggregate
     * reports. Sorted-key gather plus the fixed-lane vecops::sum makes
     * total() a pure function of the {key, value} set.
     */
    double
    total() const
    {
        return vecops::sum(valuesByKey());
    }

    /** Number of distinct keys. */
    size_t size() const { return values_.size(); }

    /** True when no key has been recorded. */
    bool empty() const { return values_.empty(); }

    /**
     * Merge another counter into this one (scaled by @p scale).
     * Routed through the vecops element-wise kernels: keys present on
     * both sides are gathered into contiguous spans and folded with
     * saxpy (one mul + one add per element, no FMA — the exact
     * per-key expression old + v * scale the scalar loop computed),
     * new keys arrive via scaledCopy. Element-wise kernels touch each
     * lane independently, so the result is bit-identical whatever
     * order the other map is walked in.
     */
    void
    merge(const Counter &other, double scale = 1.0)
    {
        std::vector<double *> dst;
        std::vector<double> dst_vals, src_vals;
        std::vector<const Key *> fresh_keys;
        std::vector<double> fresh_vals;
        dst.reserve(other.values_.size());
        for (const auto &[k, v] : other.values_) {
            auto it = values_.find(k);
            if (it != values_.end()) {
                dst.push_back(&it->second);
                dst_vals.push_back(it->second);
                src_vals.push_back(v);
            } else {
                fresh_keys.push_back(&k);
                fresh_vals.push_back(v);
            }
        }
        vecops::saxpy(dst_vals.data(), scale, src_vals.data(),
                      dst_vals.size());
        for (size_t i = 0; i < dst.size(); i++)
            *dst[i] = dst_vals[i];
        std::vector<double> scaled(fresh_vals.size());
        vecops::scaledCopy(scaled.data(), fresh_vals.data(), scale,
                           fresh_vals.size());
        for (size_t i = 0; i < fresh_keys.size(); i++)
            values_.emplace(*fresh_keys[i], scaled[i]);
    }

    /**
     * Multiply every value by @p scale, as one vecops::scale pass over
     * the gathered values (one IEEE multiply per element — the same
     * bits as the per-entry loop).
     */
    void
    scale(double scale)
    {
        std::vector<double *> slots;
        std::vector<double> vals;
        slots.reserve(values_.size());
        vals.reserve(values_.size());
        for (auto &[k, v] : values_) {
            slots.push_back(&v);
            vals.push_back(v);
        }
        vecops::scale(vals.data(), scale, vals.size());
        for (size_t i = 0; i < slots.size(); i++)
            *slots[i] = vals[i];
    }

    /** Entries sorted by decreasing value, at most @p n of them. */
    std::vector<std::pair<Key, double>>
    top(size_t n) const
    {
        std::vector<std::pair<Key, double>> entries(values_.begin(),
                                                    values_.end());
        std::sort(entries.begin(), entries.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second != b.second)
                          return a.second > b.second;
                      return a.first < b.first; // deterministic tie-break
                  });
        if (entries.size() > n)
            entries.resize(n);
        return entries;
    }

    /** All entries sorted by decreasing value. */
    std::vector<std::pair<Key, double>>
    sorted() const
    {
        return top(values_.size());
    }

    /** All entries in increasing key order. */
    std::vector<std::pair<Key, double>>
    sortedByKey() const
    {
        std::vector<std::pair<Key, double>> entries(values_.begin(),
                                                    values_.end());
        std::sort(entries.begin(), entries.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        return entries;
    }

    /** All values in increasing key order (the deterministic span). */
    std::vector<double>
    valuesByKey() const
    {
        auto entries = sortedByKey();
        std::vector<double> values;
        values.reserve(entries.size());
        for (const auto &[k, v] : entries)
            values.push_back(v);
        return values;
    }

    /** Underlying map (read-only). */
    const Map &items() const { return values_; }

    /** Remove all entries. */
    void clear() { values_.clear(); }

  private:
    Map values_;
};

} // namespace hbbp

#endif // HBBP_SUPPORT_HISTOGRAM_HH
