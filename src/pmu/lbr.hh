/**
 * @file
 * The Last Branch Record ring buffer, including the entry[0] bias quirk.
 *
 * The real LBR is a circular hardware buffer of the most recent taken
 * branches, each a <source, target> pair. Section III.C of the paper
 * documents an anomaly in which one particular branch occupies entry[0]
 * (the oldest slot in the paper's indexing) up to 50% of the time,
 * rendering the affected streams unusable; the authors reported it to
 * the manufacturer. We model the anomaly mechanically: a deterministic,
 * address-hash-selected subset of branches is "sticky" — while a sticky
 * branch is the oldest entry, eviction fails with high probability, so
 * the oldest slot goes stale and the <target[0], source[1]> stream
 * becomes temporally inconsistent.
 *
 * The ring is a fixed circular buffer: an eviction overwrites the
 * oldest slot and advances the head, so inserting costs the same at
 * every depth. Snapshots are unrolled oldest-first, matching the
 * paper's indexing where source[0] has no corresponding target[-1].
 */

#ifndef HBBP_PMU_LBR_HH
#define HBBP_PMU_LBR_HH

#include <cstdint>
#include <vector>

#include "support/rng.hh"

namespace hbbp {

/** One LBR record: a taken branch's source and target addresses. */
struct LbrEntry
{
    uint64_t source = 0;
    uint64_t target = 0;

    bool operator==(const LbrEntry &other) const = default;
};

/** Parameters of the entry[0] bias quirk. */
struct LbrQuirkConfig
{
    bool enabled = true;
    /** A branch source is sticky when hashAddr(src) % mod == 0. */
    uint32_t sticky_hash_mod = 47;
    /** Probability a sticky oldest entry survives an eviction. */
    double sticky_persist_prob = 0.95;
    /** Hard cap on consecutive survived evictions. */
    uint32_t sticky_max_persist = 150;
};

/** The LBR circular buffer. */
class LbrRing
{
  public:
    /** @param depth hardware stack depth (16 on Ivy Bridge). */
    explicit LbrRing(uint32_t depth = 16, LbrQuirkConfig quirk = {},
                     uint64_t seed = 0x5eedf00d);

    /** Record a taken branch, applying the sticky-eviction quirk. */
    void insert(uint64_t source, uint64_t target);

    /** Snapshot the ring, oldest entry first. */
    std::vector<LbrEntry> snapshot() const;

    /** Number of valid entries (== depth once warmed up). */
    uint32_t size() const { return size_; }

    /** Configured depth. */
    uint32_t depth() const { return depth_; }

    /** True when @p source is a quirk-selected sticky branch. */
    bool isSticky(uint64_t source) const;

    /** Discard all entries (context switch / freeze modelling). */
    void clear();

  private:
    uint32_t depth_;
    LbrQuirkConfig quirk_;
    Rng rng_;
    /** depth_ slots; the size_ valid entries start at slots_[head_]. */
    std::vector<LbrEntry> slots_;
    /** Slot of the oldest entry; nonzero only once the ring is full. */
    uint32_t head_ = 0;
    uint32_t size_ = 0;
    uint32_t persist_count_ = 0;
};

} // namespace hbbp

#endif // HBBP_PMU_LBR_HH
