/**
 * @file
 * An open-addressing interning table: maps each distinct key to a dense
 * first-seen id. Samples repeat a few hundred distinct addresses and
 * branches tens of thousands of times, so the profile writer codes them
 * through one and the BBEC estimator memoizes per distinct key with
 * another.
 */

#ifndef HBBP_SUPPORT_DICTIONARY_HH
#define HBBP_SUPPORT_DICTIONARY_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

namespace hbbp {

/** murmur3's 64-bit finalizer: full avalanche for table hashing. */
inline uint64_t
keyHash(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    return x ^ (x >> 33);
}

inline uint64_t
keyHash(const std::pair<uint64_t, uint64_t> &p)
{
    return keyHash(p.first * 0x9e3779b97f4a7c15ULL ^ p.second);
}

/**
 * Interns keys into first-seen ids 0, 1, 2, ... . The slot table keeps
 * its load at or below 1/2 and never shrinks. sorted() then gives the
 * canonical order, which the v4 profile writer needs so its tables —
 * and every id it writes — do not depend on sample order.
 */
template <typename Key>
class Dictionary
{
  public:
    /** The first-seen id of @p key, interning it on first sight. */
    uint32_t
    intern(const Key &key)
    {
        if ((keys_.size() + 1) * 2 > slots_.size())
            grow();
        uint32_t &slot = slots_[find(key)];
        if (slot == kEmpty) {
            slot = static_cast<uint32_t>(keys_.size());
            keys_.push_back(key);
        }
        return slot;
    }

    /** The distinct keys, indexed by first-seen id. */
    const std::vector<Key> &keys() const { return keys_; }

    /** Slots in the open-addressing table (a power of two, or 0). */
    size_t capacity() const { return slots_.size(); }

    /**
     * The distinct keys in ascending order; afterwards rank() maps a
     * first-seen id to its key's index in that table.
     */
    std::vector<Key>
    sorted()
    {
        std::vector<uint32_t> order(keys_.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](uint32_t a, uint32_t b) {
                      return keys_[a] < keys_[b];
                  });
        std::vector<Key> table(keys_.size());
        rank_.resize(keys_.size());
        for (uint32_t i = 0; i < order.size(); i++) {
            table[i] = keys_[order[i]];
            rank_[order[i]] = i;
        }
        return table;
    }

    uint32_t rank(uint32_t id) const { return rank_[id]; }

  private:
    static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

    size_t
    find(const Key &key) const
    {
        size_t mask = slots_.size() - 1;
        for (size_t i = keyHash(key) & mask;; i = (i + 1) & mask)
            if (slots_[i] == kEmpty || keys_[slots_[i]] == key)
                return i;
    }

    void
    grow()
    {
        slots_.assign(std::max<size_t>(64, slots_.size() * 2), kEmpty);
        for (uint32_t id = 0; id < keys_.size(); id++)
            slots_[find(keys_[id])] = id;
    }

    std::vector<Key> keys_;
    std::vector<uint32_t> slots_;
    std::vector<uint32_t> rank_;
};

} // namespace hbbp

#endif // HBBP_SUPPORT_DICTIONARY_HH
