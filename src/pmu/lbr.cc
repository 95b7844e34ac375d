#include "pmu/lbr.hh"

#include "support/logging.hh"

namespace hbbp {

LbrRing::LbrRing(uint32_t depth, LbrQuirkConfig quirk, uint64_t seed)
    : depth_(depth), quirk_(quirk), rng_(seed)
{
    if (depth_ == 0)
        panic("LbrRing: depth must be >= 1");
    slots_.resize(depth_);
}

bool
LbrRing::isSticky(uint64_t source) const
{
    if (!quirk_.enabled || quirk_.sticky_hash_mod == 0)
        return false;
    return hashAddr(source) % quirk_.sticky_hash_mod == 0;
}

void
LbrRing::insert(uint64_t source, uint64_t target)
{
    if (size_ < depth_) {
        slots_[size_++] = {source, target};
        return;
    }
    // Ring is full: evict the oldest entry — unless the quirk freezes
    // the ring while a sticky branch occupies the oldest slot. A frozen
    // ring drops incoming branches entirely, so snapshots taken during
    // the freeze return stale content with the sticky branch pinned at
    // entry[0]; execution that has moved on is under-represented and the
    // pre-freeze window over-represented, which is exactly the
    // disproportionate-entry[0] distortion of Section III.C.
    bool freeze = isSticky(slots_[head_].source) &&
                  persist_count_ < quirk_.sticky_max_persist &&
                  rng_.chance(quirk_.sticky_persist_prob);
    if (freeze) {
        persist_count_++;
        return;
    }
    persist_count_ = 0;
    slots_[head_] = {source, target};
    head_ = head_ + 1 == depth_ ? 0 : head_ + 1;
}

std::vector<LbrEntry>
LbrRing::snapshot() const
{
    // A ring that is not full has its head at slot 0.
    std::vector<LbrEntry> out;
    out.reserve(size_);
    out.insert(out.end(), slots_.begin() + head_, slots_.begin() + size_);
    out.insert(out.end(), slots_.begin(), slots_.begin() + head_);
    return out;
}

void
LbrRing::clear()
{
    head_ = 0;
    size_ = 0;
    persist_count_ = 0;
}

} // namespace hbbp
