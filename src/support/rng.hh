/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (branch outcomes, PMI skid,
 * LBR quirks) flows through Rng so that experiments are reproducible from
 * a single seed. The generator is xoshiro256**, which is fast and has
 * well-understood statistical quality.
 */

#ifndef HBBP_SUPPORT_RNG_HH
#define HBBP_SUPPORT_RNG_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hbbp {

/** Deterministic xoshiro256** random number generator. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform integer in [0, bound); bound must be > 0. */
    uint64_t nextBelow(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t nextRange(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /**
     * Approximately normal variate via the sum of four uniforms
     * (fast, bounded tails, adequate for workload synthesis).
     */
    double nextGaussian(double mean, double stddev);

    /** Geometric variate: number of failures before first success. */
    uint64_t nextGeometric(double p);

    /** Fork an independent stream labelled by @p stream_id. */
    Rng fork(uint64_t stream_id) const;

  private:
    uint64_t s_[4];
};

/** splitmix64 step; also useful as a cheap deterministic hash. */
uint64_t splitmix64(uint64_t x);

/**
 * FNV-1a 64-bit hash — the repository's stable content hash. It is a
 * wire-compatibility contract: profile payload checksums (and thus
 * shard manifests and duplicate detection) hash with this on every
 * host, so there must be exactly one implementation.
 */
uint64_t fnv1a(const void *data, size_t len);

/** fnv1a() over a byte string or a view into one. */
inline uint64_t
fnv1a(std::string_view bytes)
{
    return fnv1a(bytes.data(), bytes.size());
}

/** Deterministic 64-bit hash of an address (used for PMU quirk selection). */
inline uint64_t
hashAddr(uint64_t addr)
{
    return splitmix64(addr * 0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL);
}

} // namespace hbbp

#endif // HBBP_SUPPORT_RNG_HH
