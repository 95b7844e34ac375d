/**
 * @file
 * The content-addressed profile store: a directory of profile files.
 *
 * Collection is the expensive half of the collector/analyzer split, and
 * fleet drivers re-request the same (workload, collection options) pairs
 * constantly. The store caches profiles on disk under a key derived
 * from everything that determines the collection output — workload
 * name, runtime class, periods scale, instruction budget, seeds, PMU
 * parameters, and the shard plan — so a repeated collect is a cache
 * hit and a changed option is automatically a different entry. The
 * aggregation side addresses imported shards by payload checksum
 * instead.
 *
 * The directory is the whole store: an entry exists exactly when its
 * file does, so a membership test is one stat() and counts, gc and
 * verify share one directory scan. Entries are written to a temp file
 * and renamed into place, so a crashed writer never leaves a truncated
 * profile behind. An flock(2) lock file (`store.lock`) makes a
 * deposit's presence check and write one critical section against
 * other depositors and gc, across *processes*, and a `pins/` directory
 * holds persisted StorePin refcounts so gc cannot evict a shard a
 * pending (even crashed) aggregate still references.
 */

#ifndef HBBP_FLEET_STORE_HH
#define HBBP_FLEET_STORE_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "collect/collector.hh"
#include "collect/profile.hh"
#include "fleet/shard.hh"
#include "sim/machine.hh"
#include "support/bytes.hh"

namespace hbbp {

/** Everything that determines a collection's output, hashable. */
struct ProfileKey
{
    std::string workload;
    CollectorConfig config;
    uint32_t shards = 1;
    /** Machine timing model (skid placement depends on it). */
    MachineConfig machine;

    /** Canonical description string the hash is computed over. */
    std::string describe() const;

    /** 64-bit content hash (FNV-1a over describe()). */
    uint64_t hash() const;
};

class StorePin;

/** On-disk content-addressed cache of collected profiles. */
class ProfileStore
{
  public:
    /** Open (creating if needed) the store rooted at @p dir. */
    explicit ProfileStore(std::string dir);

    ProfileStore(const ProfileStore &) = delete;
    ProfileStore &operator=(const ProfileStore &) = delete;

    /** Path a profile with @p key lives at (whether present or not). */
    std::string pathFor(const ProfileKey &key) const;

    /** True when a profile for @p key is cached (one stat()). */
    bool contains(const ProfileKey &key) const;

    /**
     * Load the cached profile for @p key, or nullopt on a miss. An
     * entry that can no longer be read — a legacy format version, a
     * stale checksum, truncation — is a miss (with a warn()), so a
     * store carried across format bumps heals by re-collection; the
     * heal skips entries younger than a grace window (a racing
     * depositor's fresh re-insert). An entry another process's gc
     * removed is a clean miss.
     */
    std::optional<ProfileData> lookup(const ProfileKey &key) const;

    /** Cache @p profile under @p key (atomic rename into place). */
    void insert(const ProfileKey &key, const ProfileData &profile) const;

    /**
     * The workhorse: return the cached profile for @p key, or collect
     * it (sharded per @p key.shards on @p key.machine with @p jobs
     * workers), cache it and return it. @p cache_hit, when non-null,
     * reports which happened.
     */
    ProfileData getOrCollect(const ProfileKey &key, const Program &prog,
                             unsigned jobs,
                             bool *cache_hit = nullptr) const;

    /**
     * Path a shard with payload checksum @p checksum lives at. The
     * aggregation side of the store: collectors address entries by
     * ProfileKey (what to collect), a central aggregation store
     * addresses imported shards by what they contain.
     */
    std::string pathForChecksum(uint64_t checksum) const;

    /** True when a shard with @p checksum is cached (one stat()). */
    bool containsChecksum(uint64_t checksum) const;

    /**
     * Cache @p profile under its payload @p checksum. Content-
     * addressed: an entry that is already present is left alone (same
     * checksum, same bytes). The presence check and the deposit are
     * one exclusive-locked critical section, so concurrent depositors
     * across processes write each entry exactly once. Returns true
     * when this call deposited the entry.
     */
    bool insertByChecksum(uint64_t checksum,
                          const ProfileData &profile) const;

    /**
     * insertByChecksum() from already-serialized bytes in memory —
     * the zero-copy deposit for transport payloads that arrived as
     * exact profile-file bytes.
     */
    bool depositBytesByChecksum(uint64_t checksum,
                                std::string_view bytes) const;

    /** Number of cached entries (a directory scan). */
    size_t entryCount() const;

    /** Garbage-collection bounds; negative bounds are unlimited. */
    struct GcOptions
    {
        /** Evict entries last written more than this many seconds
         * ago. */
        int64_t max_age_s = -1;
        /** Then evict oldest-first until the store fits this size. */
        int64_t max_bytes = -1;
    };

    /** What gc() scanned and reclaimed. */
    struct GcResult
    {
        size_t scanned = 0;
        size_t evicted = 0;
        /** Evictions refused because a StorePin references them. */
        size_t pinned_skipped = 0;
        uint64_t bytes_before = 0;
        uint64_t bytes_after = 0;
    };

    /**
     * Age- and size-bounded eviction, oldest entry first (by file
     * modification time — a re-inserted entry is young again). The
     * store is a cache: an evicted entry turns the next lookup() into
     * a clean miss to re-collect, never an error. Runs under the
     * exclusive cross-process lock and never evicts a shard some
     * StorePin holds.
     */
    GcResult gc(const GcOptions &options) const;

    /** What verify() checked and found. */
    struct VerifyResult
    {
        size_t checked = 0; ///< Entry files examined.
        /**
         * Entries that do not load, or shards whose payload hashes to
         * another checksum than the one in their name.
         */
        size_t checksum_mismatches = 0;
        bool ok() const { return checksum_mismatches == 0; }
    };

    /**
     * Check that every entry loads (header, payload checksum, body)
     * and that each shard's payload hashes to the checksum its name
     * carries.
     */
    VerifyResult verify() const;

    /** A point-in-time summary for `store stat`. */
    struct Stats
    {
        size_t key_entries = 0;
        size_t shard_entries = 0;
        uint64_t total_bytes = 0;
        size_t pinned = 0;       ///< Distinct pinned checksums.
        size_t pin_owners = 0;   ///< Pin files present.
    };

    Stats stats() const;

    /** Store root directory. */
    const std::string &dir() const { return dir_; }

  private:
    friend class StorePin;

    std::string pinsDir() const { return dir_ + "/pins"; }
    std::string pinPathFor(const std::string &owner) const;

    /** Shared deposit path for the two ByChecksum writers. */
    bool depositLocked(uint64_t checksum,
                       const std::function<void(const std::string &)>
                           &write_to) const;
    /** Checksums pinned by any owner. */
    std::set<uint64_t> pinnedChecksums() const;

    std::string dir_;
    mutable FileLock lock_;
    mutable std::mutex mu_;
};

/**
 * A persisted refcount on store entries: while a checksum is pinned,
 * gc() will not evict it. The aggregator/relay pins a shard *before*
 * depositing it and unpins once the shard is durable downstream
 * (journaled state, acknowledged upstream flush), closing the "gc
 * evicted a shard a pending aggregate still needed" hole.
 *
 * Pins persist in `<store>/pins/<owner>.pins` and survive SIGKILL: a
 * restarted owner constructing a StorePin with the same owner string
 * inherits its previous pins (restored()). Destruction does NOT
 * release — persistence across crashes is the point; call release()
 * on clean completion. Each pin or unpin rewrites the file through a
 * spare, `<owner>.pins.spare`, swapped in with writeFileBySwap(), so
 * the per-shard pin traffic of an ingest node creates no files; gc
 * and stats() read only the `.pins` name.
 */
class StorePin
{
  public:
    /** @p owner must be stable across restarts of the same job. */
    StorePin(const ProfileStore &store, std::string owner);

    StorePin(const StorePin &) = delete;
    StorePin &operator=(const StorePin &) = delete;

    /** Pin @p checksum; persisted before returning. */
    void pin(uint64_t checksum);

    /** Drop one pin; persisted before returning. */
    void unpin(uint64_t checksum);

    /** Drop every pin and delete the pin file (clean completion). */
    void release();

    /** Pins inherited from a previous (crashed) run of this owner. */
    size_t restored() const { return restored_; }

    size_t size() const { return pins_.size(); }
    const std::string &owner() const { return owner_; }

  private:
    void persist() const;
    std::string sparePath() const { return path_ + ".spare"; }

    const ProfileStore &store_;
    std::string owner_;
    /**
     * StorePin's own lock fd on the store's lock file: flock on a
     * *shared* open file description would convert the store's lock
     * instead of blocking against it.
     */
    FileLock lock_;
    std::string path_;
    std::set<uint64_t> pins_;
    size_t restored_ = 0;
};

} // namespace hbbp

#endif // HBBP_FLEET_STORE_HH
