#include "fleet/store.hh"

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "support/events.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/telemetry.hh"

namespace fs = std::filesystem;

namespace hbbp {

namespace {

// lookup() heals stale entries by unlinking them — but an entry
// younger than this is plausibly a concurrent depositor's fresh
// re-insert that this reader raced (it loaded the old bytes, the file
// under the name is already new), and unlinking it would throw away
// good work. Entries younger than the grace window are not unlinked.
constexpr auto kHealGrace = std::chrono::seconds(60);

/** One entry file, as a directory scan found it. */
struct Entry
{
    std::string path;
    bool shard = false;
    /** From the name: a key hash, or a shard's payload checksum. */
    uint64_t id = 0;
    uint64_t size = 0;
    fs::file_time_type mtime;
};

/** Parse an entry filename into (shard?, id); false for other files. */
bool
parseEntryName(const std::string &name, bool *shard, uint64_t *id)
{
    unsigned long long v = 0;
    char tail = 0;
    if (std::sscanf(name.c_str(), "shard-%16llx.hbb%c", &v, &tail) ==
            2 &&
        tail == 'p' && name.size() == 27) {
        *shard = true;
        *id = v;
        return true;
    }
    if (std::sscanf(name.c_str(), "%16llx.hbb%c", &v, &tail) == 2 &&
        tail == 'p' && name.size() == 21) {
        *shard = false;
        *id = v;
        return true;
    }
    return false;
}

/**
 * Every entry file in store directory @p dir. Temp files, the lock
 * file and pins/ are not entries, and a file that vanishes mid-scan
 * (another process's gc) is skipped.
 */
std::vector<Entry>
scanEntries(const std::string &dir)
{
    std::vector<Entry> entries;
    std::error_code ec;
    for (const fs::directory_entry &e : fs::directory_iterator(dir, ec)) {
        Entry entry;
        if (!parseEntryName(e.path().filename().string(), &entry.shard,
                            &entry.id))
            continue;
        entry.path = e.path().string();
        entry.mtime = fs::last_write_time(e.path(), ec);
        if (ec)
            continue;
        entry.size = fs::file_size(e.path(), ec);
        if (ec)
            continue;
        entries.push_back(std::move(entry));
    }
    return entries;
}

telemetry::Counter &
lockWaitCounter()
{
    static telemetry::Counter &m =
        telemetry::counter("hbbp_store_lock_waits_total");
    return m;
}

telemetry::Counter &
lockWaitNsCounter()
{
    static telemetry::Counter &m =
        telemetry::counter("hbbp_store_lock_wait_ns_total");
    return m;
}

void
noteLockWait(const FileLock::Guard &guard)
{
    lockWaitNsCounter().add(guard.waitNs());
    if (guard.waitNs() > 0)
        lockWaitCounter().add();
}

} // namespace

std::string
ProfileKey::describe() const
{
    const PmuConfig &p = config.pmu;
    const LbrQuirkConfig &q = p.quirk;
    return format(
        "workload=%s;class=%s;scale=%llu;budget=%llu;seed=%llu;"
        "shards=%u;pmu_seed=%llu;skid=%u-%u;lbr_delay=%u;lbr_depth=%u;"
        "kernel=%d;quirk=%d,%u,%.9g,%u;freq=%.9g;memx=%u",
        workload.c_str(), name(config.runtime_class),
        static_cast<unsigned long long>(config.period_scale),
        static_cast<unsigned long long>(config.max_instructions),
        static_cast<unsigned long long>(config.seed), shards,
        static_cast<unsigned long long>(p.seed),
        p.precise_skid_min_cycles, p.precise_skid_max_cycles,
        p.lbr_pmi_delay_cycles, p.lbr_depth, p.monitor_kernel ? 1 : 0,
        q.enabled ? 1 : 0, q.sticky_hash_mod, q.sticky_persist_prob,
        q.sticky_max_persist, machine.freq_ghz,
        machine.mem_extra_cycles);
}

uint64_t
ProfileKey::hash() const
{
    return fnv1a(describe());
}

ProfileStore::ProfileStore(std::string dir)
    : dir_(std::move(dir)), lock_(dir_ + "/store.lock")
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create profile store '%s': %s", dir_.c_str(),
              ec.message().c_str());
    fs::create_directories(pinsDir(), ec);
    if (ec)
        fatal("cannot create profile store pins dir '%s': %s",
              pinsDir().c_str(), ec.message().c_str());
}

std::string
ProfileStore::pathFor(const ProfileKey &key) const
{
    return format("%s/%016llx.hbbp", dir_.c_str(),
                  static_cast<unsigned long long>(key.hash()));
}

std::string
ProfileStore::pathForChecksum(uint64_t checksum) const
{
    // A distinct prefix keeps checksum-addressed shards from ever
    // colliding with a key-addressed collection cache entry.
    return format("%s/shard-%016llx.hbbp", dir_.c_str(),
                  static_cast<unsigned long long>(checksum));
}

std::string
ProfileStore::pinPathFor(const std::string &owner) const
{
    return format("%s/%s.pins", pinsDir().c_str(), owner.c_str());
}

bool
ProfileStore::contains(const ProfileKey &key) const
{
    std::error_code ec;
    return fs::exists(pathFor(key), ec);
}

bool
ProfileStore::containsChecksum(uint64_t checksum) const
{
    std::error_code ec;
    return fs::exists(pathForChecksum(checksum), ec);
}

std::optional<ProfileData>
ProfileStore::lookup(const ProfileKey &key) const
{
    static telemetry::Counter &m_hits =
        telemetry::counter("hbbp_store_hits_total");
    static telemetry::Counter &m_misses =
        telemetry::counter("hbbp_store_misses_total");
    static telemetry::Counter &m_heals =
        telemetry::counter("hbbp_store_heals_total");
    // A cache treats an unreadable entry — legacy format version,
    // stale checksum, truncation — as a miss to be re-collected and
    // overwritten, never a fatal error. Evict the dead file while
    // we're here: misses under the same key overwrite it anyway, but a
    // format bump strands entries under every *other* key, and without
    // eviction the whole stale store leaks on disk forever.
    std::string path = pathFor(key);
    std::string why;
    bool io_failed = false;
    std::optional<ProfileData> pd =
        ProfileData::tryLoad(path, &why, nullptr, &io_failed);
    if (pd) {
        m_hits.add();
        return pd;
    }
    m_misses.add();
    std::error_code ec;
    if (io_failed) {
        // No file (never inserted, or another process's gc took it)
        // is a clean miss. Only the entry's *content* condemns it: an
        // I/O-level failure (fd exhaustion, a transient permission
        // hiccup, a flaky mount) says nothing about the bytes, and
        // deleting on that would throw away a perfectly good entry.
        if (fs::exists(path, ec))
            warn("ignoring unreadable profile store entry (%s)",
                 why.c_str());
        return std::nullopt;
    }
    // Stale content. But a *young* file is plausibly a concurrent
    // depositor's fresh re-insert under the same name that this
    // reader raced (we read the old inode or a mid-rename window);
    // unlinking it would destroy their good work. Heal only entries
    // older than the grace window, and re-check the age under the
    // exclusive lock so the decision and the unlink are atomic
    // against depositors (their rename holds it too).
    std::lock_guard<std::mutex> lk(mu_);
    FileLock::Guard guard(lock_);
    noteLockWait(guard);
    auto mtime = fs::last_write_time(path, ec);
    if (ec)
        return std::nullopt; // Vanished; nothing to heal.
    auto age = fs::file_time_type::clock::now() - mtime;
    if (age < kHealGrace) {
        warn("not healing young profile store entry (%s); a "
             "concurrent depositor may have just rewritten it",
             why.c_str());
        return std::nullopt;
    }
    warn("evicting stale profile store entry (%s)", why.c_str());
    m_heals.add();
    fs::remove(path, ec);
    return std::nullopt;
}

void
ProfileStore::insert(const ProfileKey &key,
                     const ProfileData &profile) const
{
    // Locked although the rename alone is atomic: lookup()'s heal
    // decides on the old file's age under this lock.
    std::lock_guard<std::mutex> lk(mu_);
    FileLock::Guard guard(lock_);
    noteLockWait(guard);
    profile.saveAtomically(pathFor(key));
}

bool
ProfileStore::depositLocked(
    uint64_t checksum,
    const std::function<void(const std::string &)> &write_to) const
{
    static telemetry::Counter &m_dedup =
        telemetry::counter("hbbp_store_deposit_dedups_total");
    std::string path = pathForChecksum(checksum);
    std::lock_guard<std::mutex> lk(mu_);
    FileLock::Guard guard(lock_);
    noteLockWait(guard);
    std::error_code ec;
    if (fs::exists(path, ec)) {
        // Content-addressed: present means byte-identical. The check
        // and the deposit share this critical section, so concurrent
        // depositors across processes write each entry exactly once.
        m_dedup.add();
        return false;
    }
    write_to(path);
    telemetry::beatEnable(telemetry::Stage::Deposit);
    telemetry::beat(telemetry::Stage::Deposit);
    return true;
}

bool
ProfileStore::insertByChecksum(uint64_t checksum,
                               const ProfileData &profile) const
{
    return depositLocked(checksum, [&](const std::string &path) {
        profile.saveAtomically(path);
    });
}

bool
ProfileStore::depositBytesByChecksum(uint64_t checksum,
                                     std::string_view bytes) const
{
    return depositLocked(checksum, [&](const std::string &dst) {
        writeFileAtomically(dst, std::string(bytes));
    });
}

ProfileData
ProfileStore::getOrCollect(const ProfileKey &key, const Program &prog,
                           unsigned jobs, bool *cache_hit) const
{
    if (std::optional<ProfileData> cached = lookup(key)) {
        if (cache_hit)
            *cache_hit = true;
        return std::move(*cached);
    }
    ShardPlan plan;
    plan.shards = key.shards;
    plan.jobs = jobs;
    ProfileData pd = collectSharded(prog, key.machine, key.config, plan);
    insert(key, pd);
    if (cache_hit)
        *cache_hit = false;
    return pd;
}

std::set<uint64_t>
ProfileStore::pinnedChecksums() const
{
    std::set<uint64_t> pinned;
    std::error_code ec;
    for (const fs::directory_entry &e :
         fs::directory_iterator(pinsDir(), ec)) {
        if (e.path().extension() != ".pins")
            continue;
        std::string why;
        std::string bytes = readFileBytes(e.path().string(), &why);
        if (!why.empty())
            continue; // Vanished (owner released mid-scan).
        size_t pos = bytes.find('\n');
        if (pos == std::string::npos ||
            bytes.compare(0, 12, "hbbp-pins v1") != 0) {
            warn("ignoring malformed pin file '%s'",
                 e.path().c_str());
            continue;
        }
        pos++;
        while (pos < bytes.size()) {
            size_t eol = bytes.find('\n', pos);
            if (eol == std::string::npos)
                break; // A torn final line never pinned anything.
            unsigned long long v = 0;
            if (std::sscanf(bytes.c_str() + pos, "%16llx", &v) == 1)
                pinned.insert(v);
            pos = eol + 1;
        }
    }
    return pinned;
}

ProfileStore::GcResult
ProfileStore::gc(const GcOptions &options) const
{
    // The whole pass holds the exclusive lock: depositors and other
    // gcs serialize against it, which is what lets eviction trust its
    // pin snapshot.
    std::lock_guard<std::mutex> lk(mu_);
    FileLock::Guard guard(lock_);
    noteLockWait(guard);

    GcResult res;
    std::vector<Entry> entries = scanEntries(dir_);
    for (const Entry &entry : entries)
        res.bytes_before += entry.size;
    res.scanned = entries.size();
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime ||
                         (a.mtime == b.mtime && a.path < b.path);
              });

    std::set<uint64_t> pinned = pinnedChecksums();
    res.bytes_after = res.bytes_before;
    // Eviction skips pinned entries rather than stopping at them:
    // the pin protects its entry, not everything younger.
    auto evict = [&](const Entry &entry) {
        // A pin names a payload checksum, and only a shard's name is
        // one.
        if (entry.shard && pinned.count(entry.id)) {
            res.pinned_skipped++;
            static telemetry::Counter &m_pinned =
                telemetry::counter("hbbp_store_gc_pinned_skips_total");
            m_pinned.add();
            return;
        }
        std::error_code rm_ec;
        fs::remove(entry.path, rm_ec);
        if (rm_ec) {
            // Counting a failed remove as freed space would let the
            // size pass stop early and report an under-budget store
            // that is still over the bound.
            warn("cannot evict profile store entry '%s': %s",
                 entry.path.c_str(), rm_ec.message().c_str());
            return;
        }
        res.evicted++;
        res.bytes_after -= entry.size;
        static telemetry::Counter &m_evictions =
            telemetry::counter("hbbp_store_gc_evictions_total");
        m_evictions.add();
        events::emit(
            events::Level::Info, "store_gc_evict",
            {{"entry", fs::path(entry.path).filename().string()},
             {"bytes", format("%llu", static_cast<unsigned long long>(
                                          entry.size))}});
    };

    size_t next = 0;
    if (options.max_age_s >= 0) {
        // An "effectively unlimited" age like 1e11 seconds would
        // overflow the file clock's rep when subtracted (the clock's
        // epoch may itself sit far from now — libstdc++ uses 2174),
        // wrapping the cutoff into the future and evicting the
        // *entire* store. Guard every step: a cutoff that would fall
        // before representable time means nothing can be that old.
        using file_dur = fs::file_time_type::duration;
        auto now_d =
            fs::file_time_type::clock::now().time_since_epoch();
        int64_t max_sec =
            std::chrono::duration_cast<std::chrono::seconds>(
                file_dur::max())
                .count();
        bool cutoff_ok = false;
        fs::file_time_type cutoff{};
        if (options.max_age_s <= max_sec) {
            file_dur age =
                std::chrono::duration_cast<file_dur>(
                    std::chrono::seconds(options.max_age_s));
            if (now_d >= file_dur::min() + age) {
                cutoff = fs::file_time_type(now_d - age);
                cutoff_ok = true;
            }
        }
        // Oldest-first order means the age pass consumes a prefix.
        while (cutoff_ok && next < entries.size() &&
               entries[next].mtime < cutoff)
            evict(entries[next++]);
    }
    if (options.max_bytes >= 0) {
        while (next < entries.size() &&
               res.bytes_after > static_cast<uint64_t>(options.max_bytes))
            evict(entries[next++]);
    }
    static telemetry::Gauge &m_resident =
        telemetry::gauge("hbbp_store_resident_bytes");
    m_resident.set(static_cast<int64_t>(res.bytes_after));
    static telemetry::Gauge &m_pins =
        telemetry::gauge("hbbp_store_pinned_entries");
    m_pins.set(static_cast<int64_t>(pinned.size()));
    return res;
}

ProfileStore::VerifyResult
ProfileStore::verify() const
{
    // Locked so a concurrent gc cannot unlink an entry between the
    // scan and its read.
    std::lock_guard<std::mutex> lk(mu_);
    FileLock::Guard guard(lock_);
    noteLockWait(guard);
    VerifyResult res;
    for (const Entry &entry : scanEntries(dir_)) {
        res.checked++;
        std::string why;
        uint64_t checksum = 0;
        if (!ProfileData::tryLoad(entry.path, &why, &checksum)) {
            res.checksum_mismatches++;
            warn("store verify: '%s' does not load (%s)",
                 entry.path.c_str(), why.c_str());
        } else if (entry.shard && checksum != entry.id) {
            res.checksum_mismatches++;
            warn("store verify: the payload of '%s' hashes to %016llx",
                 entry.path.c_str(),
                 static_cast<unsigned long long>(checksum));
        }
    }
    return res;
}

ProfileStore::Stats
ProfileStore::stats() const
{
    Stats s;
    for (const Entry &entry : scanEntries(dir_)) {
        (entry.shard ? s.shard_entries : s.key_entries)++;
        s.total_bytes += entry.size;
    }
    s.pinned = pinnedChecksums().size();
    std::error_code ec;
    for (const fs::directory_entry &e :
         fs::directory_iterator(pinsDir(), ec))
        if (e.path().extension() == ".pins")
            s.pin_owners++;
    return s;
}

size_t
ProfileStore::entryCount() const
{
    return scanEntries(dir_).size();
}

StorePin::StorePin(const ProfileStore &store, std::string owner)
    : store_(store), owner_(std::move(owner)),
      lock_(store.dir() + "/store.lock")
{
    // The owner names a file; keep it to safe characters so callers
    // can derive it from addresses or paths without thinking.
    for (char &c : owner_)
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '.' && c != '_' && c != '-')
            c = '_';
    if (owner_.empty())
        fatal("store pin owner must be non-empty");
    path_ = store_.pinPathFor(owner_);
    std::string why;
    std::string bytes = readFileBytes(path_, &why);
    if (why.empty() && bytes.compare(0, 12, "hbbp-pins v1") == 0) {
        // A previous run of this owner (crashed, or mid-flight):
        // inherit its pins so gc keeps protecting them until this
        // run completes or releases.
        size_t pos = bytes.find('\n');
        pos = pos == std::string::npos ? bytes.size() : pos + 1;
        while (pos < bytes.size()) {
            size_t eol = bytes.find('\n', pos);
            if (eol == std::string::npos)
                break;
            unsigned long long v = 0;
            if (std::sscanf(bytes.c_str() + pos, "%16llx", &v) == 1)
                pins_.insert(v);
            pos = eol + 1;
        }
        restored_ = pins_.size();
    }
}

void
StorePin::persist() const
{
    std::string bytes =
        format("hbbp-pins v1 owner=%s\n", owner_.c_str());
    for (uint64_t c : pins_)
        bytes += format("%016llx\n", static_cast<unsigned long long>(c));
    writeFileAtomically(path_, bytes);
}

void
StorePin::pin(uint64_t checksum)
{
    if (!pins_.insert(checksum).second)
        return;
    // Persist under the store's exclusive lock: gc holds it for a
    // whole pass, so a pin is durable either before gc snapshots the
    // pin set or after the pass completes — never invisibly in
    // between. (Pin before deposit; the deposit itself re-checks
    // presence under the same lock, so an eviction that slipped in
    // just forces a re-deposit.)
    static telemetry::Counter &m_pins =
        telemetry::counter("hbbp_store_pins_total");
    m_pins.add();
    telemetry::gauge("hbbp_store_pinned_entries")
        .set(static_cast<int64_t>(pins_.size()));
    FileLock::Guard guard(lock_);
    noteLockWait(guard);
    persist();
}

void
StorePin::unpin(uint64_t checksum)
{
    if (!pins_.erase(checksum))
        return;
    static telemetry::Counter &m_unpins =
        telemetry::counter("hbbp_store_unpins_total");
    m_unpins.add();
    telemetry::gauge("hbbp_store_pinned_entries")
        .set(static_cast<int64_t>(pins_.size()));
    FileLock::Guard guard(lock_);
    noteLockWait(guard);
    persist();
}

void
StorePin::release()
{
    pins_.clear();
    telemetry::gauge("hbbp_store_pinned_entries").set(0);
    FileLock::Guard guard(lock_);
    noteLockWait(guard);
    std::error_code ec;
    fs::remove(path_, ec);
}

} // namespace hbbp
