#include "fleet/aggregate.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "fleet/merge.hh"
#include "support/bytes.hh"
#include "support/events.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/telemetry.hh"

namespace fs = std::filesystem;

namespace hbbp {

namespace {

/** A profile carrying only the merge-compatibility fields. */
ProfileData
compatReference(const ProfileData &pd)
{
    ProfileData ref;
    ref.sim_periods = pd.sim_periods;
    ref.paper_periods = pd.paper_periods;
    ref.runtime_class = pd.runtime_class;
    return ref;
}

// Aggregator state file: the same header discipline as profile v3 —
// magic, format version, payload length, payload checksum — so a
// truncated or corrupt state file is detected before anything is
// trusted, and a restarted aggregator falls back to a cold start
// instead of resuming from garbage. Version 2 added the relay fields
// (max level seen, aggregate/superseded arrival counts); version-1
// files from pre-relay builds restore as a cold start.
constexpr uint64_t kStateMagic = 0x48424250'41474753ULL; // "HBBPAGGS"
constexpr uint32_t kStateVersion = 2;

/** Embed a serialized profile (self-validating bytes) in the state. */
void
putProfile(ByteWriter &w, const ProfileData &pd)
{
    std::string bytes = pd.serialize();
    w.u64(bytes.size());
    w.raw(bytes.data(), bytes.size());
}

ProfileData
takeProfile(ByteReader &r, const std::string &path)
{
    uint64_t n = r.count(r.u64(), 1, "embedded profile byte");
    std::string bytes(static_cast<size_t>(n), '\0');
    r.raw(bytes.data(), bytes.size());
    std::string why;
    std::optional<ProfileData> pd = ProfileData::parse(bytes, path, &why);
    if (!pd)
        throw ByteParseError(format(
            "embedded profile in aggregator state '%s' is invalid: %s",
            path.c_str(), why.c_str()));
    return std::move(*pd);
}

/** Steady-clock nanoseconds, for fold-time accounting. */
uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Nanoseconds the aggregator spent folding shard payloads. */
telemetry::Counter &
foldNsCounter()
{
    static telemetry::Counter &c =
        telemetry::counter("hbbp_agg_fold_ns_total");
    return c;
}

/**
 * Mirror a rejection into the matching telemetry counter. The reject
 * lambdas already name the stats slot they bump; keying on that slot
 * keeps the exit-line stats and the live metrics in lockstep without
 * touching every reject site.
 */
void
noteRejectMetric(const size_t *stat, const AggregatorStats *stats)
{
    static telemetry::Counter &dup =
        telemetry::counter("hbbp_agg_duplicates_total");
    static telemetry::Counter &incompatible =
        telemetry::counter("hbbp_agg_incompatible_total");
    static telemetry::Counter &malformed =
        telemetry::counter("hbbp_agg_malformed_total");
    if (stat == &stats->duplicates)
        dup.add();
    else if (stat == &stats->incompatible)
        incompatible.add();
    else if (stat == &stats->malformed)
        malformed.add();
}

} // namespace

bool
IncrementalAggregator::addShard(const ShardManifest &manifest,
                                ProfileData profile, std::string *why)
{
    auto reject = [&](size_t *stat, std::string reason) {
        (*stat)++;
        noteRejectMetric(stat, &stats_);
        if (why)
            *why = std::move(reason);
        return false;
    };

    if (seen_checksums_.count(manifest.checksum))
        return reject(
            &stats_.duplicates,
            format("duplicate shard: checksum %016llx from host '%s' "
                   "is already aggregated",
                   static_cast<unsigned long long>(manifest.checksum),
                   manifest.host.c_str()));

    // The aggregate is analyzed against one program: folding another
    // workload's samples in would silently bias every estimate, the
    // exact failure the paper's period-compatibility rule guards
    // against one level down.
    if (!workload_.empty() && manifest.workload != workload_)
        return reject(
            &stats_.incompatible,
            format("incompatible shard from host '%s': workload '%s' "
                   "does not match the aggregate's workload '%s'",
                   manifest.host.c_str(), manifest.workload.c_str(),
                   workload_.c_str()));

    std::string compat_why;
    if (compat_ref_ &&
        !mergeCompatible(*compat_ref_, profile, &compat_why))
        return reject(
            &stats_.incompatible,
            format("incompatible shard from host '%s' (workload '%s', "
                   "seq %u): %s — shards must be collected with "
                   "identical sampling periods and runtime class",
                   manifest.host.c_str(), manifest.workload.c_str(),
                   manifest.seq, compat_why.c_str()));

    // Reconcile the module map here, before anything is folded: a
    // conflicting placement inside mergeInto() is fatal(), which would
    // take down a long-running aggregator over one bad shard. The
    // copy is committed only once the shard is accepted.
    std::vector<MmapRecord> mmaps = mmaps_;
    std::string conflict;
    if (!reconcileMmaps(mmaps, profile.mmaps, &conflict))
        return reject(&stats_.incompatible,
                      format("incompatible shard from host '%s': %s",
                             manifest.host.c_str(), conflict.c_str()));

    HostState &hs = hosts_[manifest.host];
    // The checksum differs (or we'd have caught it above), so two
    // different collections claim the same slot — likely a
    // re-collection with changed options; refuse to guess which wins.
    if (manifest.seq < hs.next_seq || hs.pending.count(manifest.seq))
        return reject(
            &stats_.duplicates,
            format("host '%s' already delivered a different shard for "
                   "sequence %u",
                   manifest.host.c_str(), manifest.seq));

    if (!compat_ref_) {
        compat_ref_ = compatReference(profile);
        workload_ = manifest.workload;
    }
    mmaps_ = std::move(mmaps);
    seen_checksums_.insert(manifest.checksum);
    uint64_t fold_start = nowNs();
    if (manifest.seq == hs.next_seq) {
        // Move rather than copy: arrivals are the import hot path and
        // the sample vectors dominate the profile's size.
        if (!hs.partial)
            hs.partial = std::move(profile);
        else
            mergeInto(*hs.partial, profile);
        hs.next_seq++;
        // Drain any out-of-order arrivals that are now contiguous.
        auto it = hs.pending.begin();
        while (it != hs.pending.end() && it->first == hs.next_seq) {
            accumulateInto(hs.partial, it->second);
            hs.next_seq++;
            it = hs.pending.erase(it);
        }
    } else {
        hs.pending.emplace(manifest.seq, std::move(profile));
    }
    foldNsCounter().add(nowNs() - fold_start);
    static telemetry::Counter &m_folded =
        telemetry::counter("hbbp_agg_shards_folded_total");
    m_folded.add();
    telemetry::beatEnable(telemetry::Stage::Fold);
    telemetry::beat(telemetry::Stage::Fold);

    stats_.accepted++;
    epoch_++;
    return true;
}

bool
IncrementalAggregator::addAggregateShard(const ShardManifest &manifest,
                                         std::vector<ProfileData> partials,
                                         std::string *why)
{
    auto reject = [&](size_t *stat, std::string reason) {
        (*stat)++;
        noteRejectMetric(stat, &stats_);
        if (why)
            *why = std::move(reason);
        return false;
    };

    if (manifest.level == 0 || manifest.covered.empty())
        return reject(
            &stats_.malformed,
            format("shard from '%s' is not an aggregate (level %u, %zu "
                   "covered hosts)", manifest.host.c_str(),
                   manifest.level, manifest.covered.size()));
    if (manifest.covered.size() != partials.size())
        return reject(
            &stats_.malformed,
            format("aggregate from '%s' covers %zu hosts but carries "
                   "%zu partials", manifest.host.c_str(),
                   manifest.covered.size(), partials.size()));
    if (seen_checksums_.count(manifest.checksum))
        return reject(
            &stats_.duplicates,
            format("duplicate aggregate: checksum %016llx from relay "
                   "'%s' is already folded",
                   static_cast<unsigned long long>(manifest.checksum),
                   manifest.host.c_str()));
    if (!workload_.empty() && manifest.workload != workload_)
        return reject(
            &stats_.incompatible,
            format("incompatible aggregate from relay '%s': workload "
                   "'%s' does not match the aggregate's workload '%s'",
                   manifest.host.c_str(), manifest.workload.c_str(),
                   workload_.c_str()));

    // Nothing below may mutate state until the whole arrival is
    // judged: a rejection must leave the aggregator exactly as it was.
    const ProfileData &ref = compat_ref_ ? *compat_ref_ : partials[0];
    std::vector<MmapRecord> mmaps = mmaps_;
    for (size_t i = 0; i < partials.size(); i++) {
        std::string compat_why;
        if (!mergeCompatible(ref, partials[i], &compat_why))
            return reject(
                &stats_.incompatible,
                format("incompatible aggregate from relay '%s' "
                       "(host '%s'): %s — shards must be collected "
                       "with identical sampling periods and runtime "
                       "class", manifest.host.c_str(),
                       manifest.covered[i].host.c_str(),
                       compat_why.c_str()));
        std::string conflict;
        if (!reconcileMmaps(mmaps, partials[i].mmaps, &conflict))
            return reject(&stats_.incompatible,
                          format("incompatible aggregate from relay "
                                 "'%s': %s",
                                 manifest.host.c_str(), conflict.c_str()));
    }

    bool folds_anything = false;
    for (const HostCoverage &hc : manifest.covered) {
        auto it = hosts_.find(hc.host);
        if (it == hosts_.end() || hc.count > it->second.next_seq) {
            folds_anything = true;
            break;
        }
    }
    // The payload is accounted for either way: a later re-delivery of
    // this exact flush must confirm back as a duplicate, not fail.
    seen_checksums_.insert(manifest.checksum);
    if (!folds_anything) {
        stats_.superseded++;
        static telemetry::Counter &m_superseded =
            telemetry::counter("hbbp_agg_superseded_total");
        m_superseded.add();
        events::emit(events::Level::Info, "shard_supersede",
                     {{"relay", manifest.host},
                      {"level", format("%u", manifest.level)}});
        if (why)
            *why = format(
                "aggregate from relay '%s' is entirely superseded: "
                "every covered host's fold already reaches at least "
                "as far", manifest.host.c_str());
        return false;
    }

    uint64_t fold_start = nowNs();
    if (!compat_ref_) {
        compat_ref_ = compatReference(partials[0]);
        workload_ = manifest.workload;
    }
    mmaps_ = std::move(mmaps);
    for (size_t i = 0; i < partials.size(); i++) {
        const HostCoverage &hc = manifest.covered[i];
        HostState &hs = hosts_[hc.host];
        // Supersede, never merge: the arriving fold *contains* every
        // leaf shard [0, count) — each host reports through exactly
        // one relay path, so our shorter prefix is a strict subset of
        // the same bytes, and replacing it wholesale is what keeps the
        // root byte-identical to flat ingestion.
        if (hc.count <= hs.next_seq)
            continue;
        hs.partial = std::move(partials[i]);
        hs.next_seq = hc.count;
        auto it = hs.pending.begin();
        while (it != hs.pending.end() && it->first < hs.next_seq)
            it = hs.pending.erase(it); // Retired: the fold covers them.
        while (it != hs.pending.end() && it->first == hs.next_seq) {
            accumulateInto(hs.partial, it->second);
            hs.next_seq++;
            it = hs.pending.erase(it);
        }
    }

    foldNsCounter().add(nowNs() - fold_start);
    static telemetry::Counter &m_agg_folded =
        telemetry::counter("hbbp_agg_aggregates_folded_total");
    m_agg_folded.add();
    telemetry::beatEnable(telemetry::Stage::Fold);
    telemetry::beat(telemetry::Stage::Fold);

    stats_.accepted++;
    stats_.aggregates++;
    max_level_ = std::max(max_level_, manifest.level);
    epoch_++;
    return true;
}

size_t
IncrementalAggregator::coveredShards() const
{
    size_t n = 0;
    for (const auto &[host, hs] : hosts_)
        n += hs.next_seq + hs.pending.size();
    return n;
}

const ProfileData *
IncrementalAggregator::hostPartial(const std::string &host) const
{
    auto it = hosts_.find(host);
    if (it == hosts_.end() || !it->second.partial)
        return nullptr;
    return &*it->second.partial;
}

std::vector<IncrementalAggregator::HostProgress>
IncrementalAggregator::hostProgress() const
{
    std::vector<HostProgress> rows;
    rows.reserve(hosts_.size());
    for (const auto &[host, hs] : hosts_)
        rows.push_back({host, hs.next_seq, hs.pending.size()});
    return rows;
}

PartialExport
IncrementalAggregator::exportPartials() const
{
    PartialExport ex;
    ex.workload = workload_;
    std::optional<ProfileData> fold;
    for (const auto &[host, hs] : hosts_) {
        if (hs.partial) {
            HostPartial hp;
            hp.host = host;
            hp.covered = hs.next_seq;
            hp.bytes = hs.partial->serialize();
            ex.partials.push_back(std::move(hp));
            accumulateInto(fold, *hs.partial);
        }
        for (const auto &[seq, pd] : hs.pending) {
            OrphanShard orphan;
            orphan.host = host;
            orphan.seq = seq;
            orphan.bytes = pd.serialize(&orphan.checksum);
            ex.orphans.push_back(std::move(orphan));
        }
    }
    if (fold)
        ex.checksum = fold->payloadChecksum();
    return ex;
}

std::optional<ShardManifest>
IncrementalAggregator::importFile(const std::string &manifest_path,
                                  std::string *why)
{
    std::string local_why;
    std::optional<ImportedShard> shard =
        importShard(manifest_path, &local_why);
    if (!shard) {
        stats_.malformed++;
        if (why)
            *why = std::move(local_why);
        return std::nullopt;
    }
    if (!addShard(shard->manifest, std::move(shard->profile),
                  why ? why : &local_why))
        return std::nullopt;
    return shard->manifest;
}

const ProfileData &
IncrementalAggregator::aggregate()
{
    if (hosts_.empty())
        fatal("no shards have been aggregated");
    if (cached_aggregate_ && aggregate_epoch_ == epoch_)
        return *cached_aggregate_;

    // Canonical fold: hosts in sorted id order (the map's order), each
    // host's folded partial first, then any out-of-order leftovers in
    // sequence order. With gap-free sequences the leftovers are empty
    // and every shard was folded exactly once, on arrival.
    uint64_t fold_start = nowNs();
    std::optional<ProfileData> agg;
    for (const auto &[host, hs] : hosts_) {
        if (hs.partial)
            accumulateInto(agg, *hs.partial);
        if (!hs.pending.empty())
            warn("host '%s' has gaps in its shard sequence (next "
                 "expected %u); folding %zu pending shard(s) in "
                 "sequence order",
                 host.c_str(), hs.next_seq, hs.pending.size());
        for (const auto &[seq, pd] : hs.pending)
            accumulateInto(agg, pd);
    }
    cached_aggregate_ = std::move(agg);
    aggregate_epoch_ = epoch_;
    stats_.rebuilds++;
    foldNsCounter().add(nowNs() - fold_start);
    static telemetry::Counter &m_recomputes =
        telemetry::counter("hbbp_agg_epoch_recomputes_total");
    m_recomputes.add();
    static telemetry::Gauge &m_saturated =
        telemetry::gauge("hbbp_agg_saturated_lanes");
    m_saturated.set(static_cast<int64_t>(saturatedFoldLanes()));
    return *cached_aggregate_;
}

void
IncrementalAggregator::saveState(const std::string &path) const
{
    ByteWriter w;
    w.str(workload_);
    w.u8(compat_ref_ ? 1 : 0);
    if (compat_ref_) {
        w.u64(compat_ref_->sim_periods.ebs);
        w.u64(compat_ref_->sim_periods.lbr);
        w.u64(compat_ref_->paper_periods.ebs);
        w.u64(compat_ref_->paper_periods.lbr);
        w.u8(static_cast<uint8_t>(compat_ref_->runtime_class));
    }
    w.u32(static_cast<uint32_t>(mmaps_.size()));
    for (const MmapRecord &m : mmaps_) {
        w.str(m.name);
        w.u64(m.base);
        w.u64(m.size);
        w.u8(m.kernel ? 1 : 0);
    }
    w.u64(seen_checksums_.size());
    for (uint64_t checksum : seen_checksums_)
        w.u64(checksum);
    w.u64(stats_.accepted);
    w.u64(stats_.duplicates);
    w.u64(stats_.incompatible);
    w.u64(stats_.malformed);
    w.u64(stats_.aggregates);
    w.u64(stats_.superseded);
    w.u32(max_level_);
    w.u32(static_cast<uint32_t>(hosts_.size()));
    for (const auto &[host, hs] : hosts_) {
        w.str(host);
        w.u32(hs.next_seq);
        w.u8(hs.partial ? 1 : 0);
        if (hs.partial)
            putProfile(w, *hs.partial);
        w.u32(static_cast<uint32_t>(hs.pending.size()));
        for (const auto &[seq, pd] : hs.pending) {
            w.u32(seq);
            putProfile(w, pd);
        }
    }

    ByteWriter out;
    out.u64(kStateMagic);
    out.u32(kStateVersion);
    out.u64(w.bytes().size());
    out.u64(fnv1a(w.bytes()));
    std::string bytes = out.bytes();
    bytes += w.bytes();
    writeFileAtomically(path, bytes);
}

bool
IncrementalAggregator::restoreState(const std::string &path,
                                    std::string *why)
{
    std::string local;
    std::string *out = why ? why : &local;
    std::string bytes = readFileBytes(path, out);
    if (!out->empty())
        return false;
    auto fail = [&](std::string reason) {
        *out = std::move(reason);
        return false;
    };
    if (bytes.size() < 28)
        return fail(format("'%s' is truncated (corrupt aggregator "
                           "state?)", path.c_str()));
    uint64_t magic, payload_len, stored;
    uint32_t version;
    std::memcpy(&magic, bytes.data(), sizeof(magic));
    std::memcpy(&version, bytes.data() + 8, sizeof(version));
    std::memcpy(&payload_len, bytes.data() + 12, sizeof(payload_len));
    std::memcpy(&stored, bytes.data() + 20, sizeof(stored));
    if (magic != kStateMagic)
        return fail(format("'%s' is not an aggregator state file",
                           path.c_str()));
    if (version != kStateVersion)
        return fail(format(
            "'%s' has unsupported aggregator state version %u (this "
            "build reads version %u) — start fresh and re-import",
            path.c_str(), version, kStateVersion));
    if (bytes.size() - 28 != payload_len)
        return fail(format(
            "'%s' is truncated: header promises a %llu-byte payload "
            "but %llu bytes follow (corrupt aggregator state?)",
            path.c_str(), static_cast<unsigned long long>(payload_len),
            static_cast<unsigned long long>(bytes.size() - 28)));
    std::string body = bytes.substr(28);
    if (fnv1a(body) != stored)
        return fail(format(
            "payload checksum mismatch in '%s' — the aggregator state "
            "is corrupt; start fresh and re-import", path.c_str()));
    if (!hosts_.empty() || stats_.accepted != 0)
        fatal("restoreState() requires a fresh aggregator");

    try {
        parseStateBody(body, path);
    } catch (const ByteParseError &e) {
        // Structurally impossible content behind a matching checksum:
        // still a cold start, never a crash — the shards can always
        // be re-imported. Shed anything half-restored first.
        *this = IncrementalAggregator();
        return fail(e.what());
    }
    restored_ = stats_.accepted;
    return true;
}

void
IncrementalAggregator::parseStateBody(const std::string &body,
                                      const std::string &path)
{
    ByteReader r(body, path, "aggregator state");
    workload_ = r.str();
    if (r.u8()) {
        ProfileData ref;
        ref.sim_periods.ebs = r.u64();
        ref.sim_periods.lbr = r.u64();
        ref.paper_periods.ebs = r.u64();
        ref.paper_periods.lbr = r.u64();
        uint8_t raw_class = r.u8();
        // Range-check before the cast: a garbage class would not
        // crash anything, but it would silently reject every shard as
        // incompatible — worse than the cold start this throw buys.
        if (raw_class > static_cast<uint8_t>(RuntimeClass::MinutesMany))
            throw ByteParseError(format(
                "invalid runtime class %u in '%s' (corrupt aggregator "
                "state?)", raw_class, path.c_str()));
        ref.runtime_class = static_cast<RuntimeClass>(raw_class);
        compat_ref_ = std::move(ref);
    }
    uint32_t n_mmaps =
        static_cast<uint32_t>(r.count(r.u32(), 21, "module map"));
    mmaps_.reserve(n_mmaps);
    for (uint32_t i = 0; i < n_mmaps; i++) {
        MmapRecord m;
        m.name = r.str();
        m.base = r.u64();
        m.size = r.u64();
        m.kernel = r.u8() != 0;
        mmaps_.push_back(std::move(m));
    }
    uint64_t n_seen = r.count(r.u64(), 8, "seen checksum");
    for (uint64_t i = 0; i < n_seen; i++)
        seen_checksums_.insert(r.u64());
    stats_.accepted = r.u64();
    stats_.duplicates = r.u64();
    stats_.incompatible = r.u64();
    stats_.malformed = r.u64();
    stats_.aggregates = r.u64();
    stats_.superseded = r.u64();
    max_level_ = r.u32();
    uint32_t n_hosts = static_cast<uint32_t>(r.count(r.u32(), 9, "host"));
    for (uint32_t i = 0; i < n_hosts; i++) {
        std::string host = r.str();
        HostState &hs = hosts_[host];
        hs.next_seq = r.u32();
        if (r.u8())
            hs.partial = takeProfile(r, path);
        uint32_t n_pending =
            static_cast<uint32_t>(r.count(r.u32(), 12, "pending shard"));
        for (uint32_t j = 0; j < n_pending; j++) {
            uint32_t seq = r.u32();
            hs.pending.emplace(seq, takeProfile(r, path));
        }
    }
    r.expectEof();
}

size_t
watchAndAggregate(IncrementalAggregator &agg, const std::string &dir,
                  const WatchOptions &options)
{
    using clock = std::chrono::steady_clock;
    std::chrono::milliseconds idle_limit(options.timeout_ms);
    // The timeout is measured from the last successful import, not
    // from watch start: a slow-but-steady shard trickle must never be
    // aborted mid-stream just because the whole stream outlasted the
    // budget for one silent gap.
    clock::time_point last_import = clock::now();
    std::set<std::string> judged;
    size_t accepted = 0;

    for (;;) {
        std::vector<std::string> fresh;
        std::error_code ec;
        for (const fs::directory_entry &e :
             fs::directory_iterator(dir, ec)) {
            if (e.path().extension() != ".manifest")
                continue;
            std::string path = e.path().string();
            if (!judged.count(path))
                fresh.push_back(path);
        }
        if (ec)
            fatal("cannot scan watch directory '%s': %s", dir.c_str(),
                  ec.message().c_str());
        std::sort(fresh.begin(), fresh.end());
        for (const std::string &path : fresh) {
            judged.insert(path);
            std::string why;
            std::optional<ShardManifest> m = agg.importFile(path, &why);
            if (m) {
                accepted++;
                last_import = clock::now();
                if (options.on_accept)
                    options.on_accept(*m);
            } else {
                warn("skipping shard '%s': %s", path.c_str(),
                     why.c_str());
            }
        }
        // Covered leaf shards, not arrivals: with relays in the
        // transport path one arrival can account for many collectors,
        // and "the fleet is complete" means coverage either way.
        if (options.expect == 0 ||
            agg.coveredShards() >= options.expect)
            break;
        if (options.timeout_ms >= 0 &&
            clock::now() - last_import >= idle_limit)
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.poll_ms));
    }
    return accepted;
}

} // namespace hbbp
