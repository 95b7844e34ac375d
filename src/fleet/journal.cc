#include "fleet/journal.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string_view>

#include "support/bytes.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/telemetry.hh"

namespace fs = std::filesystem;

namespace hbbp {

namespace {

// One frame: magic, position in the log, body length, body checksum,
// then the body. An arrival's body is its manifest text and its
// length-prefixed chunks; the dropped-checksums body is a count and
// the checksums. The checksum makes a torn append — the only
// non-atomic write in the fleet layer — and a flipped byte detectable,
// and the position makes a record out of place (duplicated, swapped)
// detectable, so replay stops at the damage instead of trusting it.
constexpr uint64_t kArrivalMagic = 0x48424250'4c4f4741ULL; // "HBBPLOGA"
constexpr uint64_t kDroppedMagic = 0x48424250'4c4f4744ULL; // "HBBPLOGD"
constexpr size_t kFrameHeaderBytes = 32;
// A serialized profile's header: magic, version, payload length, and
// the checksum of the payload behind it.
constexpr size_t kProfileHeaderBytes = 28;
// What an older build left at `<state>`: a whole-aggregate checkpoint.
constexpr uint64_t kOldCheckpointMagic = 0x48424250'41474753ULL;

/** An arrival body's parts, the chunks as views into the body. */
struct ArrivalParts
{
    std::string manifest;
    std::vector<std::string_view> chunks;
};

/** Split an arrival body; throws ByteParseError on a broken layout. */
ArrivalParts
splitArrival(std::string_view body, const std::string &context)
{
    ByteReader r(body, context, "state log");
    ArrivalParts parts;
    parts.manifest = r.str();
    uint64_t n = r.count(r.u32(), 9, "log chunk");
    for (uint64_t i = 0; i < n; i++)
        parts.chunks.push_back(
            r.view(r.count(r.u64(), 1, "log chunk byte")));
    r.expectEof();
    return parts;
}

/**
 * An arrival frame's checksum: over its manifest, its chunk count and
 * each chunk's length and profile header, not the chunk payloads. The
 * header holds the payload's own checksum, which parsing the chunk
 * verifies, so the frame checksum still vouches for every byte while
 * hashing a few hundred of them.
 */
uint64_t
arrivalChecksum(const ArrivalParts &parts)
{
    ByteWriter covered;
    covered.str(parts.manifest);
    covered.u32(static_cast<uint32_t>(parts.chunks.size()));
    for (std::string_view chunk : parts.chunks) {
        covered.u64(chunk.size());
        covered.raw(chunk.data(),
                    std::min(chunk.size(), kProfileHeaderBytes));
    }
    return fnv1a(covered.bytes());
}

/** Start a frame in @p w; finishFrame() patches in length and checksum. */
void
startFrame(ByteWriter &w, uint64_t magic, uint64_t index)
{
    w.u64(magic);
    w.u64(index);
    w.u64(0);
    w.u64(0);
}

std::string
finishFrame(ByteWriter &w, uint64_t checksum)
{
    std::string bytes = w.take();
    uint64_t body_len = bytes.size() - kFrameHeaderBytes;
    std::memcpy(bytes.data() + 16, &body_len, sizeof(body_len));
    std::memcpy(bytes.data() + 24, &checksum, sizeof(checksum));
    return bytes;
}

std::string
arrivalFrame(uint64_t index, const ShardManifest &manifest,
             const std::vector<std::string> &chunks)
{
    ArrivalParts parts{manifest.render(), {chunks.begin(), chunks.end()}};
    size_t total = kFrameHeaderBytes + 8 + parts.manifest.size();
    for (std::string_view chunk : parts.chunks)
        total += 8 + chunk.size();
    ByteWriter w;
    w.reserve(total);
    startFrame(w, kArrivalMagic, index);
    w.str(parts.manifest);
    w.u32(static_cast<uint32_t>(parts.chunks.size()));
    for (std::string_view chunk : parts.chunks) {
        w.u64(chunk.size());
        w.raw(chunk.data(), chunk.size());
    }
    return finishFrame(w, arrivalChecksum(parts));
}

std::string
droppedFrame(const std::vector<uint64_t> &checksums)
{
    ByteWriter w;
    startFrame(w, kDroppedMagic, 0);
    w.u64(checksums.size());
    for (uint64_t checksum : checksums)
        w.u64(checksum);
    std::string_view body(w.bytes());
    return finishFrame(w, fnv1a(body.substr(kFrameHeaderBytes)));
}

/**
 * Walk the frames in @p bytes, calling @p fn(magic, offset, body) on
 * each one that sits at its position and passes its checksum; @p fn
 * returning false stops the scan (its frame is not counted as
 * consumed). Returns the offset one past the last consumed frame. When
 * that is short of bytes.size(), *@p why describes the damage — a torn
 * append, a checksum failure, a foreign magic, a frame out of place —
 * unless @p fn already did.
 */
size_t
scanRecords(std::string_view bytes,
            const std::function<bool(uint64_t, size_t, std::string_view)>
                &fn,
            std::string *why)
{
    why->clear();
    size_t off = 0;
    for (uint64_t index = 0; off < bytes.size(); index++) {
        if (bytes.size() - off < kFrameHeaderBytes) {
            *why = format("torn record header at offset %zu", off);
            return off;
        }
        uint64_t magic, got_index, body_len, stored;
        std::memcpy(&magic, bytes.data() + off, 8);
        std::memcpy(&got_index, bytes.data() + off + 8, 8);
        std::memcpy(&body_len, bytes.data() + off + 16, 8);
        std::memcpy(&stored, bytes.data() + off + 24, 8);
        if (magic != kArrivalMagic && magic != kDroppedMagic) {
            *why = format("bad record magic at offset %zu", off);
            return off;
        }
        if (got_index != index) {
            *why = format("record %llu found at position %llu (offset "
                          "%zu)", static_cast<unsigned long long>(got_index),
                          static_cast<unsigned long long>(index), off);
            return off;
        }
        if (bytes.size() - off - kFrameHeaderBytes < body_len) {
            // A torn append: the writer died mid-record.
            *why = format("torn record at offset %zu", off);
            return off;
        }
        std::string_view body = bytes.substr(
            off + kFrameHeaderBytes, static_cast<size_t>(body_len));
        bool intact = false;
        try {
            intact = stored == (magic == kDroppedMagic
                                    ? fnv1a(body)
                                    : arrivalChecksum(splitArrival(
                                          body, "state log record")));
        } catch (const ByteParseError &) {
        }
        if (!intact) {
            *why = format("record checksum failure at offset %zu", off);
            return off;
        }
        if (!fn(magic, off, body))
            return off;
        off += kFrameHeaderBytes + static_cast<size_t>(body_len);
    }
    return off;
}

/** The dropped-checksums record's list (throws on damage). */
std::vector<uint64_t>
parseDropped(std::string_view body, const std::string &path)
{
    ByteReader r(body, path, "state log");
    uint64_t n = r.count(r.u64(), 8, "dropped checksum");
    std::vector<uint64_t> checksums(static_cast<size_t>(n));
    for (uint64_t &checksum : checksums)
        checksum = r.u64();
    r.expectEof();
    return checksums;
}

/**
 * Replay one arrival body into @p agg. Returns its manifest, or
 * std::nullopt (with *@p why) on structural damage — nothing is folded
 * then. A fold rejection is not damage: it leaves @p agg exactly as it
 * was, and the record stays in the log.
 */
std::optional<ShardManifest>
replayBody(IncrementalAggregator &agg, std::string_view body,
           const std::string &path, std::string *why)
{
    try {
        ArrivalParts parts = splitArrival(body, path);
        std::optional<ShardManifest> m =
            ShardManifest::parse(parts.manifest, why);
        if (!m)
            return std::nullopt;
        if (parts.chunks.empty() ||
            (m->level == 0 && parts.chunks.size() != 1)) {
            *why = format("a level-%u record carries %zu chunks",
                          m->level, parts.chunks.size());
            return std::nullopt;
        }
        std::vector<ProfileData> chunks;
        chunks.reserve(parts.chunks.size());
        for (std::string_view bytes : parts.chunks) {
            std::optional<ProfileData> pd =
                ProfileData::parse(bytes, path, why);
            if (!pd)
                return std::nullopt;
            chunks.push_back(std::move(*pd));
        }
        std::string fold_why;
        if (m->level > 0)
            agg.addAggregateShard(*m, std::move(chunks), &fold_why);
        else
            agg.addShard(*m, std::move(chunks[0]), &fold_why);
        return m;
    } catch (const ByteParseError &e) {
        *why = e.what();
        return std::nullopt;
    }
}

} // namespace

StateJournal::StateJournal(std::string path, size_t compact_every)
    : path_(std::move(path)), compact_every_(compact_every)
{
    if (compact_every_ == 0)
        fatal("journal compaction threshold must be >= 1");
}

bool
StateJournal::restore(IncrementalAggregator &agg, std::string *why)
{
    std::string local;
    std::string *out = why ? why : &local;
    std::string bytes = readFileBytes(path_, out);
    std::error_code ec;
    std::string old_journal = path_ + ".journal";
    uint64_t magic = 0;
    if (bytes.size() >= sizeof(magic))
        std::memcpy(&magic, bytes.data(), sizeof(magic));
    if (magic == kOldCheckpointMagic || fs::exists(old_journal, ec)) {
        // Half of an older state (its journal without its checkpoint,
        // or the reverse) would restore silently short, and appending
        // behind a checkpoint would strand every new record: neither
        // is read, both go.
        *out = format("state '%s' was written by an older build",
                      path_.c_str());
        warn("%s; it is not restored: start cold and re-import its "
             "shards", out->c_str());
        fs::remove(old_journal, ec);
        writeFileAtomically(path_, "");
        return false;
    }
    if (!out->empty()) {
        if (fs::exists(path_, ec))
            warn("ignoring aggregator state: %s", out->c_str());
        return false;
    }

    std::string damage;
    size_t off = scanRecords(
        bytes,
        [&](uint64_t kind, size_t at, std::string_view body) {
            std::string replay_why;
            uint64_t size = kFrameHeaderBytes + body.size();
            if (kind == kDroppedMagic) {
                if (at != 0) {
                    damage = format("dropped-checksums record at "
                                    "offset %zu", at);
                    return false;
                }
                try {
                    dropped_ = parseDropped(body, path_);
                } catch (const ByteParseError &e) {
                    damage = e.what();
                    return false;
                }
                for (uint64_t checksum : dropped_)
                    agg.noteSeen(checksum);
                dropped_bytes_ = size;
                return true;
            }
            std::optional<ShardManifest> m =
                replayBody(agg, body, path_, &replay_why);
            if (!m) {
                damage = format("record at offset %zu does not replay "
                                "(%s)", at, replay_why.c_str());
                return false;
            }
            entries_.push_back({std::move(*m), at, size, false});
            replayed_++;
            return true;
        },
        &damage);
    if (off < bytes.size()) {
        // The damage must also leave the *file*: appends go to the
        // end, and bytes the next restore refuses to cross would
        // strand every record after them — acknowledged arrivals.
        warn("state log '%s' is damaged (%s); dropping everything from "
             "offset %zu on", path_.c_str(), damage.c_str(), off);
        static telemetry::Counter &m_torn =
            telemetry::counter("hbbp_journal_torn_tails_total");
        m_torn.add();
        bytes.resize(off);
        writeFileAtomically(path_, bytes);
    }
    end_ = off;
    live_bytes_ = off;
    pending_records_ = replayed_;
    markSuperseded(agg);
    if (superseded_bytes_ > 0)
        rewrite(bytes);
    agg.markRestored();
    if (agg.restoredShards() == 0) {
        *out = damage.empty() ? format("state log '%s' holds no arrival",
                                       path_.c_str())
                              : damage;
        return false;
    }
    out->clear();
    return true;
}

void
StateJournal::record(IncrementalAggregator &agg,
                     const ShardManifest &manifest,
                     const std::vector<std::string> &chunks)
{
    // What replay accepts: a leaf is its one serialized shard.
    if (chunks.empty() || (manifest.level == 0 && chunks.size() != 1))
        fatal("state log '%s': a level-%u arrival cannot be recorded as "
              "%zu chunks", path_.c_str(), manifest.level, chunks.size());
    uint64_t index = entries_.size() + (dropped_bytes_ > 0 ? 1 : 0);
    std::string bytes = arrivalFrame(index, manifest, chunks);
    // Plain append, deliberately not the temp-file-and-rename
    // discipline: appends are the whole point (O(record) I/O), and
    // the per-record checksum turns the one failure a torn append can
    // cause into a dropped, never-acknowledged tail record.
    std::FILE *f = std::fopen(path_.c_str(), "ab");
    if (!f)
        fatal("cannot open state log '%s' for appending", path_.c_str());
    size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (written != bytes.size() || !flushed)
        fatal("cannot append to state log '%s' (disk full?)",
              path_.c_str());
    entries_.push_back({manifest, end_, bytes.size(), false});
    end_ += bytes.size();
    live_bytes_ += bytes.size();
    static telemetry::Counter &m_appends =
        telemetry::counter("hbbp_journal_appends_total");
    m_appends.add();
    static telemetry::Counter &m_append_bytes =
        telemetry::counter("hbbp_journal_append_bytes_total");
    m_append_bytes.add(bytes.size());
    telemetry::beatEnable(telemetry::Stage::Journal);
    telemetry::beat(telemetry::Stage::Journal);
    pending_records_++;
    if (pending_records_ % compact_every_ != 0)
        return;
    markSuperseded(agg);
    if (superseded_bytes_ > 0 && superseded_bytes_ >= live_bytes_)
        compact(agg);
}

void
StateJournal::compact(IncrementalAggregator &agg)
{
    markSuperseded(agg);
    if (superseded_bytes_ == 0)
        return;
    std::string why;
    std::string log = readFileBytes(path_, &why);
    if (!why.empty()) {
        warn("cannot compact state log: %s", why.c_str());
        return;
    }
    rewrite(log);
}

void
StateJournal::markSuperseded(const IncrementalAggregator &agg)
{
    if (agg.stats().aggregates == aggregates_walked_)
        return;
    aggregates_walked_ = agg.stats().aggregates;
    for (Entry &e : entries_) {
        if (e.superseded || !agg.superseded(e.manifest))
            continue;
        e.superseded = true;
        live_bytes_ -= e.size;
        superseded_bytes_ += e.size;
    }
}

void
StateJournal::rewrite(const std::string &log)
{
    std::vector<uint64_t> dropped = dropped_;
    std::vector<Entry> kept;
    for (const Entry &e : entries_) {
        if (e.superseded) {
            dropped.push_back(e.manifest.checksum);
        } else if (e.offset + e.size > log.size()) {
            warn("state log '%s' is shorter than this process wrote it; "
                 "not compacting it", path_.c_str());
            return;
        } else {
            kept.push_back(e);
        }
    }
    std::string out = droppedFrame(dropped);
    dropped_bytes_ = out.size();
    for (size_t i = 0; i < kept.size(); i++) {
        // Verbatim but for the frame's position in the new log.
        uint64_t index = i + 1;
        size_t at = out.size();
        out.append(log, static_cast<size_t>(kept[i].offset),
                   static_cast<size_t>(kept[i].size));
        std::memcpy(out.data() + at + 8, &index, sizeof(index));
        kept[i].offset = at;
    }
    writeFileAtomically(path_, out);
    entries_ = std::move(kept);
    dropped_ = std::move(dropped);
    end_ = out.size();
    live_bytes_ = out.size();
    superseded_bytes_ = 0;
    pending_records_ = 0;
    static telemetry::Counter &m_compactions =
        telemetry::counter("hbbp_journal_compactions_total");
    m_compactions.add();
}

} // namespace hbbp
