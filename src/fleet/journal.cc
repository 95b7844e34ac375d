#include "fleet/journal.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>

#include "fleet/merge.hh"
#include "support/bytes.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/telemetry.hh"

namespace fs = std::filesystem;

namespace hbbp {

namespace {

// One appended record: magic, body length, body checksum, then a body
// of manifest text + transportable chunks. The checksum makes a torn
// append — the only non-atomic write in the fleet layer — detectable,
// so replay stops at the damage instead of trusting it.
constexpr uint64_t kJournalMagic = 0x48424250'4a524e31ULL; // "HBBPJRN1"
constexpr size_t kRecordHeaderBytes = 24;

std::string
frameRecord(const std::string &body)
{
    ByteWriter rec;
    rec.u64(kJournalMagic);
    rec.u64(body.size());
    rec.u64(fnv1a(body));
    std::string bytes = rec.bytes();
    bytes += body;
    return bytes;
}

/**
 * Walk the framed records in @p bytes, calling @p fn on each body that
 * passes its checksum; @p fn returning false stops the scan (its
 * record is not counted as consumed). Returns the offset one past the
 * last cleanly consumed record. When that is short of bytes.size(),
 * *@p why describes the damage — a torn append, a checksum failure, a
 * foreign magic.
 */
size_t
scanRecords(std::string_view bytes,
            const std::function<bool(std::string_view)> &fn,
            std::string *why)
{
    why->clear();
    size_t off = 0;
    while (off + kRecordHeaderBytes <= bytes.size()) {
        uint64_t got_magic, body_len, stored;
        std::memcpy(&got_magic, bytes.data() + off, 8);
        std::memcpy(&body_len, bytes.data() + off + 8, 8);
        std::memcpy(&stored, bytes.data() + off + 16, 8);
        if (got_magic != kJournalMagic) {
            *why = format("bad record magic at offset %zu", off);
            return off;
        }
        if (bytes.size() - off - kRecordHeaderBytes < body_len) {
            // A torn append: the writer died mid-record.
            *why = format("torn record at offset %zu", off);
            return off;
        }
        std::string_view body =
            bytes.substr(off + kRecordHeaderBytes,
                         static_cast<size_t>(body_len));
        if (fnv1a(body.data(), body.size()) != stored) {
            *why = format("record checksum failure at offset %zu", off);
            return off;
        }
        if (!fn(body))
            return off;
        off += kRecordHeaderBytes + static_cast<size_t>(body_len);
    }
    return off;
}

std::string
renderRecord(const ShardManifest &manifest,
             const std::vector<std::string> &chunks)
{
    ByteWriter body;
    body.str(manifest.render());
    body.u32(static_cast<uint32_t>(chunks.size()));
    for (const std::string &chunk : chunks) {
        body.u64(chunk.size());
        body.raw(chunk.data(), chunk.size());
    }
    return frameRecord(body.bytes());
}

/**
 * Replay one record body into @p agg. Returns false (with *@p why)
 * only on structural damage; a fold rejection (duplicate from the
 * checkpoint-overlap window, superseded coverage) is expected replay
 * behavior and counts as success.
 */
bool
replayBody(IncrementalAggregator &agg, std::string_view body,
           const std::string &path, std::string *why)
{
    try {
        ByteReader r(body, path, "state journal");
        std::string manifest_text = r.str();
        std::optional<ShardManifest> m =
            ShardManifest::parse(manifest_text, why);
        if (!m)
            return false;
        uint64_t n_chunks = r.count(r.u32(), 9, "journal chunk");
        std::vector<ProfileData> chunks;
        chunks.reserve(static_cast<size_t>(n_chunks));
        for (uint64_t i = 0; i < n_chunks; i++) {
            uint64_t len = r.count(r.u64(), 1, "journal chunk byte");
            std::string bytes(static_cast<size_t>(len), '\0');
            r.raw(bytes.data(), bytes.size());
            std::optional<ProfileData> pd =
                ProfileData::parse(bytes, path, why);
            if (!pd)
                return false;
            chunks.push_back(std::move(*pd));
        }
        r.expectEof();
        if (chunks.empty()) {
            *why = "journal record carries no chunks";
            return false;
        }
        std::string fold_why;
        if (m->level > 0) {
            agg.addAggregateShard(*m, std::move(chunks), &fold_why);
        } else {
            ProfileData shard = std::move(chunks[0]);
            for (size_t i = 1; i < chunks.size(); i++)
                mergeInto(shard, chunks[i]);
            agg.addShard(*m, std::move(shard), &fold_why);
        }
        return true;
    } catch (const ByteParseError &e) {
        *why = e.what();
        return false;
    }
}

} // namespace

StateJournal::StateJournal(std::string checkpoint_path,
                           size_t compact_every)
    : checkpoint_(std::move(checkpoint_path)),
      journal_(checkpoint_ + ".journal"),
      compact_every_(compact_every)
{
    if (compact_every_ == 0)
        fatal("journal compaction threshold must be >= 1");
}

bool
StateJournal::restore(IncrementalAggregator &agg, std::string *why)
{
    std::string local;
    std::string *out = why ? why : &local;
    bool have_checkpoint = agg.restoreState(checkpoint_, out);
    // An unusable checkpoint must stay loud even when the journal
    // replays: everything compacted *into* the checkpoint — acked
    // shards whose senders will never retry — is not coming back, and
    // a quiet "restored N shards" from the journal tail alone would
    // read as a healthy resume.
    if (!have_checkpoint && fs::exists(checkpoint_))
        warn("state checkpoint '%s' is unusable (%s); anything "
             "compacted into it is not restored and must be "
             "re-imported", checkpoint_.c_str(), out->c_str());

    std::string read_why;
    std::string bytes = readFileBytes(journal_, &read_why);
    std::string scan_why;
    size_t off = scanRecords(
        bytes,
        [&](std::string_view body) {
            std::string replay_why;
            if (!replayBody(agg, body, journal_, &replay_why)) {
                scan_why = format("record does not replay (%s)",
                                  replay_why.c_str());
                return false;
            }
            replayed_++;
            return true;
        },
        &scan_why);
    if (off < bytes.size())
        warn("state journal '%s' is damaged at offset %zu (%s); "
             "dropping the tail", journal_.c_str(), off,
             scan_why.c_str());
    // A dropped tail must also leave the *file*: appends go to the
    // end, so damage left in place would strand every post-restart
    // record — acknowledged shards — behind bytes the next restore
    // refuses to cross. Rewrite the journal as the replayable prefix.
    if (off < bytes.size()) {
        static telemetry::Counter &m_torn =
            telemetry::counter("hbbp_journal_torn_tails_total");
        m_torn.add();
        writeFileAtomically(journal_, bytes.substr(0, off));
    }
    // Replayed records count against the compaction budget like the
    // appends they were, so a crash-looping aggregator still compacts.
    pending_records_ = replayed_;
    agg.markRestored();
    if (agg.restoredShards() == 0)
        return false;
    if (why && (have_checkpoint || replayed_ > 0))
        why->clear();
    return true;
}

void
StateJournal::record(IncrementalAggregator &agg,
                     const ShardManifest &manifest,
                     const std::vector<std::string> &chunks)
{
    std::string bytes = renderRecord(manifest, chunks);
    // Plain append, deliberately not the temp-file-and-rename
    // discipline: appends are the whole point (O(record) I/O), and
    // the per-record checksum turns the one failure a torn append can
    // cause into a dropped, never-acknowledged tail record.
    std::FILE *f = std::fopen(journal_.c_str(), "ab");
    if (!f)
        fatal("cannot open state journal '%s' for appending",
              journal_.c_str());
    size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (written != bytes.size() || !flushed)
        fatal("cannot append to state journal '%s' (disk full?)",
              journal_.c_str());
    static telemetry::Counter &m_appends =
        telemetry::counter("hbbp_journal_appends_total");
    m_appends.add();
    static telemetry::Counter &m_append_bytes =
        telemetry::counter("hbbp_journal_append_bytes_total");
    m_append_bytes.add(bytes.size());
    telemetry::beatEnable(telemetry::Stage::Journal);
    telemetry::beat(telemetry::Stage::Journal);
    pending_records_++;
    if (pending_records_ >= compact_every_)
        compact(agg);
}

void
StateJournal::compact(IncrementalAggregator &agg)
{
    // Checkpoint first (atomic rename), truncate second: a crash
    // between the two leaves a checkpoint that already contains every
    // journaled arrival, and replaying the stale journal on restore
    // only produces checksum-deduped rejections.
    agg.saveState(checkpoint_);
    writeFileAtomically(journal_, "");
    pending_records_ = 0;
    static telemetry::Counter &m_compactions =
        telemetry::counter("hbbp_journal_compactions_total");
    m_compactions.add();
}

} // namespace hbbp
