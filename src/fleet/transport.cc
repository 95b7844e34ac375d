#include "fleet/transport.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <utility>

#include "fleet/merge.hh"
#include "fleet/query.hh"
#include "fleet/socket_client.hh"
#include "support/bytes.hh"
#include "support/events.hh"
#include "support/logging.hh"
#include "support/telemetry.hh"

namespace hbbp {

namespace {

// One frame on the wire: a fixed header, the manifest text, then the
// chunk payload (a self-validating serialized profile). Everything is
// length-prefixed so the receiver never scans for delimiters in
// binary data.
//
//   u64 magic          kFrameMagic
//   u32 manifest_len   bytes of manifest text following the header
//   u32 chunk_index    0-based position of this chunk in the shard
//   u32 chunk_count    total chunks in the shard (>= 1)
//   u64 payload_len    bytes of chunk payload after the manifest
constexpr uint64_t kFrameMagic = 0x48425053'46524d31ULL; // "HBPSFRM1"
constexpr size_t kFrameHeaderBytes = 28;
constexpr uint32_t kMaxManifestBytes = 1u << 20;
constexpr uint64_t kMaxPayloadBytes = 1ull << 30;

/** The receiver's one-byte answer to each frame. */
enum class AckCode : uint8_t {
    ChunkAccepted = 0, ///< Partial chunk verified and staged.
    ShardAccepted = 1, ///< Final chunk folded; the shard is aggregated.
    Duplicate = 2,     ///< Payload already aggregated (retried send).
    Rejected = 3,      ///< Permanent: retrying cannot succeed.
    Incomplete = 4,    ///< Final chunk, but staged chunks are missing
                       ///< (receiver restarted): resend from chunk 0.
};

/** Ack wire format: u8 code, u32 reason_len, reason bytes. */
constexpr size_t kAckHeaderBytes = 5;

// The byte-moving primitives (deadline connect, progress-bounded
// writes, exact reads, IO timeouts) live in fleet/socket_client.hh —
// one copy shared with the metrics fetcher and the query client.

std::string
renderFrame(const ShardManifest &manifest, uint32_t chunk_index,
            uint32_t chunk_count, const std::string &payload)
{
    // The manifest rides in every frame with the status the *frame*
    // represents: partial while the stream is open, complete on the
    // final chunk — the same state machine a drop directory would see
    // as manifest rewrites.
    ShardManifest framed = manifest;
    framed.status = chunk_index + 1 < chunk_count
                        ? ShardStatus::Partial
                        : ShardStatus::Complete;
    // No file travels with a socket frame, but the manifest format
    // requires the field: synthesize the name a drop-dir export would
    // have used (a receiver-side deposit may reuse it).
    if (framed.profile_file.empty())
        framed.profile_file = format(
            "%s-%u-%016llx.hbbp", framed.host.c_str(), framed.seq,
            static_cast<unsigned long long>(framed.checksum));
    std::string text = framed.render();
    ByteWriter w;
    w.u64(kFrameMagic);
    w.u32(static_cast<uint32_t>(text.size()));
    w.u32(chunk_index);
    w.u32(chunk_count);
    w.u64(payload.size());
    std::string frame = w.bytes();
    frame += text;
    frame += payload;
    return frame;
}

/**
 * Merge parsed chunks in index order into one shard profile, checking
 * compatibility first: a buggy sender streaming incompatible chunks
 * must earn a rejection ack, not fatal() the listener via mergeInto().
 */
std::optional<ProfileData>
tryMergeChunks(std::vector<ProfileData> chunks, std::string *why)
{
    // Module maps accumulate across the stream, so every chunk is
    // reconciled against every record seen so far — not just chunk 0
    // — with mergeInto()'s own walk, or a conflict between two later
    // chunks would slip through to its fatal().
    std::vector<MmapRecord> seen;
    for (const ProfileData &chunk : chunks)
        if (!mergeCompatible(chunks[0], chunk, why) ||
            !reconcileMmaps(seen, chunk.mmaps, why))
            return std::nullopt;
    ProfileData merged = std::move(chunks[0]);
    for (size_t i = 1; i < chunks.size(); i++)
        mergeInto(merged, chunks[i]);
    return merged;
}

/**
 * tryMergeChunks() without consuming @p chunks — for the aggregate
 * path, where the per-host partials are still needed after their fold
 * was checksum-verified.
 */
std::optional<ProfileData>
mergeChunksPreserving(const std::vector<ProfileData> &chunks,
                      std::string *why)
{
    std::vector<ProfileData> copies = chunks;
    return tryMergeChunks(std::move(copies), why);
}

} // namespace

// ---------------------------------------------------------------------------
// DropDirTransport.
// ---------------------------------------------------------------------------

SendResult
DropDirTransport::sendShard(const ShardManifest &manifest,
                            const std::vector<std::string> &chunks)
{
    SendResult res;
    res.attempts = 1;
    if (chunks.empty()) {
        res.error = "no chunks to send";
        return res;
    }
    if (manifest.level > 0 || !manifest.covered.empty()) {
        res.error = format(
            "aggregate shards (level %u) travel over the socket "
            "transport: a drop-directory file cannot carry the "
            "per-host chunk split their fold needs", manifest.level);
        return res;
    }

    // A directory has no streaming: reassemble locally and publish one
    // complete shard, exactly like exportShard() always did.
    std::string bytes;
    uint64_t checksum = 0;
    if (chunks.size() == 1) {
        std::string why;
        std::optional<ProfileData> pd =
            ProfileData::parse(chunks[0], "push chunk 0", &why,
                               &checksum);
        if (!pd) {
            res.error = why;
            return res;
        }
        bytes = chunks[0];
    } else {
        std::vector<ProfileData> parsed;
        for (size_t i = 0; i < chunks.size(); i++) {
            std::string why;
            std::optional<ProfileData> pd = ProfileData::parse(
                chunks[i], format("push chunk %zu", i), &why);
            if (!pd) {
                res.error = why;
                return res;
            }
            parsed.push_back(std::move(*pd));
        }
        std::string why;
        std::optional<ProfileData> merged =
            tryMergeChunks(std::move(parsed), &why);
        if (!merged) {
            res.error = why;
            return res;
        }
        bytes = merged->serialize(&checksum);
    }
    if (checksum != manifest.checksum) {
        res.error = format(
            "chunk payload hashes to %016llx but the manifest promises "
            "%016llx", static_cast<unsigned long long>(checksum),
            static_cast<unsigned long long>(manifest.checksum));
        return res;
    }

    std::string base = format(
        "%s-%u-%016llx", manifest.host.c_str(), manifest.seq,
        static_cast<unsigned long long>(manifest.checksum));
    std::error_code ec;
    res.duplicate =
        std::filesystem::exists(dir_ + "/" + base + ".manifest", ec);
    writeShardFiles(manifest, bytes, dir_);
    res.ok = true;
    return res;
}

// ---------------------------------------------------------------------------
// SocketTransport (the sender).
// ---------------------------------------------------------------------------

namespace {

/** Read one ack; false on connection trouble. */
bool
readAck(int fd, AckCode *code, std::string *reason)
{
    uint8_t raw_code;
    uint32_t reason_len;
    char header[kAckHeaderBytes];
    if (!netReadFull(fd, header, sizeof(header)))
        return false;
    std::memcpy(&raw_code, header, 1);
    std::memcpy(&reason_len, header + 1, 4);
    if (raw_code > static_cast<uint8_t>(AckCode::Incomplete) ||
        reason_len > kMaxManifestBytes)
        return false;
    reason->assign(reason_len, '\0');
    if (reason_len > 0 && !netReadFull(fd, reason->data(), reason_len))
        return false;
    *code = static_cast<AckCode>(raw_code);
    return true;
}

} // namespace

SendResult
SocketTransport::sendShard(const ShardManifest &manifest,
                           const std::vector<std::string> &chunks)
{
    SendResult res;
    if (chunks.empty()) {
        res.error = "no chunks to send";
        return res;
    }
    uint32_t chunk_count = static_cast<uint32_t>(chunks.size());
    uint32_t acked = 0; // Chunks the receiver has confirmed staged.
    int backoff_ms = options_.backoff_ms;

    static telemetry::Counter &m_frames_sent =
        telemetry::counter("hbbp_transport_frames_sent_total");
    static telemetry::Counter &m_frames_acked =
        telemetry::counter("hbbp_transport_frames_acked_total");
    static telemetry::Counter &m_retries =
        telemetry::counter("hbbp_transport_retries_total");
    static telemetry::Counter &m_rejects =
        telemetry::counter("hbbp_transport_rejects_total");
    static telemetry::Counter &m_bytes_sent =
        telemetry::counter("hbbp_transport_bytes_sent_total");
    static telemetry::Histogram &m_connect_ms = telemetry::histogram(
        "hbbp_transport_connect_ms", telemetry::latencyBucketsMs());
    static telemetry::Histogram &m_ack_ms = telemetry::histogram(
        "hbbp_transport_ack_ms", telemetry::latencyBucketsMs());

    while (res.attempts < options_.max_attempts) {
        if (res.attempts > 0) {
            m_retries.add();
            events::emit(events::Level::Warn, "push_retry",
                         {{"attempt", format("%d", res.attempts)},
                          {"error", res.error}});
            // Bounded exponential backoff between connection attempts:
            // a briefly absent listener (restarting aggregator) is the
            // expected case, a permanently absent one gives up loudly.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));
            backoff_ms = std::min(backoff_ms * 2,
                                  options_.max_backoff_ms);
        }
        res.attempts++;
        std::string why;
        int64_t connect_start = steadyNowMs();
        int fd = netConnect(options_.host, options_.port,
                           options_.io_timeout_ms, &why);
        if (fd < 0) {
            res.error = why;
            continue;
        }
        m_connect_ms.observe(
            static_cast<uint64_t>(steadyNowMs() - connect_start));

        bool rewound = false; // Only honor one Incomplete per attempt.
        bool conn_dead = false;
        for (uint32_t i = acked; i < chunk_count && !conn_dead;) {
            std::string frame =
                renderFrame(manifest, i, chunk_count, chunks[i]);
            int64_t frame_start = steadyNowMs();
            m_frames_sent.add();
            m_bytes_sent.add(frame.size());
            if (!netWriteAll(fd, frame.data(), frame.size(),
                          options_.io_timeout_ms)) {
                res.error = format("connection to %s:%u lost "
                                   "mid-frame (chunk %u/%u)",
                                   options_.host.c_str(),
                                   options_.port, i, chunk_count);
                conn_dead = true;
                break;
            }
            AckCode code;
            std::string reason;
            if (!readAck(fd, &code, &reason)) {
                res.error = format(
                    "no acknowledgement from %s:%u for chunk %u/%u",
                    options_.host.c_str(), options_.port, i,
                    chunk_count);
                conn_dead = true;
                break;
            }
            m_frames_acked.add();
            m_ack_ms.observe(
                static_cast<uint64_t>(steadyNowMs() - frame_start));
            if (code == AckCode::Rejected)
                m_rejects.add();
            switch (code) {
            case AckCode::ChunkAccepted:
                acked = ++i;
                if (fail_after_chunks >= 0 &&
                    acked >= static_cast<uint32_t>(fail_after_chunks)) {
                    // Test hook: die the way a crashing collector
                    // does — mid-stream, without cleanup.
                    ::close(fd);
                    ::_exit(3);
                }
                break;
            case AckCode::ShardAccepted:
                ::close(fd);
                res.ok = true;
                return res;
            case AckCode::Duplicate:
                ::close(fd);
                res.ok = true;
                res.duplicate = true;
                return res;
            case AckCode::Incomplete:
                // The receiver restarted and lost our staged chunks;
                // resend the stream from the top (duplicates of
                // anything it still has are acked idempotently).
                if (rewound) {
                    res.error = format(
                        "receiver at %s:%u reports an incomplete "
                        "stream even after a full resend",
                        options_.host.c_str(), options_.port);
                    conn_dead = true;
                    break;
                }
                rewound = true;
                acked = 0;
                i = 0;
                break;
            case AckCode::Rejected:
                // Permanent: the same bytes would be rejected again.
                ::close(fd);
                res.error = format("shard rejected by %s:%u: %s",
                                   options_.host.c_str(),
                                   options_.port, reason.c_str());
                return res;
            }
        }
        ::close(fd);
    }
    res.error = format("giving up after %d attempt%s: %s",
                       res.attempts, res.attempts == 1 ? "" : "s",
                       res.error.c_str());
    return res;
}

// ---------------------------------------------------------------------------
// ShardListener (the receiver).
// ---------------------------------------------------------------------------

ShardListener::ShardListener(uint16_t port,
                             const std::string &bind_addr)
{
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        fatal("cannot create listen socket: %s", std::strerror(errno));
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1)
        fatal("invalid listen address '%s' (expected an IPv4 address "
              "like 0.0.0.0)", bind_addr.c_str());
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("cannot bind to %s:%u: %s", bind_addr.c_str(), port,
              std::strerror(errno));
    if (::listen(listen_fd_, 16) != 0)
        fatal("cannot listen on %s:%u: %s", bind_addr.c_str(), port,
              std::strerror(errno));

    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<struct sockaddr *>(&addr),
                      &len) != 0)
        fatal("cannot read back the listen port: %s",
              std::strerror(errno));
    port_ = ntohs(addr.sin_port);
    ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
}

ShardListener::~ShardListener()
{
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
}

namespace {

/** Chunks staged for one (host, seq) slot awaiting its final frame. */
struct StagedShard
{
    uint32_t chunk_count = 0;
    std::map<uint32_t, ProfileData> chunks;
    /** Per-chunk payload checksums, for idempotent re-delivery. */
    std::map<uint32_t, uint64_t> checksums;
    /**
     * Raw chunk payloads, kept only for aggregate shards: their
     * per-host split must reach the accept callback (journaling)
     * verbatim, and re-serializing each partial would pay the cost
     * twice.
     */
    std::map<uint32_t, std::string> bytes;
};

/** One sender connection's receive state. */
struct Conn
{
    int fd = -1;
    std::string buf; ///< Bytes received but not yet framed.
    /**
     * What the connection's first 8 bytes said it is: shard frames
     * open with kFrameMagic, query frames with kQueryFrameMagic. One
     * port serves both — a query client dials the same address the
     * collectors push to.
     */
    bool is_query = false;
    bool kind_known = false;
};

/** A decoded frame header. */
struct FrameHeader
{
    uint32_t manifest_len = 0;
    uint32_t chunk_index = 0;
    uint32_t chunk_count = 0;
    uint64_t payload_len = 0;
};

/** Decode and sanity-check a header at @p off; false = violation. */
bool
decodeHeader(const std::string &buf, size_t off, FrameHeader *h)
{
    uint64_t magic;
    std::memcpy(&magic, buf.data() + off, 8);
    std::memcpy(&h->manifest_len, buf.data() + off + 8, 4);
    std::memcpy(&h->chunk_index, buf.data() + off + 12, 4);
    std::memcpy(&h->chunk_count, buf.data() + off + 16, 4);
    std::memcpy(&h->payload_len, buf.data() + off + 20, 8);
    return magic == kFrameMagic && h->manifest_len > 0 &&
           h->manifest_len <= kMaxManifestBytes &&
           h->payload_len <= kMaxPayloadBytes && h->chunk_count >= 1 &&
           h->chunk_index < h->chunk_count;
}

/** Per-outcome receive counters, bumped at the single ack chokepoint. */
telemetry::Counter &
ackCounter(AckCode code)
{
    static telemetry::Counter &chunk =
        telemetry::counter("hbbp_listener_ack_chunk_total");
    static telemetry::Counter &shard =
        telemetry::counter("hbbp_listener_ack_shard_total");
    static telemetry::Counter &dup =
        telemetry::counter("hbbp_listener_ack_duplicate_total");
    static telemetry::Counter &rejected =
        telemetry::counter("hbbp_listener_ack_rejected_total");
    static telemetry::Counter &incomplete =
        telemetry::counter("hbbp_listener_ack_incomplete_total");
    switch (code) {
    case AckCode::ChunkAccepted: return chunk;
    case AckCode::ShardAccepted: return shard;
    case AckCode::Duplicate: return dup;
    case AckCode::Rejected: return rejected;
    case AckCode::Incomplete: return incomplete;
    }
    panic("invalid AckCode %d", static_cast<int>(code));
}

bool
sendAck(int fd, AckCode code, const std::string &reason = {})
{
    ackCounter(code).add();
    // Every permanent rejection is an exceptional path worth a
    // flight-recorder entry; the one ack chokepoint catches them all.
    if (code == AckCode::Rejected)
        events::emit(events::Level::Warn, "shard_reject",
                     {{"reason", reason}});
    ByteWriter w;
    w.u8(static_cast<uint8_t>(code));
    w.u32(static_cast<uint32_t>(reason.size()));
    std::string bytes = w.bytes();
    bytes += reason;
    return netWriteAll(fd, bytes.data(), bytes.size());
}

} // namespace

size_t
ShardListener::serve(IncrementalAggregator &agg,
                     const ListenOptions &options)
{
    std::vector<Conn> conns;
    std::map<std::pair<std::string, uint32_t>, StagedShard> staging;
    size_t accepted = 0;
    int64_t last_progress = steadyNowMs();
    // The poll loop is the daemon's pulse: a Listener beat per round
    // is what the watchdog and /healthz watch for liveness. Accept is
    // a work stage — reported, but idleness is not a stall.
    telemetry::beatEnable(telemetry::Stage::Listener);
    telemetry::beatEnable(telemetry::Stage::Accept);
    static telemetry::Gauge &m_active_streams =
        telemetry::gauge("hbbp_listener_active_streams");
    static telemetry::Gauge &m_staged_chunks =
        telemetry::gauge("hbbp_listener_staged_chunks");
    static telemetry::Counter &m_bytes_recv =
        telemetry::counter("hbbp_listener_bytes_received_total");
    static telemetry::Counter &m_idle_aborts =
        telemetry::counter("hbbp_listener_idle_aborts_total");
    bool done = options.expect > 0 &&
                agg.coveredShards() >= options.expect;

    // Process one complete frame at @p off in conn.buf. Returns the
    // ack outcome; a Rejected ack also counts the shard into the
    // aggregator's malformed/incompatible stats.
    auto processFrame = [&](Conn &conn, size_t off,
                            const FrameHeader &h) -> bool {
        std::string manifest_text =
            conn.buf.substr(off + kFrameHeaderBytes, h.manifest_len);
        std::string payload = conn.buf.substr(
            off + kFrameHeaderBytes + h.manifest_len,
            static_cast<size_t>(h.payload_len));
        std::string peer = format("frame from fd %d", conn.fd);

        std::string why;
        std::optional<ShardManifest> m =
            ShardManifest::parse(manifest_text, &why);
        if (!m) {
            agg.noteMalformed();
            return sendAck(conn.fd, AckCode::Rejected,
                           format("malformed manifest: %s",
                                  why.c_str()));
        }
        auto key = std::make_pair(m->host, m->seq);
        bool final_chunk = h.chunk_index + 1 == h.chunk_count;
        bool is_aggregate = m->level > 0;
        // An aggregate's chunks ARE its covered hosts' partials, one
        // each in coverage order — any other count cannot be spliced.
        if (is_aggregate && h.chunk_count != m->covered.size()) {
            staging.erase(key);
            agg.noteMalformed();
            return sendAck(
                conn.fd, AckCode::Rejected,
                format("aggregate covers %zu hosts but streams %u "
                       "chunks", m->covered.size(), h.chunk_count));
        }
        if ((m->status == ShardStatus::Complete) != final_chunk) {
            // A stream this confused is dead; drop anything it staged
            // so a clean retry starts fresh instead of leaking here.
            staging.erase(key);
            agg.noteMalformed();
            return sendAck(
                conn.fd, AckCode::Rejected,
                format("chunk %u/%u carries status=%s", h.chunk_index,
                       h.chunk_count, name(m->status)));
        }

        // Every chunk is verified on receipt: a corrupted transfer is
        // caught here, per frame, not after the whole stream landed.
        uint64_t chunk_checksum = 0;
        std::optional<ProfileData> chunk = ProfileData::parse(
            payload, peer, &why, &chunk_checksum);
        if (!chunk) {
            staging.erase(key);
            agg.noteMalformed();
            return sendAck(conn.fd, AckCode::Rejected,
                           format("chunk payload invalid: %s",
                                  why.c_str()));
        }

        StagedShard &staged = staging[key];
        if (staged.chunk_count == 0)
            staged.chunk_count = h.chunk_count;
        if (staged.chunk_count != h.chunk_count) {
            staging.erase(key);
            agg.noteMalformed();
            return sendAck(
                conn.fd, AckCode::Rejected,
                format("chunk count changed mid-stream (%u then %u)",
                       staged.chunk_count, h.chunk_count));
        }
        auto seen = staged.checksums.find(h.chunk_index);
        if (seen != staged.checksums.end() &&
            seen->second != chunk_checksum) {
            // A *different* payload under an index we already hold:
            // the staged stream is from an abandoned earlier push
            // (the host re-collected and started over). The old
            // stream can never finalize — its sender is gone — so
            // restart the slot with the new stream rather than
            // permanently rejecting every retry of the live one.
            staged.chunks.clear();
            staged.checksums.clear();
            staged.bytes.clear();
            staged.chunk_count = h.chunk_count;
            seen = staged.checksums.end();
        }
        if (seen != staged.checksums.end()) {
            // Idempotent re-delivery (a sender retrying from chunk 0
            // after a crash): confirm and move on.
            if (!final_chunk) {
                last_progress = steadyNowMs();
                return sendAck(conn.fd, AckCode::ChunkAccepted);
            }
        } else {
            staged.checksums[h.chunk_index] = chunk_checksum;
            staged.chunks.emplace(h.chunk_index, std::move(*chunk));
            if (is_aggregate)
                staged.bytes.emplace(h.chunk_index, payload);
        }
        if (!final_chunk) {
            last_progress = steadyNowMs();
            return sendAck(conn.fd, AckCode::ChunkAccepted);
        }

        // Final chunk: the stream must be gap-free before assembly.
        if (staged.chunks.size() != staged.chunk_count) {
            // Likely our restart, not the sender's fault: tell it to
            // resend from the top rather than rejecting outright.
            return sendAck(
                conn.fd, AckCode::Incomplete,
                format("%zu of %u chunks staged",
                       staged.chunks.size(), staged.chunk_count));
        }
        std::vector<ProfileData> parts;
        parts.reserve(staged.chunks.size());
        for (auto &[idx, pd] : staged.chunks)
            parts.push_back(std::move(pd));
        std::vector<std::string> raw_chunks;
        raw_chunks.reserve(staged.bytes.size());
        for (auto &[idx, bytes] : staged.bytes)
            raw_chunks.push_back(std::move(bytes));
        uint32_t chunk_count = staged.chunk_count;
        staging.erase(key);
        // The aggregate path still needs the per-host partials after
        // the fold is verified, so its merge works on copies.
        std::optional<ProfileData> merged =
            is_aggregate ? mergeChunksPreserving(parts, &why)
                         : tryMergeChunks(std::move(parts), &why);
        if (!merged) {
            agg.noteMalformed();
            return sendAck(conn.fd, AckCode::Rejected,
                           format("chunks do not assemble: %s",
                                  why.c_str()));
        }
        // One hash per accepted shard. A single-chunk leaf's payload is
        // the shard itself, whose checksum parse() already verified —
        // this is also what accepts a single chunk from a version-3
        // sender, whose manifest carries the version-3 checksum. A
        // multi-chunk leaf serializes its assembly once: those bytes
        // prove the manifest and are what on_accept deposits.
        uint64_t merged_checksum = 0;
        std::string leaf_bytes;
        if (is_aggregate) {
            merged_checksum = merged->payloadChecksum();
        } else if (chunk_count == 1) {
            merged_checksum = chunk_checksum;
            leaf_bytes = std::move(payload);
        } else {
            leaf_bytes = merged->serialize(&merged_checksum);
        }
        if (merged_checksum != m->checksum) {
            agg.noteMalformed();
            return sendAck(
                conn.fd, AckCode::Rejected,
                format("assembled payload hashes to %016llx but the "
                       "manifest promises %016llx",
                       static_cast<unsigned long long>(merged_checksum),
                       static_cast<unsigned long long>(m->checksum)));
        }

        ProfileData for_accept;
        const ProfileData *accept_ref = nullptr;
        std::vector<std::string> accept_bytes;
        if (options.on_accept) {
            for_accept = *merged; // The fold consumes the profile.
            accept_ref = &for_accept;
            if (is_aggregate)
                accept_bytes = std::move(raw_chunks);
            else
                accept_bytes.push_back(std::move(leaf_bytes));
        }
        bool folded =
            is_aggregate
                ? agg.addAggregateShard(*m, std::move(parts), &why)
                : agg.addShard(*m, std::move(*merged), &why);
        if (!folded) {
            // Only a payload already accounted for is confirmed back
            // as a duplicate (the retried sender genuinely succeeded;
            // for aggregates that includes an entirely superseded
            // flush). A (host, seq) slot conflict also lands in the
            // duplicate *stats*, but the sender's data was dropped —
            // that must fail loudly, not read as success.
            if (agg.hasChecksum(m->checksum))
                return sendAck(conn.fd, AckCode::Duplicate);
            return sendAck(conn.fd, AckCode::Rejected, why);
        }
        accepted++;
        last_progress = steadyNowMs();
        telemetry::beat(telemetry::Stage::Accept);
        // Callback before the ack: a sender that saw success may rely
        // on the checkpoint/deposit having happened.
        if (options.on_accept)
            options.on_accept(*m, *accept_ref, accept_bytes);
        return sendAck(conn.fd, AckCode::ShardAccepted);
    };

    // Answer one query frame's body and frame the reply. Queries are
    // progress (an active query storm keeps the daemon alive), and
    // they run here, on the serve thread, so the handler may read the
    // aggregator without synchronization.
    auto processQuery = [&](Conn &conn,
                            const std::string &body) -> bool {
        std::string reply =
            options.on_query
                ? options.on_query(body)
                : queryErrorReplyBody(
                      "this endpoint does not serve queries");
        ByteWriter w;
        w.u64(kQueryReplyMagic);
        w.u32(static_cast<uint32_t>(reply.size()));
        std::string frame = w.bytes();
        frame += reply;
        last_progress = steadyNowMs();
        if (!options.on_query)
            return netWriteAll(conn.fd, frame.data(), frame.size()) &&
                   false; // Reply, then close: nothing more to serve.
        return netWriteAll(conn.fd, frame.data(), frame.size());
    };

    while (!done) {
        // A SIGUSR1 dump request lands here, between poll rounds, so
        // the handler itself stays a single relaxed store.
        telemetry::dumpIfRequested();
        telemetry::beat(telemetry::Stage::Listener);
        if (options.should_stop && options.should_stop())
            break;
        m_active_streams.set(static_cast<int64_t>(conns.size()));
        size_t staged_chunks = 0;
        for (const auto &[key, s] : staging)
            staged_chunks += s.chunks.size();
        m_staged_chunks.set(static_cast<int64_t>(staged_chunks));

        std::vector<struct pollfd> pfds;
        pfds.push_back({listen_fd_, POLLIN, 0});
        for (const Conn &c : conns)
            pfds.push_back({c.fd, POLLIN, 0});
        int rc = ::poll(pfds.data(), pfds.size(), 50);
        if (rc < 0 && errno != EINTR)
            fatal("poll() failed in shard listener: %s",
                  std::strerror(errno));

        if (pfds[0].revents & POLLIN) {
            for (;;) {
                int fd = ::accept(listen_fd_, nullptr, nullptr);
                if (fd < 0)
                    break;
                ::fcntl(fd, F_SETFL, O_NONBLOCK);
                conns.push_back(Conn{fd, {}});
            }
        }

        for (size_t ci = 0; ci < conns.size();) {
            Conn &conn = conns[ci];
            bool peer_gone = false, close_conn = false;
            for (;;) {
                char chunk[65536];
                ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
                if (n > 0) {
                    m_bytes_recv.add(static_cast<uint64_t>(n));
                    conn.buf.append(chunk, static_cast<size_t>(n));
                    // Bytes on the wire are progress too: a frame
                    // whose transfer alone outlasts the idle timeout
                    // must not be aborted mid-receive.
                    last_progress = steadyNowMs();
                    continue;
                }
                if (n < 0 &&
                    (errno == EAGAIN || errno == EWOULDBLOCK))
                    break;
                if (n < 0 && errno == EINTR)
                    continue;
                // EOF or error. Complete frames already buffered are
                // still processed below — a sender that transmitted
                // its final frame and died before reading the ack
                // delivered real data; only a half-received frame
                // dies with the connection. Staged chunks survive
                // for the retry either way.
                peer_gone = true;
                break;
            }

            // Consume frames at a moving offset and compact the
            // buffer once per poll round: erasing the front per frame
            // would re-copy everything still queued behind it.
            size_t consumed = 0;
            while (!close_conn) {
                size_t have = conn.buf.size() - consumed;
                if (!conn.kind_known) {
                    if (have < 8)
                        break;
                    uint64_t magic;
                    std::memcpy(&magic, conn.buf.data() + consumed, 8);
                    conn.is_query = magic == kQueryFrameMagic;
                    conn.kind_known = true;
                }
                if (conn.is_query) {
                    if (have < kQueryFrameHeaderBytes)
                        break;
                    uint64_t magic;
                    uint32_t body_len;
                    std::memcpy(&magic, conn.buf.data() + consumed, 8);
                    std::memcpy(&body_len,
                                conn.buf.data() + consumed + 8, 4);
                    if (magic != kQueryFrameMagic || body_len == 0 ||
                        body_len > kMaxQueryBodyBytes) {
                        warn("closing query connection: malformed "
                             "query frame header");
                        close_conn = true;
                        break;
                    }
                    if (have < kQueryFrameHeaderBytes + body_len)
                        break;
                    std::string body = conn.buf.substr(
                        consumed + kQueryFrameHeaderBytes, body_len);
                    if (!processQuery(conn, body)) {
                        close_conn = true;
                        break;
                    }
                    consumed += kQueryFrameHeaderBytes + body_len;
                    continue;
                }
                if (have < kFrameHeaderBytes)
                    break;
                FrameHeader h;
                if (!decodeHeader(conn.buf, consumed, &h)) {
                    warn("closing shard sender connection: malformed "
                         "frame header");
                    close_conn = true;
                    break;
                }
                size_t frame_len = kFrameHeaderBytes + h.manifest_len +
                                   static_cast<size_t>(h.payload_len);
                if (conn.buf.size() - consumed < frame_len)
                    break;
                if (!processFrame(conn, consumed, h)) {
                    close_conn = true;
                    break;
                }
                consumed += frame_len;
                if (options.expect > 0 &&
                    agg.coveredShards() >= options.expect) {
                    done = true;
                    break;
                }
            }
            if (consumed > 0)
                conn.buf.erase(0, consumed);

            if (close_conn || peer_gone) {
                ::close(conn.fd);
                conns.erase(conns.begin() + ci);
            } else {
                ci++;
            }
        }

        if (!done && options.idle_timeout_ms >= 0 &&
            steadyNowMs() - last_progress >= options.idle_timeout_ms) {
            m_idle_aborts.add();
            events::emit(events::Level::Warn, "idle_abort",
                         {{"idle_ms", format("%d",
                                             options.idle_timeout_ms)},
                          {"accepted", format("%zu", accepted)}});
            break;
        }
    }

    m_active_streams.set(0);
    m_staged_chunks.set(0);
    for (const Conn &c : conns)
        ::close(c.fd);
    return accepted;
}

} // namespace hbbp
