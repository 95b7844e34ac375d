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
#include <optional>
#include <string_view>
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

// One shard on the wire is one frame: a fixed header, then the
// arrival's envelope (encodeArrival() in fleet/manifest: the manifest
// text, a payload count and the length-prefixed payloads — the body of
// a state-log record too). Everything is length-prefixed so the
// receiver never scans for delimiters in binary data.
//
//   u64 magic      kFrameMagic
//   u64 body_len   bytes of envelope after the header
//   u64 checksum   the envelope's checksum, as encodeArrival() returns
constexpr uint64_t kFrameMagic = 0x48425053'46524d32ULL; // "HBPSFRM2"
constexpr size_t kFrameHeaderBytes = 24;
constexpr uint64_t kMaxFrameBodyBytes = 1ull << 30;
// What older builds sent instead: a shard streamed as chunk frames.
// The listener tells them apart by this magic alone.
constexpr uint64_t kChunkedFrameMagic = 0x48425053'46524d31ULL; // "HBPSFRM1"

/**
 * The receiver's one answer to each frame. The codes are those the
 * chunked protocol used for the same answers, so a sender of chunked
 * frames reads the rejection it gets.
 */
enum class AckCode : uint8_t {
    ShardAccepted = 1, ///< Folded; the shard is aggregated.
    Duplicate = 2,     ///< Payload already aggregated (retried send).
    Rejected = 3,      ///< Permanent: retrying cannot succeed.
};

/** Ack wire format: u8 code, u32 reason_len, reason bytes. */
constexpr size_t kAckHeaderBytes = 5;
constexpr uint32_t kMaxAckReasonBytes = 1u << 20;

// The byte-moving primitives (deadline connect, progress-bounded
// writes, exact reads, IO timeouts) live in fleet/socket_client.hh —
// one copy shared with the metrics fetcher and the query client.

std::string
encodeFrame(const ShardManifest &manifest,
            const std::vector<std::string> &payloads)
{
    ByteWriter w;
    w.u64(kFrameMagic);
    w.u64(0);
    w.u64(0);
    uint64_t checksum = encodeArrival(
        w, {manifest.render(), {payloads.begin(), payloads.end()}});
    std::string frame = w.take();
    uint64_t body_len = frame.size() - kFrameHeaderBytes;
    std::memcpy(frame.data() + 8, &body_len, sizeof(body_len));
    std::memcpy(frame.data() + 16, &checksum, sizeof(checksum));
    return frame;
}

/**
 * A relay flush's partials merged in coverage order — the profile its
 * manifest checksum names — after checking each against the first and
 * against every module record before it: a flush of partials that
 * cannot merge earns a rejection, not mergeInto()'s fatal().
 */
std::optional<ProfileData>
mergePartials(const std::vector<ProfileData> &partials, std::string *why)
{
    std::vector<MmapRecord> seen;
    for (const ProfileData &partial : partials)
        if (!mergeCompatible(partials[0], partial, why) ||
            !reconcileMmaps(seen, partial.mmaps, why))
            return std::nullopt;
    std::optional<ProfileData> merged;
    for (const ProfileData &partial : partials)
        accumulateInto(merged, partial);
    return merged;
}

} // namespace

// ---------------------------------------------------------------------------
// DropDirTransport.
// ---------------------------------------------------------------------------

SendResult
DropDirTransport::sendShard(const ShardManifest &manifest,
                            const std::vector<std::string> &payloads)
{
    SendResult res;
    res.attempts = 1;
    if (manifest.level > 0 || !manifest.covered.empty()) {
        res.error = format(
            "aggregate shards (level %u) travel over the socket "
            "transport: a drop-directory file holds one profile, and "
            "their fold needs one payload per covered host",
            manifest.level);
        return res;
    }
    if (payloads.size() != 1) {
        res.error = format("a leaf shard is one payload, not %zu",
                           payloads.size());
        return res;
    }
    std::string why;
    uint64_t checksum = 0;
    if (!ProfileData::parse(payloads[0], "push payload", &why,
                            &checksum)) {
        res.error = why;
        return res;
    }
    if (checksum != manifest.checksum) {
        res.error = format(
            "payload hashes to %016llx but the manifest promises "
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
    writeShardFiles(manifest, payloads[0], dir_);
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
    if (raw_code < static_cast<uint8_t>(AckCode::ShardAccepted) ||
        raw_code > static_cast<uint8_t>(AckCode::Rejected) ||
        reason_len > kMaxAckReasonBytes)
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
                           const std::vector<std::string> &payloads)
{
    SendResult res;
    if (payloads.empty()) {
        res.error = "no payload to send";
        return res;
    }
    std::string frame = encodeFrame(manifest, payloads);
    if (frame.size() - kFrameHeaderBytes > kMaxFrameBodyBytes) {
        // A listener drops such a frame unanswered, so every retry
        // would fail the same way.
        res.error = format(
            "shard frame of %zu bytes exceeds the %llu-byte frame "
            "limit (a leaf's payload, or a relay flush's partials "
            "together, must fit in one frame)",
            frame.size() - kFrameHeaderBytes,
            static_cast<unsigned long long>(kMaxFrameBodyBytes));
        return res;
    }
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
        int64_t frame_start = steadyNowMs();
        m_connect_ms.observe(
            static_cast<uint64_t>(frame_start - connect_start));
        m_frames_sent.add();
        m_bytes_sent.add(frame.size());
        // Whatever went wrong before the ack, the whole frame goes
        // again: the listener folds a frame only once it is whole,
        // and confirms one it already folded as a duplicate.
        AckCode code;
        std::string reason;
        bool sent = netWriteAll(fd, frame.data(), frame.size(),
                                options_.io_timeout_ms);
        bool acked = sent && readAck(fd, &code, &reason);
        ::close(fd);
        if (!acked) {
            res.error = format(sent ? "no acknowledgement from %s:%u"
                                    : "connection to %s:%u lost mid-frame",
                               options_.host.c_str(), options_.port);
            continue;
        }
        m_frames_acked.add();
        m_ack_ms.observe(
            static_cast<uint64_t>(steadyNowMs() - frame_start));
        if (code == AckCode::Rejected) {
            // Permanent: the same bytes would be rejected again.
            m_rejects.add();
            res.error = format("shard rejected by %s:%u: %s",
                               options_.host.c_str(), options_.port,
                               reason.c_str());
            return res;
        }
        res.ok = true;
        res.duplicate = code == AckCode::Duplicate;
        return res;
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
    /**
     * Rejected as a sender of chunked frames: what else it sends is
     * discarded until it hangs up. Closing first would leave its
     * unread bytes behind, and the reset they cause can destroy the
     * rejection before the sender reads it.
     */
    bool draining = false;
};

/** Per-outcome receive counters, bumped at the single ack chokepoint. */
telemetry::Counter &
ackCounter(AckCode code)
{
    static telemetry::Counter &shard =
        telemetry::counter("hbbp_listener_ack_shard_total");
    static telemetry::Counter &dup =
        telemetry::counter("hbbp_listener_ack_duplicate_total");
    static telemetry::Counter &rejected =
        telemetry::counter("hbbp_listener_ack_rejected_total");
    switch (code) {
    case AckCode::ShardAccepted: return shard;
    case AckCode::Duplicate: return dup;
    case AckCode::Rejected: return rejected;
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

/**
 * Warn that a shard connection goes without an ack: its bytes cannot
 * be a frame, or its sender hung up mid-frame. Warnings are
 * rate-limited; the counter beside them is not.
 */
void
noteDroppedConnection(const Conn &conn, const std::string &why)
{
    static telemetry::Counter &dropped =
        telemetry::counter("hbbp_listener_dropped_connections_total");
    dropped.add();
    warn("closing shard sender connection (fd %d): %s", conn.fd,
         why.c_str());
}

} // namespace

size_t
ShardListener::serve(IncrementalAggregator &agg,
                     const ListenOptions &options)
{
    std::vector<Conn> conns;
    size_t accepted = 0;
    int64_t last_progress = steadyNowMs();
    // The poll loop is the daemon's pulse: a Listener beat per round
    // is what the watchdog and /healthz watch for liveness. Accept is
    // a work stage — reported, but idleness is not a stall.
    telemetry::beatEnable(telemetry::Stage::Listener);
    telemetry::beatEnable(telemetry::Stage::Accept);
    static telemetry::Gauge &m_active_streams =
        telemetry::gauge("hbbp_listener_active_streams");
    static telemetry::Counter &m_bytes_recv =
        telemetry::counter("hbbp_listener_bytes_received_total");
    static telemetry::Counter &m_idle_aborts =
        telemetry::counter("hbbp_listener_idle_aborts_total");
    bool done = options.expect > 0 &&
                agg.coveredShards() >= options.expect;

    // Verify, fold and answer one frame, whose envelope is @p body.
    // Returns false when the ack could not be sent. A Rejected ack
    // also counts the shard into the aggregator's malformed or
    // incompatible stats.
    auto processFrame = [&](Conn &conn, std::string_view body,
                            uint64_t checksum) -> bool {
        std::string peer = format("frame from fd %d", conn.fd);
        auto reject = [&](const std::string &reason) {
            agg.noteMalformed();
            return sendAck(conn.fd, AckCode::Rejected, reason);
        };
        ArrivalParts parts;
        try {
            parts = splitArrival(body, checksum, peer, "shard frame");
        } catch (const ByteParseError &e) {
            return reject(format("malformed frame: %s", e.what()));
        }
        std::string why;
        std::optional<ShardManifest> m = parseArrival(parts, &why);
        if (!m)
            return reject(why);

        // Every payload is verified on receipt: its own header proves
        // its checksum, and a corrupt one is rejected, never folded.
        std::vector<ProfileData> profiles;
        profiles.reserve(parts.payloads.size());
        uint64_t shard_checksum = 0;
        for (std::string_view payload : parts.payloads) {
            std::optional<ProfileData> pd =
                ProfileData::parse(payload, peer, &why, &shard_checksum);
            if (!pd)
                return reject(
                    format("payload invalid: %s", why.c_str()));
            profiles.push_back(std::move(*pd));
        }
        // One hash per accepted shard. A leaf's payload is the shard,
        // whose checksum parse() just verified — this is also what
        // accepts a push from a version-3 sender, whose manifest
        // carries the version-3 checksum. A relay flush is checked
        // against its partials' merge, which is version 4: flushes
        // need version 4 on both ends.
        bool is_aggregate = m->level > 0;
        std::optional<ProfileData> shard;
        if (is_aggregate) {
            shard = mergePartials(profiles, &why);
            if (!shard)
                return reject(
                    format("partials do not merge: %s", why.c_str()));
            shard_checksum = shard->payloadChecksum();
        }
        if (shard_checksum != m->checksum)
            return reject(format(
                "payload hashes to %016llx but the manifest promises "
                "%016llx", static_cast<unsigned long long>(shard_checksum),
                static_cast<unsigned long long>(m->checksum)));

        // The fold consumes a leaf's profile, so on_accept sees a copy;
        // an aggregate's is the merge above.
        if (options.on_accept && !is_aggregate)
            shard = profiles[0];
        bool folded =
            is_aggregate
                ? agg.addAggregateShard(*m, std::move(profiles), &why)
                : agg.addShard(*m, std::move(profiles[0]), &why);
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
        // on the state log append and the deposit having happened.
        if (options.on_accept)
            options.on_accept(*m, *shard,
                              {parts.payloads.begin(),
                               parts.payloads.end()});
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
                // its frame and died before reading the ack delivered
                // real data; only a half-received frame dies with the
                // connection, and its sender retries the whole frame.
                peer_gone = true;
                break;
            }

            // Consume frames at a moving offset and compact the
            // buffer once per poll round: erasing the front per frame
            // would re-copy everything still queued behind it.
            size_t consumed = 0;
            while (!close_conn && !conn.draining) {
                size_t have = conn.buf.size() - consumed;
                if (have < 8)
                    break;
                uint64_t magic;
                std::memcpy(&magic, conn.buf.data() + consumed, 8);
                if (!conn.kind_known) {
                    conn.is_query = magic == kQueryFrameMagic;
                    conn.kind_known = true;
                }
                if (conn.is_query) {
                    if (have < kQueryFrameHeaderBytes)
                        break;
                    uint32_t body_len;
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
                if (magic == kChunkedFrameMagic) {
                    // An older build's sender: one rejection it can
                    // read and report, then nothing more from it.
                    agg.noteMalformed();
                    conn.draining = true;
                    close_conn = !sendAck(
                        conn.fd, AckCode::Rejected,
                        "this listener reads one HBPSFRM2 frame per "
                        "shard, not chunked HBPSFRM1 frames: upgrade "
                        "the sender to this build");
                    break;
                }
                if (magic != kFrameMagic) {
                    noteDroppedConnection(conn, "not a shard frame");
                    close_conn = true;
                    break;
                }
                if (have < kFrameHeaderBytes)
                    break;
                uint64_t body_len, checksum;
                std::memcpy(&body_len, conn.buf.data() + consumed + 8, 8);
                std::memcpy(&checksum, conn.buf.data() + consumed + 16,
                            8);
                if (body_len > kMaxFrameBodyBytes) {
                    noteDroppedConnection(
                        conn, format("frame claims %llu body bytes",
                                     static_cast<unsigned long long>(
                                         body_len)));
                    close_conn = true;
                    break;
                }
                if (have - kFrameHeaderBytes < body_len)
                    break;
                std::string_view body(
                    conn.buf.data() + consumed + kFrameHeaderBytes,
                    static_cast<size_t>(body_len));
                if (!processFrame(conn, body, checksum)) {
                    close_conn = true;
                    break;
                }
                consumed += kFrameHeaderBytes +
                            static_cast<size_t>(body_len);
                if (options.expect > 0 &&
                    agg.coveredShards() >= options.expect) {
                    done = true;
                    break;
                }
            }
            if (conn.draining)
                consumed = conn.buf.size();
            if (consumed > 0)
                conn.buf.erase(0, consumed);
            if (peer_gone && !close_conn && !conn.is_query &&
                !conn.buf.empty())
                noteDroppedConnection(
                    conn, format("sender hung up mid-frame, %zu bytes "
                                 "in", conn.buf.size()));

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
    for (const Conn &c : conns)
        ::close(c.fd);
    return accepted;
}

} // namespace hbbp
