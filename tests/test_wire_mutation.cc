/**
 * @file
 * Seeded, structure-aware mutation tests for the shard frame, the one
 * format a listener reads from peers it cannot trust. A leaf frame and
 * a relay flush frame are mutated field by field: truncation at every
 * field boundary (a stream cut there, and a frame whose body length
 * says it ends there), one flipped byte in the header, the manifest,
 * the payload count, a payload length and a payload, an oversized
 * body length and payload count, a foreign magic and the chunked magic
 * of older builds, a leaf with zero or two payloads, a flush whose
 * payload count differs from its covered hosts, and, behind an
 * envelope restamped to match, a manifest whose checksum lies or one
 * with a control byte in a text field. Each mutant goes to a live
 * ShardListener on its own connection and must end in a Rejected ack
 * with a reason, or in a closed connection with a warning — never a
 * fold, a fatal() or a crash — and valid frames sent afterwards must
 * be accepted. The listener logs what it accepts to a state log, as
 * a daemon with --state does, and the log must restore them.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/aggregate.hh"
#include "fleet/journal.hh"
#include "fleet/manifest.hh"
#include "fleet/merge.hh"
#include "fleet/transport.hh"
#include "support/bytes.hh"
#include "support/rng.hh"
#include "support/telemetry.hh"

namespace hbbp {
namespace {

// The frame layout fleet/transport.hh documents: magic, body length,
// envelope checksum, then the envelope (fleet/manifest.hh).
constexpr uint64_t kFrameMagic = 0x48425053'46524d32ULL;        // "HBPSFRM2"
constexpr uint64_t kChunkedFrameMagic = 0x48425053'46524d31ULL; // "HBPSFRM1"
constexpr size_t kHeaderBytes = 24;
constexpr uint64_t kMaxBodyBytes = 1ull << 30;

/** A small compatible profile whose content varies with @p tag. */
ProfileData
partProfile(uint64_t tag)
{
    ProfileData pd;
    pd.sim_periods = {1009, 101};
    pd.paper_periods = {100'000'007, 10'000'019};
    pd.runtime_class = RuntimeClass::MinutesMany;
    pd.features = {1000 + tag, 2000 + tag, 30 + tag, 40 + tag, 5 + tag};
    pd.pmi_count = 10 + tag;
    pd.mmaps.push_back({"app.bin", 0x400000, 0x1000, false});
    for (uint64_t i = 0; i < 3; i++) {
        pd.ebs.push_back({0x400000 + tag + i, tag, Ring::User});
        LbrStackSample stack;
        stack.entries = {{0x400100 + tag, 0x400200 + tag + i}};
        stack.cycle = tag + i;
        stack.eventing_ip = 0x400300 + tag;
        pd.lbr.push_back(stack);
    }
    return pd;
}

/** One arrival: its manifest and payloads, as a sender holds them. */
struct Arrival
{
    ShardManifest manifest;
    std::vector<std::string> payloads;
};

/** The frame of @p manifest_text over @p payloads. */
std::string
frameOf(const std::string &manifest_text,
        const std::vector<std::string> &payloads)
{
    ByteWriter w;
    w.u64(kFrameMagic);
    w.u64(0);
    w.u64(0);
    uint64_t checksum =
        encodeArrival(w, {manifest_text, {payloads.begin(), payloads.end()}});
    std::string frame = w.take();
    uint64_t body_len = frame.size() - kHeaderBytes;
    std::memcpy(frame.data() + 8, &body_len, 8);
    std::memcpy(frame.data() + 16, &checksum, 8);
    return frame;
}

std::string
frameOf(const Arrival &a)
{
    return frameOf(a.manifest.render(), a.payloads);
}

Arrival
leafArrival()
{
    Arrival a;
    a.manifest.host = "hostA";
    a.manifest.workload = "test40";
    a.manifest.profile_file = "hostA-0.hbbp";
    a.payloads.push_back(partProfile(1).serialize(&a.manifest.checksum));
    return a;
}

/** A relay flush covering h0 and h1, one leaf each. */
Arrival
flushArrival()
{
    Arrival a;
    a.manifest.version = kManifestVersionAggregate;
    a.manifest.host = "relay1";
    a.manifest.workload = "test40";
    a.manifest.profile_file = "relay1.hbbp";
    a.manifest.level = 1;
    std::vector<ProfileData> partials = {partProfile(20), partProfile(30)};
    a.manifest.checksum = mergeProfiles(partials).payloadChecksum();
    for (size_t i = 0; i < partials.size(); i++) {
        a.manifest.covered.push_back({"h" + std::to_string(i), 1});
        a.payloads.push_back(partials[i].serialize());
    }
    return a;
}

/** Where a frame's fields sit, and where each one starts. */
struct FieldMap
{
    size_t manifest_off = 0, manifest_len = 0;
    size_t count_off = 0;
    std::vector<size_t> len_offs;
    std::vector<std::pair<size_t, size_t>> payloads; ///< (offset, size)
    std::vector<size_t> boundaries; ///< Every field's end but the last.
};

FieldMap
mapFrame(const std::string &frame)
{
    FieldMap f;
    f.boundaries = {8, 16, 24};
    uint32_t mlen = 0, n = 0;
    std::memcpy(&mlen, frame.data() + kHeaderBytes, 4);
    f.manifest_off = kHeaderBytes + 4;
    f.manifest_len = mlen;
    f.count_off = f.manifest_off + mlen;
    std::memcpy(&n, frame.data() + f.count_off, 4);
    f.boundaries.push_back(f.manifest_off);
    f.boundaries.push_back(f.count_off);
    size_t at = f.count_off + 4;
    f.boundaries.push_back(at);
    for (uint32_t i = 0; i < n; i++) {
        uint64_t len = 0;
        std::memcpy(&len, frame.data() + at, 8);
        f.len_offs.push_back(at);
        f.payloads.emplace_back(at + 8, static_cast<size_t>(len));
        at += 8 + len;
        f.boundaries.push_back(at - len);
        if (at < frame.size())
            f.boundaries.push_back(at);
    }
    EXPECT_EQ(at, frame.size());
    return f;
}

enum Kind
{
    CutStream,
    CutBody,
    FlipHeader,
    FlipManifest,
    FlipCount,
    FlipPayloadLength,
    FlipPayload,
    OversizedBody,
    OversizedCount,
    ForeignMagic,
    ChunkedMagic,
    LeafPayloadCount,
    FlushPayloadCount,
    ManifestChecksumLie,
    ControlByte,
    kKinds
};

const char *const kKindNames[kKinds] = {
    "cut stream",          "cut body",              "flip header",
    "flip manifest",       "flip count",            "flip payload length",
    "flip payload",        "oversized body",        "oversized count",
    "foreign magic",       "chunked magic",         "leaf payload count",
    "flush payload count", "manifest checksum lie", "control byte"};

/** How the listener must answer a mutant. */
enum class Outcome
{
    Rejected, ///< A Rejected ack with a reason.
    Closed,   ///< No ack: the connection closes, with a warning.
    Either,   ///< A header flip that may end either way.
};

struct Mutant
{
    Kind kind;
    std::string bytes;
    Outcome expect;
};

void
flipIn(std::string &bytes, size_t off, size_t len, Rng &rng)
{
    size_t at = off + rng.nextBelow(len);
    bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.nextBelow(255)));
}

/** What a flipped header makes of a frame (see ShardListener). */
Outcome
headerOutcome(const std::string &bytes)
{
    uint64_t magic, body_len;
    std::memcpy(&magic, bytes.data(), 8);
    std::memcpy(&body_len, bytes.data() + 8, 8);
    if (magic == kChunkedFrameMagic)
        return Outcome::Rejected;
    if (magic != kFrameMagic || body_len > kMaxBodyBytes ||
        body_len > bytes.size() - kHeaderBytes)
        return Outcome::Closed;
    // A shorter body is rejected, and the bytes left behind it end the
    // connection: whichever the sender sees first.
    if (body_len < bytes.size() - kHeaderBytes)
        return Outcome::Either;
    return Outcome::Rejected; // The checksum field.
}

std::vector<Mutant>
mutants(const Arrival &a, Rng &rng)
{
    std::vector<Mutant> out;
    std::string frame = frameOf(a);
    FieldMap f = mapFrame(frame);
    auto add = [&](Kind kind, std::string bytes, Outcome expect) {
        out.push_back({kind, std::move(bytes), expect});
    };
    for (size_t cut : f.boundaries) {
        add(CutStream, frame.substr(0, cut), Outcome::Closed);
        if (cut <= kHeaderBytes)
            continue;
        std::string bytes = frame.substr(0, cut);
        uint64_t body_len = cut - kHeaderBytes;
        std::memcpy(bytes.data() + 8, &body_len, 8);
        add(CutBody, bytes, Outcome::Rejected);
    }
    for (int round = 0; round < 4; round++) {
        std::string bytes = frame;
        flipIn(bytes, 0, kHeaderBytes, rng);
        add(FlipHeader, bytes, headerOutcome(bytes));
        bytes = frame;
        flipIn(bytes, f.manifest_off, f.manifest_len, rng);
        add(FlipManifest, bytes, Outcome::Rejected);
        bytes = frame;
        flipIn(bytes, f.count_off, 4, rng);
        add(FlipCount, bytes, Outcome::Rejected);
        size_t i = rng.nextBelow(f.payloads.size());
        bytes = frame;
        flipIn(bytes, f.len_offs[i], 8, rng);
        add(FlipPayloadLength, bytes, Outcome::Rejected);
        bytes = frame;
        flipIn(bytes, f.payloads[i].first, f.payloads[i].second, rng);
        add(FlipPayload, bytes, Outcome::Rejected);
    }
    for (uint64_t huge :
         {kMaxBodyBytes + 1 + rng.nextBelow(1u << 20), UINT64_MAX}) {
        std::string bytes = frame;
        std::memcpy(bytes.data() + 8, &huge, 8);
        add(OversizedBody, bytes, Outcome::Closed);
    }
    for (uint32_t huge :
         {static_cast<uint32_t>(a.payloads.size() + 1 +
                                rng.nextBelow(1u << 16)),
          ~0u}) {
        std::string bytes = frame;
        std::memcpy(bytes.data() + f.count_off, &huge, 4);
        add(OversizedCount, bytes, Outcome::Rejected);
    }
    std::string bytes = frame;
    uint64_t foreign = 0x48424250'50524f46ULL; // A profile's magic.
    std::memcpy(bytes.data(), &foreign, 8);
    add(ForeignMagic, bytes, Outcome::Closed);

    // The chunked protocol's one-chunk frame: u64 magic, u32 manifest
    // length, u32 chunk index, u32 chunk count, u64 payload length,
    // manifest, payload.
    ByteWriter chunked;
    std::string text = a.manifest.render();
    chunked.u64(kChunkedFrameMagic);
    chunked.u32(static_cast<uint32_t>(text.size()));
    chunked.u32(0);
    chunked.u32(1);
    chunked.u64(a.payloads[0].size());
    add(ChunkedMagic, chunked.bytes() + text + a.payloads[0],
        Outcome::Rejected);

    // Payload counts the manifest does not allow, behind a consistent
    // envelope: none, one too few, one too many.
    Kind count_kind =
        a.manifest.covered.empty() ? LeafPayloadCount : FlushPayloadCount;
    std::vector<std::string> payloads = a.payloads;
    payloads.push_back(payloads[rng.nextBelow(payloads.size())]);
    add(count_kind, frameOf(text, payloads), Outcome::Rejected);
    payloads = a.payloads;
    payloads.pop_back();
    add(count_kind, frameOf(text, payloads), Outcome::Rejected);
    add(count_kind, frameOf(text, {}), Outcome::Rejected);

    // A manifest that promises another checksum, restamped so that
    // only the comparison with the payloads can catch it.
    ShardManifest lie = a.manifest;
    lie.checksum ^= 1 + rng.nextBelow(UINT32_MAX);
    add(ManifestChecksumLie, frameOf(lie.render(), a.payloads),
        Outcome::Rejected);
    return out;
}

/**
 * One control byte in each text field of @p a's manifest, restamped:
 * render() prints those fields with %s, which stops at a NUL, so a
 * folded one would reach the state log as text it cannot replay.
 */
std::vector<Mutant>
controlByteMutants(const Arrival &a, Rng &rng)
{
    static const char kControls[] = {'\0', '\r', '\t', '\x1b', '\x7f'};
    std::vector<Mutant> out;
    std::string text = a.manifest.render();
    for (std::string field : {"host=", "workload=", "profile=", "hosts="}) {
        size_t at = text.find("\n" + field);
        if (at == std::string::npos)
            continue; // A leaf has no hosts line.
        at += 1 + field.size();
        std::string bad = text;
        bad[at + rng.nextBelow(text.find('\n', at) - at)] =
            kControls[rng.nextBelow(sizeof(kControls))];
        out.push_back({ControlByte, frameOf(bad, a.payloads),
                       Outcome::Rejected});
    }
    return out;
}

int
connectTo(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    struct timeval tv = {10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
}

/** What the listener answered one connection. */
struct Answer
{
    bool closed = false;   ///< EOF or reset before any ack byte.
    bool timed_out = false;
    int code = -1;
    std::string reason;
};

bool
recvAll(int fd, char *data, size_t size, Answer *answer)
{
    size_t off = 0;
    while (off < size) {
        ssize_t n = ::recv(fd, data + off, size - off, 0);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            answer->timed_out = true;
        else
            answer->closed = off == 0;
        return false;
    }
    return true;
}

/** Send @p bytes on a fresh connection, hang up, read the answer. */
Answer
exchange(uint16_t port, const std::string &bytes)
{
    Answer answer;
    int fd = connectTo(port);
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            break; // The listener may hang up on a bad header early.
        off += static_cast<size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    char header[5];
    if (recvAll(fd, header, sizeof(header), &answer)) {
        uint32_t reason_len;
        std::memcpy(&reason_len, header + 1, 4);
        answer.code = header[0];
        answer.reason.assign(reason_len, '\0');
        if (reason_len > 0 &&
            !recvAll(fd, answer.reason.data(), reason_len, &answer))
            answer.code = -1;
    }
    ::close(fd);
    return answer;
}

constexpr int kAckShardAccepted = 1;
constexpr int kAckRejected = 3;

TEST(WireMutation, EveryMutantIsRejectedOrDropped)
{
    std::string state = ::testing::TempDir() + "/hbbp_wire_mutation.state";
    std::filesystem::remove(state);
    IncrementalAggregator agg;
    StateJournal journal(state);
    ShardListener listener(0);
    std::atomic<size_t> folds{0};
    std::atomic<bool> stop{false};
    ListenOptions lo;
    lo.idle_timeout_ms = -1;
    lo.on_accept = [&](const ShardManifest &m, const ProfileData &,
                       const std::vector<std::string> &payloads) {
        folds++;
        journal.record(agg, m, payloads);
    };
    lo.should_stop = [&] { return stop.load(); };
    std::thread serving([&] { listener.serve(agg, lo); });

    telemetry::Counter &dropped =
        telemetry::counter("hbbp_listener_dropped_connections_total");
    Rng rng(0x25'5eed);
    Arrival leaf = leafArrival(), flush = flushArrival();
    std::vector<Mutant> all = mutants(leaf, rng);
    for (Mutant &m : mutants(flush, rng))
        all.push_back(std::move(m));
    for (const Arrival *a : {&leaf, &flush})
        for (Mutant &m : controlByteMutants(*a, rng))
            all.push_back(std::move(m));
    size_t tried[kKinds] = {};
    for (size_t n = 0; n < all.size(); n++) {
        const Mutant &mu = all[n];
        SCOPED_TRACE(::testing::Message()
                     << "mutant " << n << " (" << kKindNames[mu.kind]
                     << ", " << mu.bytes.size() << " bytes)");
        tried[mu.kind]++;
        uint64_t warned = dropped.value();
        Answer got = exchange(listener.port(), mu.bytes);
        ASSERT_FALSE(got.timed_out) << "the listener never answered";
        bool rejected = got.code == kAckRejected && !got.reason.empty();
        // The warning's text is rate-limited; the counter beside it is
        // not, and moves exactly when the connection goes unanswered.
        bool dropped_with_warning =
            got.closed && dropped.value() - warned == 1;
        switch (mu.expect) {
        case Outcome::Rejected:
            EXPECT_TRUE(rejected) << "ack " << got.code << " '"
                                  << got.reason << "'";
            break;
        case Outcome::Closed:
            EXPECT_TRUE(dropped_with_warning)
                << "closed " << got.closed << ", ack " << got.code
                << ", warnings " << dropped.value() - warned;
            break;
        case Outcome::Either:
            EXPECT_TRUE(rejected || got.closed)
                << "ack " << got.code << " '" << got.reason << "'";
            break;
        }
        if (mu.kind == ChunkedMagic) {
            EXPECT_NE(got.reason.find("upgrade the sender"),
                      std::string::npos)
                << got.reason;
        }
        ASSERT_EQ(folds.load(), 0u) << "a mutant was folded";
    }
    for (int k = 0; k < kKinds; k++)
        EXPECT_GT(tried[k], 0u) << kKindNames[k];

    // The listener still serves: both valid frames fold.
    for (const Arrival *a : {&leaf, &flush}) {
        Answer got = exchange(listener.port(), frameOf(*a));
        EXPECT_EQ(got.code, kAckShardAccepted)
            << a->manifest.host << ": '" << got.reason << "'";
    }
    EXPECT_EQ(folds.load(), 2u);
    stop = true;
    serving.join();
    EXPECT_EQ(agg.stats().accepted, 2u);
    EXPECT_EQ(agg.stats().aggregates, 1u);
    EXPECT_EQ(agg.coveredShards(), 3u);

    // The state log holds the two arrivals, and only them.
    IncrementalAggregator restored;
    StateJournal replay(state);
    std::string why;
    ASSERT_TRUE(replay.restore(restored, &why)) << why;
    EXPECT_EQ(restored.restoredShards(), 2u);
    EXPECT_EQ(restored.aggregate().serialize(), agg.aggregate().serialize());
}

} // namespace
} // namespace hbbp
