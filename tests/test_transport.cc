/**
 * @file
 * Tests for the shard transport layer: the pluggable ShardTransport
 * interface (drop-directory and socket push), one frame per shard with
 * duplicate delivery, torn and rejected frames, the rejection of an
 * older build's chunked frames, sender retry and exhaustion, and
 * aggregator state persistence (the StateJournal arrival log, with the
 * resume-vs-fresh byte-identity guarantee).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fleet/aggregate.hh"
#include "fleet/journal.hh"
#include "fleet/manifest.hh"
#include "fleet/merge.hh"
#include "fleet/transport.hh"
#include "support/bytes.hh"
#include "support/rng.hh"
#include "tests/helpers.hh"
#include "tests/profile_v3.hh"

namespace fs = std::filesystem;

namespace hbbp {
namespace {

/** A fresh scratch directory under the test temp dir. */
std::string
freshDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "/hbbp_transport_" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

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
    pd.ebs.push_back({0x400000 + tag, tag, Ring::User});
    LbrStackSample stack;
    stack.entries = {{0x400100 + tag, 0x400200 + tag}};
    stack.cycle = tag;
    stack.eventing_ip = 0x400300 + tag;
    pd.lbr.push_back(stack);
    return pd;
}

/** N compatible parts of one shard, varied by @p base. */
std::vector<ProfileData>
makeParts(uint64_t base, size_t n)
{
    std::vector<ProfileData> parts;
    for (size_t i = 0; i < n; i++)
        parts.push_back(partProfile(base + i));
    return parts;
}

/** A shard as it is pushed: its manifest, payloads and their profile. */
struct PreparedShard
{
    ShardManifest manifest;
    std::vector<std::string> bytes;
    ProfileData merged;
};

/** The merge of @p parts as (host, seq)'s shard. */
PreparedShard
prepareShard(const std::vector<ProfileData> &parts,
             const std::string &host, uint32_t seq = 0)
{
    PreparedShard p;
    p.merged = mergeProfiles(parts);
    p.manifest.host = host;
    p.manifest.workload = "test40";
    p.manifest.seq = seq;
    p.manifest.options_hash = 0x1234;
    p.bytes = {p.merged.serialize(&p.manifest.checksum)};
    return p;
}

/**
 * A relay flush of @p partials, one per host h0, h1, ... (each covering
 * one leaf), as (relay, seq).
 */
PreparedShard
prepareFlush(const std::vector<ProfileData> &partials, uint32_t seq = 0)
{
    PreparedShard p;
    p.merged = mergeProfiles(partials);
    p.manifest.version = kManifestVersionAggregate;
    p.manifest.host = "relay1";
    p.manifest.workload = "test40";
    p.manifest.seq = seq;
    p.manifest.level = 1;
    p.manifest.checksum = p.merged.payloadChecksum();
    for (size_t i = 0; i < partials.size(); i++) {
        p.manifest.covered.push_back({"h" + std::to_string(i), 1});
        p.bytes.push_back(partials[i].serialize());
    }
    return p;
}

/** A listener served on a background thread. */
struct ListenerHarness
{
    IncrementalAggregator agg;
    ShardListener listener{0};
    std::thread thread;
    size_t served = 0;

    void
    start(ListenOptions options)
    {
        thread = std::thread(
            [this, options = std::move(options)]() mutable {
                served = listener.serve(agg, options);
            });
    }

    void
    join()
    {
        if (thread.joinable())
            thread.join();
    }

    ~ListenerHarness() { join(); }
};

SocketTransportOptions
fastOptions(uint16_t port, int attempts = 5)
{
    SocketTransportOptions so;
    so.port = port;
    so.max_attempts = attempts;
    so.backoff_ms = 10;
    so.max_backoff_ms = 50;
    so.io_timeout_ms = 10'000;
    return so;
}

// ---------------------------------------------------------------------------
// Raw wire access, for injecting the failures a well-behaved
// SocketTransport never produces. The encoding here mirrors the
// documented frame format — it doubles as the wire-contract test.
// ---------------------------------------------------------------------------

constexpr uint64_t kFrameMagic = 0x48425053'46524d32ULL;        // "HBPSFRM2"
constexpr uint64_t kChunkedFrameMagic = 0x48425053'46524d31ULL; // "HBPSFRM1"

/**
 * One frame: u64 magic, u64 body length, u64 body checksum, then the
 * envelope — u32 manifest length, the manifest, u32 payload count,
 * and per payload its u64 length and bytes. The checksum is FNV-1a
 * over the envelope with each payload cut to its 28-byte profile
 * header.
 */
std::string
rawFrame(const std::string &manifest_text,
         const std::vector<std::string> &payloads)
{
    ByteWriter body, covered;
    for (ByteWriter *w : {&body, &covered}) {
        w->u32(static_cast<uint32_t>(manifest_text.size()));
        w->raw(manifest_text.data(), manifest_text.size());
        w->u32(static_cast<uint32_t>(payloads.size()));
    }
    for (const std::string &payload : payloads) {
        body.u64(payload.size());
        body.raw(payload.data(), payload.size());
        covered.u64(payload.size());
        covered.raw(payload.data(), std::min<size_t>(payload.size(), 28));
    }
    ByteWriter frame;
    frame.u64(kFrameMagic);
    frame.u64(body.bytes().size());
    frame.u64(fnv1a(covered.bytes()));
    return frame.bytes() + body.bytes();
}

std::string
rawFrame(const PreparedShard &shard)
{
    return rawFrame(shard.manifest.render(), shard.bytes);
}

/**
 * A chunk frame of the protocol before HBPSFRM2: u64 magic, u32
 * manifest length, u32 chunk index, u32 chunk count, u64 payload
 * length, then the manifest and the payload.
 */
std::string
rawChunkedFrame(const std::string &manifest_text,
                const std::string &payload)
{
    ByteWriter w;
    w.u64(kChunkedFrameMagic);
    w.u32(static_cast<uint32_t>(manifest_text.size()));
    w.u32(0);
    w.u32(1);
    w.u64(payload.size());
    return w.bytes() + manifest_text + payload;
}

int
rawConnect(uint16_t port)
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
    return fd;
}

bool
rawSend(int fd, const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Read one ack; returns the code byte, or -1 on EOF/error. */
int
rawReadAck(int fd, std::string *reason = nullptr)
{
    char header[5];
    size_t off = 0;
    while (off < sizeof(header)) {
        ssize_t n = ::recv(fd, header + off, sizeof(header) - off, 0);
        if (n <= 0)
            return -1;
        off += static_cast<size_t>(n);
    }
    uint32_t reason_len;
    std::memcpy(&reason_len, header + 1, 4);
    std::string text(reason_len, '\0');
    off = 0;
    while (off < reason_len) {
        ssize_t n = ::recv(fd, text.data() + off, reason_len - off, 0);
        if (n <= 0)
            return -1;
        off += static_cast<size_t>(n);
    }
    if (reason)
        *reason = std::move(text);
    return header[0];
}

constexpr int kAckShardAccepted = 1;
constexpr int kAckDuplicate = 2;
constexpr int kAckRejected = 3;

// ---------------------------------------------------------------------------
// Drop-directory transport (the refactored PR-3 path).
// ---------------------------------------------------------------------------

TEST(DropDirTransport, DeliversShardsAnAggregatorCanImport)
{
    std::string dir = freshDir("dropdir");
    PreparedShard shard = prepareShard(makeParts(1, 1), "hostA");

    DropDirTransport transport(dir);
    SendResult res = transport.sendShard(shard.manifest, shard.bytes);
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_FALSE(res.duplicate);

    IncrementalAggregator agg;
    EXPECT_EQ(watchAndAggregate(agg, dir), 1u);
    EXPECT_EQ(agg.aggregate(), shard.merged);

    // Re-sending the same shard is an idempotent overwrite the
    // transport reports as a duplicate delivery.
    EXPECT_TRUE(transport.sendShard(shard.manifest, shard.bytes)
                    .duplicate);
}

TEST(DropDirTransport, RejectsChecksumDisagreement)
{
    std::string dir = freshDir("dropdir_bad_sum");
    PreparedShard shard = prepareShard(makeParts(1, 2), "hostA");
    shard.manifest.checksum ^= 1;

    SendResult res =
        DropDirTransport(dir).sendShard(shard.manifest, shard.bytes);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("manifest promises"), std::string::npos)
        << res.error;
    // Nothing half-published.
    IncrementalAggregator agg;
    EXPECT_EQ(watchAndAggregate(agg, dir), 0u);
}

// ---------------------------------------------------------------------------
// Socket transport: the happy paths.
// ---------------------------------------------------------------------------

TEST(SocketTransport, PushesACompleteShardInOneFrame)
{
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeParts(1, 1), "hostA");

    std::vector<std::pair<std::string, size_t>> accepts;
    ListenOptions lo;
    lo.expect = 1;
    lo.on_accept = [&](const ShardManifest &m, const ProfileData &pd,
                       const std::vector<std::string> &payloads) {
        // The transportable form rides along for journaling hooks: a
        // leaf shard arrives as its one serialized profile.
        EXPECT_EQ(payloads, shard.bytes);
        accepts.emplace_back(m.host, pd.ebs.size());
    };
    h.start(lo);

    SocketTransport transport(fastOptions(h.listener.port()));
    SendResult res = transport.sendShard(shard.manifest, shard.bytes);
    h.join();

    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_FALSE(res.duplicate);
    EXPECT_EQ(res.attempts, 1);
    EXPECT_EQ(h.served, 1u);
    EXPECT_EQ(h.agg.aggregate(), shard.merged);
    // The accept callback saw the shard's profile (the deposit and
    // checkpoint hook) before the sender's ack.
    ASSERT_EQ(accepts.size(), 1u);
    EXPECT_EQ(accepts[0].first, "hostA");
    EXPECT_EQ(accepts[0].second, shard.merged.ebs.size());
}

TEST(SocketTransport, ConcurrentSendersInterleaveSafely)
{
    ListenerHarness h;
    PreparedShard a = prepareShard(makeParts(30, 3), "hostA");
    PreparedShard b = prepareShard(makeParts(40, 2), "hostB");
    PreparedShard c = prepareShard(makeParts(50, 1), "hostC");

    ListenOptions lo;
    lo.expect = 3;
    h.start(lo);

    SendResult ra, rb, rc;
    uint16_t port = h.listener.port();
    std::thread ta([&] {
        SocketTransport t(fastOptions(port));
        ra = t.sendShard(a.manifest, a.bytes);
    });
    std::thread tb([&] {
        SocketTransport t(fastOptions(port));
        rb = t.sendShard(b.manifest, b.bytes);
    });
    std::thread tc([&] {
        SocketTransport t(fastOptions(port));
        rc = t.sendShard(c.manifest, c.bytes);
    });
    ta.join();
    tb.join();
    tc.join();
    h.join();

    EXPECT_TRUE(ra.ok) << ra.error;
    EXPECT_TRUE(rb.ok) << rb.error;
    EXPECT_TRUE(rc.ok) << rc.error;
    EXPECT_EQ(h.agg.stats().accepted, 3u);
    EXPECT_EQ(h.agg.aggregate(),
              mergeProfiles({a.merged, b.merged, c.merged}));
}

// ---------------------------------------------------------------------------
// Failure injection.
// ---------------------------------------------------------------------------

TEST(SocketTransport, DuplicateFrameDeliveryIsIdempotent)
{
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeParts(70, 3), "hostA");

    ListenOptions lo;
    lo.idle_timeout_ms = 300;
    h.start(lo);

    // The same frame twice (a retransmit after a lost ack): folded
    // once, then confirmed as a duplicate.
    int fd = rawConnect(h.listener.port());
    EXPECT_TRUE(rawSend(fd, rawFrame(shard)));
    EXPECT_EQ(rawReadAck(fd), kAckShardAccepted);
    EXPECT_TRUE(rawSend(fd, rawFrame(shard)));
    EXPECT_EQ(rawReadAck(fd), kAckDuplicate);
    ::close(fd);
    h.join();

    EXPECT_EQ(h.served, 1u);
    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.stats().duplicates, 1u);
    EXPECT_EQ(h.agg.aggregate(), shard.merged);
}

TEST(SocketTransport, DroppedConnectionMidPayloadLeavesListenerServing)
{
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeParts(80, 1), "hostA");

    ListenOptions lo;
    lo.expect = 1;
    h.start(lo);

    // A sender dies mid-frame: half the bytes, then EOF. The listener
    // must discard the torso and keep serving.
    std::string frame = rawFrame(shard);
    int fd = rawConnect(h.listener.port());
    EXPECT_TRUE(rawSend(fd, frame.substr(0, frame.size() / 2)));
    ::close(fd);

    SocketTransport transport(fastOptions(h.listener.port()));
    SendResult res = transport.sendShard(shard.manifest, shard.bytes);
    h.join();

    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.aggregate(), shard.merged);
}

TEST(SocketTransport, FinalFrameDeliveredBeforeEofIsStillFolded)
{
    // A sender that transmits its complete final frame and dies
    // without reading the ack delivered real data: the frame and the
    // EOF usually land in the same poll round, and the frame must be
    // folded before the EOF closes the connection.
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeParts(85, 1), "hostA");

    ListenOptions lo;
    lo.expect = 1;
    h.start(lo);

    int fd = rawConnect(h.listener.port());
    EXPECT_TRUE(rawSend(fd, rawFrame(shard)));
    ::close(fd); // Die before reading the ack.
    h.join();

    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.aggregate(), shard.merged);
}

TEST(SocketTransport, RetryExhaustionFailsWithDiagnostic)
{
    // Find a port with no listener: bind one, read it back, close it.
    uint16_t dead_port;
    {
        ShardListener probe(0);
        dead_port = probe.port();
    }

    PreparedShard shard = prepareShard(makeParts(100, 1), "hostA");
    SocketTransport transport(fastOptions(dead_port, /*attempts=*/3));
    SendResult res = transport.sendShard(shard.manifest, shard.bytes);

    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.attempts, 3);
    EXPECT_NE(res.error.find("giving up after 3 attempts"),
              std::string::npos)
        << res.error;
}

TEST(SocketTransport, RejectionIsPermanentAndDoesNotRetry)
{
    ListenerHarness h;
    PreparedShard first = prepareShard(makeParts(110, 1), "hostA");
    // Incompatible follow-up: different sampling periods.
    ProfileData bad = partProfile(111);
    bad.sim_periods.ebs = 997;
    PreparedShard second = prepareShard({bad}, "hostB");

    ListenOptions lo;
    lo.expect = 2;
    lo.idle_timeout_ms = 500;
    h.start(lo);

    uint16_t port = h.listener.port();
    SocketTransport t1(fastOptions(port));
    EXPECT_TRUE(t1.sendShard(first.manifest, first.bytes).ok);

    SocketTransport t2(fastOptions(port));
    SendResult res = t2.sendShard(second.manifest, second.bytes);
    h.join();

    EXPECT_FALSE(res.ok);
    // One attempt: retrying an incompatibility cannot succeed.
    EXPECT_EQ(res.attempts, 1);
    EXPECT_NE(res.error.find("rejected"), std::string::npos)
        << res.error;
    EXPECT_NE(res.error.find("sampling periods"), std::string::npos)
        << res.error;
    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.stats().incompatible, 1u);
}

TEST(SocketTransport, DuplicateShardDeliveryIsReportedAsDuplicate)
{
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeParts(120, 2), "hostA");

    ListenOptions lo;
    lo.expect = 1;
    h.start(lo);
    SocketTransport t1(fastOptions(h.listener.port()));
    EXPECT_TRUE(t1.sendShard(shard.manifest, shard.bytes).ok);
    h.join();

    // Second delivery of the same payload (claiming another host):
    // detected by checksum, confirmed to the sender as a duplicate so
    // its retry loop ends successfully.
    ListenOptions lo2;
    lo2.idle_timeout_ms = 300;
    std::thread second_serve(
        [&] { h.listener.serve(h.agg, lo2); });
    PreparedShard dup = shard;
    dup.manifest.host = "hostZ";
    SocketTransport t2(fastOptions(h.listener.port()));
    SendResult res = t2.sendShard(dup.manifest, dup.bytes);
    second_serve.join();

    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.duplicate);
    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.stats().duplicates, 1u);
    EXPECT_EQ(h.agg.aggregate(), shard.merged);
}

TEST(SocketTransport, SeqSlotConflictIsARejectionNotADuplicate)
{
    // Two different collections claiming the same (host, seq) slot:
    // the second one's data is DROPPED, so its sender must see a loud
    // rejection — acking it as a duplicate would report silent data
    // loss as success.
    ListenerHarness h;
    PreparedShard first = prepareShard(makeParts(150, 1), "hostA", 0);
    PreparedShard second = prepareShard(makeParts(151, 1), "hostA", 0);

    ListenOptions lo;
    lo.expect = 2;
    lo.idle_timeout_ms = 500;
    h.start(lo);

    uint16_t port = h.listener.port();
    SocketTransport t1(fastOptions(port));
    ASSERT_TRUE(t1.sendShard(first.manifest, first.bytes).ok);
    SocketTransport t2(fastOptions(port));
    SendResult res = t2.sendShard(second.manifest, second.bytes);
    h.join();

    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.duplicate);
    EXPECT_EQ(res.attempts, 1);
    EXPECT_NE(res.error.find("already delivered"), std::string::npos)
        << res.error;
    EXPECT_EQ(h.agg.stats().accepted, 1u);
}

TEST(SocketTransport, StructurallyCorruptChunkBehindValidChecksumIsRejected)
{
    // A peer controls both the payload and its checksum, so a
    // self-consistent checksum proves nothing: a frame whose body is
    // structural garbage must earn a rejection, never take the
    // listener down.
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeParts(160, 1), "hostA");
    std::string &bytes = shard.bytes[0];
    // Overwrite the whole payload with 0xFF (an implausible record
    // count at best) and restamp the header checksum to match.
    for (size_t i = 28; i < bytes.size(); i++)
        bytes[i] = static_cast<char>(0xFF);
    uint64_t checksum = fnv1a(bytes.substr(28));
    std::memcpy(bytes.data() + 20, &checksum, sizeof(checksum));

    ListenOptions lo;
    lo.expect = 1;
    h.start(lo);

    SocketTransport t1(fastOptions(h.listener.port()));
    SendResult res = t1.sendShard(shard.manifest, shard.bytes);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("payload invalid"), std::string::npos)
        << res.error;

    // The listener survived and still accepts good shards.
    PreparedShard good = prepareShard(makeParts(161, 1), "hostB");
    SocketTransport t2(fastOptions(h.listener.port()));
    EXPECT_TRUE(t2.sendShard(good.manifest, good.bytes).ok);
    h.join();
    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.stats().malformed, 1u);
}

TEST(SocketTransport, ConflictingModulesBetweenLaterChunksAreRejected)
{
    // A relay flush whose partials conflict over module records that
    // partial 0 does not know: the conflict must be caught when the
    // listener merges the partials to check the manifest — against the
    // accumulated map, not just partial 0 — and earn a rejection
    // instead of fatal()ing the listener inside mergeInto(). Two names
    // over one address range conflict as much as one name placed
    // twice.
    struct Case
    {
        const char *what;
        MmapRecord in_p1, in_p2;
        const char *expect;
    };
    const Case cases[] = {
        {"one name, two placements",
         {"extra.so", 0x700000, 0x1000, false},
         {"extra.so", 0x800000, 0x1000, false},
         "module 'extra.so' mapped at"},
        {"two names, overlapping ranges",
         {"a.so", 0x700000, 0x1000, false},
         {"b.so", 0x700800, 0x1000, false},
         "modules 'a.so' (0x700000+0x1000) and 'b.so'"},
    };
    for (const Case &c : cases) {
        ListenerHarness h;
        ProfileData p0 = partProfile(170);
        ProfileData p1 = partProfile(171);
        p1.mmaps.push_back(c.in_p1);
        ProfileData p2 = partProfile(172);
        p2.mmaps.push_back(c.in_p2);

        PreparedShard flush = prepareFlush({p0, p1});
        flush.manifest.covered.push_back({"h2", 1});
        flush.bytes.push_back(p2.serialize());
        flush.manifest.checksum = 0; // Never reached: the merge fails.

        ListenOptions lo;
        lo.expect = 1;
        lo.idle_timeout_ms = 500;
        h.start(lo);

        SocketTransport transport(fastOptions(h.listener.port()));
        SendResult res = transport.sendShard(flush.manifest, flush.bytes);
        h.join();

        EXPECT_FALSE(res.ok) << c.what;
        EXPECT_EQ(res.attempts, 1) << c.what;
        EXPECT_NE(res.error.find(c.expect), std::string::npos)
            << c.what << ": " << res.error;
        EXPECT_EQ(h.agg.stats().accepted, 0u) << c.what;
        EXPECT_EQ(h.agg.stats().malformed, 1u) << c.what;
    }
}

TEST(SocketTransport, CorruptChunkPayloadIsRejected)
{
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeParts(130, 1), "hostA");
    shard.bytes[0][shard.bytes[0].size() - 3] ^= 0x40;

    ListenOptions lo;
    lo.expect = 1;
    lo.idle_timeout_ms = 300;
    h.start(lo);

    SocketTransport transport(fastOptions(h.listener.port()));
    SendResult res = transport.sendShard(shard.manifest, shard.bytes);
    h.join();

    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("payload invalid"), std::string::npos)
        << res.error;
    EXPECT_EQ(h.agg.stats().accepted, 0u);
    EXPECT_EQ(h.agg.stats().malformed, 1u);
}

/** Push @p shard at a fresh listener and return the sender's result. */
SendResult
pushToFreshListener(const PreparedShard &shard, ListenerHarness &h,
                    ListenOptions lo = {})
{
    lo.expect = 1;
    lo.idle_timeout_ms = 300;
    h.start(lo);
    SocketTransport transport(fastOptions(h.listener.port()));
    SendResult res = transport.sendShard(shard.manifest, shard.bytes);
    h.join();
    return res;
}

TEST(SocketTransport, ManifestChecksumMismatchIsRejected)
{
    // The manifest's checksum names the shard: a leaf's one payload,
    // which its own header proves, or a flush's merged partials. A
    // manifest that disagrees either way is a permanent rejection that
    // reaches neither the fold nor on_accept.
    const PreparedShard shards[] = {
        prepareShard(makeParts(140, 1), "hostA"),
        prepareFlush(makeParts(145, 2)),
    };
    for (PreparedShard shard : shards) {
        SCOPED_TRACE(shard.manifest.host);
        ListenerHarness h;
        shard.manifest.checksum ^= 1;
        size_t accepts = 0;
        ListenOptions lo;
        lo.on_accept = [&](const ShardManifest &, const ProfileData &,
                           const std::vector<std::string> &) {
            accepts++;
        };
        SendResult res = pushToFreshListener(shard, h, lo);
        EXPECT_FALSE(res.ok);
        EXPECT_EQ(res.attempts, 1);
        EXPECT_NE(res.error.find("manifest promises"), std::string::npos)
            << res.error;
        EXPECT_EQ(h.agg.stats().accepted, 0u);
        EXPECT_EQ(h.agg.stats().malformed, 1u);
        EXPECT_EQ(accepts, 0u);
    }
}

TEST(SocketTransport, SingleChunkPushFromAVersion3SenderIsAccepted)
{
    // A build that still writes version 3 stamps its manifest with the
    // version-3 payload checksum. A leaf's one payload is held to the
    // checksum the listener's parse verifies on it, so the shard
    // folds, and on_accept gets the sender's bytes verbatim — stores
    // and journals read version 3.
    ListenerHarness h;
    ProfileData pd = partProfile(160);
    PreparedShard shard = prepareShard({pd}, "hostA");
    shard.bytes = {testutil::encodeProfileV3(pd, &shard.manifest.checksum)};
    std::vector<std::string> accepted;
    ListenOptions lo;
    lo.on_accept = [&](const ShardManifest &, const ProfileData &,
                       const std::vector<std::string> &payloads) {
        accepted = payloads;
    };
    SendResult res = pushToFreshListener(shard, h, lo);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(h.agg.aggregate(), pd);
    EXPECT_TRUE(h.agg.hasChecksum(shard.manifest.checksum));
    ASSERT_EQ(accepted.size(), 1u);
    EXPECT_EQ(accepted[0], shard.bytes[0]);
}

TEST(SocketTransport, ChunkedFrameFromAnOlderSenderIsRejected)
{
    // A sender from before one-frame shards opens with HBPSFRM1: it
    // gets a rejection in the ack layout it reads, naming the upgrade,
    // and the listener keeps serving.
    ListenerHarness h;
    PreparedShard old_shard = prepareShard(makeParts(175, 1), "hostA");
    PreparedShard good = prepareShard(makeParts(176, 1), "hostB");
    ListenOptions lo;
    lo.expect = 1;
    lo.idle_timeout_ms = 10'000;
    h.start(lo);

    int fd = rawConnect(h.listener.port());
    EXPECT_TRUE(rawSend(fd, rawChunkedFrame(old_shard.manifest.render(),
                                            old_shard.bytes[0])));
    std::string reason;
    EXPECT_EQ(rawReadAck(fd, &reason), kAckRejected);
    EXPECT_NE(reason.find("HBPSFRM1"), std::string::npos) << reason;
    EXPECT_NE(reason.find("upgrade the sender"), std::string::npos)
        << reason;
    ::close(fd);

    SocketTransport transport(fastOptions(h.listener.port()));
    SendResult res = transport.sendShard(good.manifest, good.bytes);
    h.join();
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.stats().malformed, 1u);
    EXPECT_EQ(h.agg.aggregate(), good.merged);
}

TEST(ShardListenerTest, IdleTimeoutExpiresWithoutSenders)
{
    ListenerHarness h;
    ListenOptions lo;
    lo.expect = 1;
    lo.idle_timeout_ms = 200;
    auto start = std::chrono::steady_clock::now();
    h.start(lo);
    h.join();
    auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(h.served, 0u);
    EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(
                  elapsed)
                  .count(),
              200);
}

TEST(ShardListenerTest, ExpectCountsShardsAlreadyAggregated)
{
    // serve() with expect already satisfied (a restarted aggregator
    // whose restored state covers the fleet) returns immediately.
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeParts(140, 1), "hostA");
    ASSERT_TRUE(h.agg.addShard(shard.manifest, shard.merged));
    ListenOptions lo;
    lo.expect = 1;
    lo.idle_timeout_ms = 10'000;
    h.start(lo);
    h.join();
    EXPECT_EQ(h.served, 0u);
}

// ---------------------------------------------------------------------------
// Aggregator state persistence: the StateJournal arrival log.
// ---------------------------------------------------------------------------

/** Fold the leaf shard @p s in and log it, as a node would. */
void
acceptLogged(IncrementalAggregator &agg, StateJournal &journal,
             const PreparedShard &s)
{
    ASSERT_TRUE(agg.addShard(s.manifest, s.merged));
    // Every arrival names its profile file (a socket frame synthesizes
    // one), which the manifest format requires.
    ShardManifest m = s.manifest;
    m.profile_file = m.host + ".hbbp";
    journal.record(agg, m, s.bytes);
}

/** A fresh aggregator restored from the log at @p state. */
void
restoreFrom(const std::string &state, IncrementalAggregator &agg)
{
    StateJournal journal(state);
    std::string why;
    ASSERT_TRUE(journal.restore(agg, &why)) << why;
}

TEST(AggregatorState, ResumeIsByteIdenticalToAFreshRun)
{
    std::string dir = freshDir("state_identity");
    std::string state = dir + "/agg.state";

    ProfileData a = partProfile(1), b = partProfile(2),
                c = partProfile(3);
    PreparedShard sa = prepareShard({a}, "hostA");
    PreparedShard sb = prepareShard({b}, "hostB");
    PreparedShard sc = prepareShard({c}, "hostC");

    // The interrupted run: two shards land in the log.
    {
        IncrementalAggregator before;
        StateJournal journal(state);
        acceptLogged(before, journal, sa);
        acceptLogged(before, journal, sb);
    }

    // The restarted run folds the rest.
    IncrementalAggregator resumed;
    restoreFrom(state, resumed);
    EXPECT_EQ(resumed.restoredShards(), 2u);
    EXPECT_EQ(resumed.hostCount(), 2u);
    ASSERT_TRUE(resumed.addShard(sc.manifest, c));

    // The uninterrupted reference run.
    IncrementalAggregator fresh;
    ASSERT_TRUE(fresh.addShard(sa.manifest, a));
    ASSERT_TRUE(fresh.addShard(sb.manifest, b));
    ASSERT_TRUE(fresh.addShard(sc.manifest, c));

    EXPECT_EQ(resumed.aggregate().serialize(),
              fresh.aggregate().serialize());
    EXPECT_EQ(resumed.stats().accepted, 3u);
}

TEST(AggregatorState, PendingOutOfOrderShardsSurviveRestarts)
{
    std::string dir = freshDir("state_pending");
    std::string state = dir + "/agg.state";

    ProfileData s0 = partProfile(10), s1 = partProfile(11),
                s2 = partProfile(12);
    PreparedShard m0 = prepareShard({s0}, "hostA", 0);
    PreparedShard m1 = prepareShard({s1}, "hostA", 1);
    PreparedShard m2 = prepareShard({s2}, "hostA", 2);

    // Seq 0 and 2 arrive (2 parks in the pending map), then a restart.
    {
        IncrementalAggregator before;
        StateJournal journal(state);
        acceptLogged(before, journal, m0);
        acceptLogged(before, journal, m2);
    }

    IncrementalAggregator resumed;
    restoreFrom(state, resumed);
    EXPECT_EQ(resumed.hostProgress()[0].pending, 1u);
    ASSERT_TRUE(resumed.addShard(m1.manifest, s1));
    EXPECT_EQ(resumed.aggregate(), mergeProfiles({s0, s1, s2}));
}

TEST(AggregatorState, RestoredDuplicateDetectionStillRejects)
{
    std::string dir = freshDir("state_dedup");
    std::string state = dir + "/agg.state";

    PreparedShard sa = prepareShard({partProfile(20)}, "hostA");
    {
        IncrementalAggregator before;
        StateJournal journal(state);
        acceptLogged(before, journal, sa);
    }

    IncrementalAggregator resumed;
    restoreFrom(state, resumed);
    std::string why;
    PreparedShard dup = sa;
    dup.manifest.host = "hostZ";
    EXPECT_FALSE(resumed.addShard(dup.manifest, sa.merged, &why));
    EXPECT_NE(why.find("duplicate shard"), std::string::npos) << why;
    // Rejections count per process: the replay itself rejected none.
    EXPECT_EQ(resumed.stats().duplicates, 1u);
}

TEST(AggregatorState, RestoredCompatibilityGateStillRejects)
{
    std::string dir = freshDir("state_compat");
    std::string state = dir + "/agg.state";

    PreparedShard sa = prepareShard({partProfile(30)}, "hostA");
    {
        IncrementalAggregator before;
        StateJournal journal(state);
        acceptLogged(before, journal, sa);
    }

    IncrementalAggregator resumed;
    restoreFrom(state, resumed);
    ProfileData bad = partProfile(31);
    bad.sim_periods.ebs = 997;
    PreparedShard sb = prepareShard({bad}, "hostB");
    std::string why;
    EXPECT_FALSE(resumed.addShard(sb.manifest, bad, &why));
    EXPECT_NE(why.find("sampling periods"), std::string::npos) << why;

    ShardManifest other = sb.manifest;
    other.workload = "kernelbench";
    other.checksum ^= 2;
    EXPECT_FALSE(resumed.addShard(other, partProfile(32), &why));
    EXPECT_NE(why.find("workload"), std::string::npos) << why;
}

TEST(AggregatorState, MissingFileIsAColdStart)
{
    IncrementalAggregator agg;
    std::string why;
    StateJournal missing("/nonexistent/agg.state");
    EXPECT_FALSE(missing.restore(agg, &why));
    EXPECT_NE(why.find("cannot open"), std::string::npos) << why;
    EXPECT_EQ(agg.restoredShards(), 0u);

    // A directory where the state file should be is no state either
    // (it opens, and then claims a size no read can satisfy).
    std::string dir = freshDir("state_is_a_dir");
    StateJournal directory(dir);
    EXPECT_FALSE(directory.restore(agg, &why));
    EXPECT_NE(why.find("not a regular file"), std::string::npos) << why;
    EXPECT_EQ(agg.restoredShards(), 0u);
}

TEST(AggregatorState, CorruptOrForeignFilesAreRefused)
{
    std::string dir = freshDir("state_corrupt");
    std::string state = dir + "/agg.state";
    ProfileData a = partProfile(40);
    PreparedShard sa = prepareShard({a}, "hostA");
    std::string intact;
    {
        IncrementalAggregator before;
        StateJournal journal(state);
        acceptLogged(before, journal, sa);
        intact = testutil::readFile(state);
    }
    // Every refusal is a cold start that cuts the file back to its
    // intact prefix (here: nothing), never a crash.
    auto refused = [&](const std::string &bytes, const char *needle) {
        testutil::writeFile(state, bytes);
        IncrementalAggregator agg;
        StateJournal journal(state);
        std::string why;
        EXPECT_FALSE(journal.restore(agg, &why));
        EXPECT_NE(why.find(needle), std::string::npos) << why;
        EXPECT_EQ(agg.restoredShards(), 0u);
        EXPECT_EQ(testutil::readFile(state), "");
    };

    // Flip a manifest byte: the record checksum must catch it. A byte
    // of the logged profile's payload: that profile's own checksum.
    std::string bytes = intact;
    bytes[40] ^= 0x40;
    refused(bytes, "checksum failure");
    bytes = intact;
    bytes[bytes.size() - 3] ^= 0x40;
    refused(bytes, "payload checksum mismatch");
    // Truncation mid-record.
    refused(intact.substr(0, 40), "torn record");
    // A profile is not a state log.
    refused(sa.bytes[0], "bad record magic");
    // A whole-aggregate checkpoint from an older build is not read.
    bytes = intact;
    uint64_t old_magic = 0x48424250'41474753ULL; // "HBBPAGGS"
    std::memcpy(bytes.data(), &old_magic, sizeof(old_magic));
    refused(bytes, "older build");

    // Structural garbage behind a self-consistent checksum (a crafted
    // file): still a cold start, never a crash. The record checksum
    // covers the manifest, the payload count and each payload's length
    // and 28-byte profile header.
    std::string garbage(40, '\xff');
    ByteWriter body, covered;
    body.str(garbage);
    covered.str(garbage);
    body.u32(1);
    covered.u32(1);
    body.u64(sa.bytes[0].size());
    body.raw(sa.bytes[0].data(), sa.bytes[0].size());
    covered.u64(sa.bytes[0].size());
    covered.raw(sa.bytes[0].data(), 28);
    ByteWriter frame;
    frame.raw(intact.data(), 8); // The arrival record magic.
    frame.u64(0);
    frame.u64(body.bytes().size());
    frame.u64(fnv1a(covered.bytes()));
    refused(frame.bytes() + body.bytes(), "does not replay");
}

TEST(AggregatorState, StatePersistsThroughTheListener)
{
    // The end-to-end restart story in-process: serve, log per accept,
    // "crash", restore, serve the rest, byte-identical result.
    std::string dir = freshDir("state_listener");
    std::string state = dir + "/agg.state";
    PreparedShard sa = prepareShard(makeParts(50, 2), "hostA");
    PreparedShard sb = prepareShard(makeParts(55, 1), "hostB");

    {
        ListenerHarness h;
        StateJournal journal(state);
        ListenOptions lo;
        lo.expect = 1;
        lo.on_accept = [&](const ShardManifest &m, const ProfileData &,
                           const std::vector<std::string> &payloads) {
            journal.record(h.agg, m, payloads);
        };
        h.start(lo);
        SocketTransport t(fastOptions(h.listener.port()));
        ASSERT_TRUE(t.sendShard(sa.manifest, sa.bytes).ok);
        h.join();
    } // The first aggregator process "dies" here.

    ListenerHarness h2;
    restoreFrom(state, h2.agg);
    EXPECT_EQ(h2.agg.restoredShards(), 1u);
    ListenOptions lo2;
    lo2.expect = 2; // Counts the restored shard.
    h2.start(lo2);
    SocketTransport t(fastOptions(h2.listener.port()));
    ASSERT_TRUE(t.sendShard(sb.manifest, sb.bytes).ok);
    h2.join();

    IncrementalAggregator fresh;
    ASSERT_TRUE(fresh.addShard(sa.manifest, sa.merged));
    ASSERT_TRUE(fresh.addShard(sb.manifest, sb.merged));
    EXPECT_EQ(h2.agg.aggregate().serialize(),
              fresh.aggregate().serialize());
}

TEST(AggregatorState, NulInAManifestFieldIsRejectedBeforeTheLog)
{
    // A manifest renders its text fields with %s, which stops at a
    // NUL: folded and logged, such a frame would leave a record that
    // does not parse back, and record() fatal()s on one. The listener
    // must reject the frame with a reason, and keep serving and
    // logging.
    std::string dir = freshDir("state_nul");
    std::string state = dir + "/agg.state";
    PreparedShard good = prepareShard(makeParts(185, 1), "hostB");
    {
        ListenerHarness h;
        StateJournal journal(state);
        ListenOptions lo;
        lo.expect = 1;
        lo.idle_timeout_ms = 10'000;
        lo.on_accept = [&](const ShardManifest &m, const ProfileData &,
                           const std::vector<std::string> &payloads) {
            journal.record(h.agg, m, payloads);
        };
        h.start(lo);
        for (std::string field : {"host=", "workload=", "profile="}) {
            SCOPED_TRACE(field);
            PreparedShard bad = prepareShard(makeParts(180, 1), "hostA");
            std::string text = bad.manifest.render();
            size_t at = text.find("\n" + field);
            ASSERT_NE(at, std::string::npos);
            at += 1 + field.size();
            text.replace(at, text.find('\n', at) - at, 1, '\0');
            int fd = rawConnect(h.listener.port());
            EXPECT_TRUE(rawSend(fd, rawFrame(text, bad.bytes)));
            std::string reason;
            EXPECT_EQ(rawReadAck(fd, &reason), kAckRejected);
            EXPECT_NE(reason.find("control byte 0x00"), std::string::npos)
                << reason;
            ::close(fd);
        }
        SocketTransport t(fastOptions(h.listener.port()));
        SendResult res = t.sendShard(good.manifest, good.bytes);
        h.join();
        EXPECT_TRUE(res.ok) << res.error;
        EXPECT_EQ(h.agg.stats().accepted, 1u);
        EXPECT_EQ(h.agg.stats().malformed, 3u);
    }

    IncrementalAggregator restored;
    restoreFrom(state, restored);
    EXPECT_EQ(restored.restoredShards(), 1u);
    EXPECT_EQ(restored.aggregate(), good.merged);
}

} // namespace
} // namespace hbbp
