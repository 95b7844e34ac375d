/**
 * @file
 * Tests for the shard transport layer: the pluggable ShardTransport
 * interface (drop-directory and socket push), partial-chunk streaming
 * with out-of-order and duplicate frame delivery, sender retry/resume
 * and exhaustion, and aggregator state persistence (save/restore with
 * the resume-vs-fresh byte-identity guarantee).
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
chunkProfile(uint64_t tag)
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

/** N compatible chunks for one shard, varied by @p base. */
std::vector<ProfileData>
makeChunks(uint64_t base, size_t n)
{
    std::vector<ProfileData> chunks;
    for (size_t i = 0; i < n; i++)
        chunks.push_back(chunkProfile(base + i));
    return chunks;
}

/** Manifest + serialized chunk bytes for @p chunks as (host, seq). */
struct PreparedShard
{
    ShardManifest manifest;
    std::vector<std::string> bytes;
    ProfileData merged;
};

PreparedShard
prepareShard(const std::vector<ProfileData> &chunks,
             const std::string &host, uint32_t seq = 0)
{
    PreparedShard p;
    p.merged = mergeProfiles(chunks);
    p.manifest.host = host;
    p.manifest.workload = "test40";
    p.manifest.seq = seq;
    p.manifest.options_hash = 0x1234;
    p.manifest.checksum = p.merged.payloadChecksum();
    for (const ProfileData &c : chunks)
        p.bytes.push_back(c.serialize());
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

constexpr uint64_t kFrameMagic = 0x48425053'46524d31ULL; // "HBPSFRM1"

std::string
rawFrame(const ShardManifest &manifest, uint32_t chunk_index,
         uint32_t chunk_count, const std::string &payload)
{
    ShardManifest framed = manifest;
    framed.status = chunk_index + 1 < chunk_count
                        ? ShardStatus::Partial
                        : ShardStatus::Complete;
    if (framed.profile_file.empty())
        framed.profile_file = "via-socket.hbbp";
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
rawReadAck(int fd)
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
    std::string reason(reason_len, '\0');
    off = 0;
    while (off < reason_len) {
        ssize_t n =
            ::recv(fd, reason.data() + off, reason_len - off, 0);
        if (n <= 0)
            return -1;
        off += static_cast<size_t>(n);
    }
    return header[0];
}

constexpr int kAckChunkAccepted = 0;
constexpr int kAckShardAccepted = 1;
constexpr int kAckDuplicate = 2;
constexpr int kAckRejected = 3;

// ---------------------------------------------------------------------------
// Drop-directory transport (the refactored PR-3 path).
// ---------------------------------------------------------------------------

TEST(DropDirTransport, DeliversShardsAnAggregatorCanImport)
{
    std::string dir = freshDir("dropdir");
    PreparedShard shard = prepareShard(makeChunks(1, 1), "hostA");

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

TEST(DropDirTransport, AssemblesChunkedShardsBeforePublishing)
{
    // A directory has no streaming: a chunked send must publish one
    // complete profile whose bytes match the merged chunks.
    std::string dir = freshDir("dropdir_chunks");
    PreparedShard shard = prepareShard(makeChunks(10, 3), "hostA");

    SendResult res =
        DropDirTransport(dir).sendShard(shard.manifest, shard.bytes);
    EXPECT_TRUE(res.ok) << res.error;

    IncrementalAggregator agg;
    EXPECT_EQ(watchAndAggregate(agg, dir), 1u);
    EXPECT_EQ(agg.aggregate(), shard.merged);
}

TEST(DropDirTransport, RejectsChecksumDisagreement)
{
    std::string dir = freshDir("dropdir_bad_sum");
    PreparedShard shard = prepareShard(makeChunks(1, 2), "hostA");
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
    PreparedShard shard = prepareShard(makeChunks(1, 1), "hostA");

    std::vector<std::pair<std::string, size_t>> accepts;
    ListenOptions lo;
    lo.expect = 1;
    lo.on_accept = [&](const ShardManifest &m, const ProfileData &pd,
                       const std::vector<std::string> &chunks) {
        // The transportable form rides along for journaling hooks: a
        // leaf shard arrives as one assembled serialized profile.
        EXPECT_EQ(chunks.size(), 1u);
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
    // The accept callback saw the assembled profile (the deposit and
    // checkpoint hook) before the sender's ack.
    ASSERT_EQ(accepts.size(), 1u);
    EXPECT_EQ(accepts[0].first, "hostA");
    EXPECT_EQ(accepts[0].second, shard.merged.ebs.size());
}

TEST(SocketTransport, StreamsPartialChunksAndFinalizes)
{
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeChunks(20, 4), "hostA");

    ListenOptions lo;
    lo.expect = 1;
    h.start(lo);

    SocketTransport transport(fastOptions(h.listener.port()));
    SendResult res = transport.sendShard(shard.manifest, shard.bytes);
    h.join();

    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.aggregate(), shard.merged);
}

TEST(SocketTransport, ConcurrentSendersInterleaveSafely)
{
    ListenerHarness h;
    PreparedShard a = prepareShard(makeChunks(30, 3), "hostA");
    PreparedShard b = prepareShard(makeChunks(40, 2), "hostB");
    PreparedShard c = prepareShard(makeChunks(50, 1), "hostC");

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

TEST(SocketTransport, OutOfOrderPartialFramesAssembleCanonically)
{
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeChunks(60, 3), "hostA");

    ListenOptions lo;
    lo.expect = 1;
    h.start(lo);

    // Deliver 1, then 0, then the final 2: staging is keyed by chunk
    // index, so arrival order must not matter.
    int fd = rawConnect(h.listener.port());
    EXPECT_TRUE(rawSend(fd, rawFrame(shard.manifest, 1, 3,
                                     shard.bytes[1])));
    EXPECT_EQ(rawReadAck(fd), kAckChunkAccepted);
    EXPECT_TRUE(rawSend(fd, rawFrame(shard.manifest, 0, 3,
                                     shard.bytes[0])));
    EXPECT_EQ(rawReadAck(fd), kAckChunkAccepted);
    EXPECT_TRUE(rawSend(fd, rawFrame(shard.manifest, 2, 3,
                                     shard.bytes[2])));
    EXPECT_EQ(rawReadAck(fd), kAckShardAccepted);
    ::close(fd);
    h.join();

    EXPECT_EQ(h.agg.aggregate(), shard.merged);
}

TEST(SocketTransport, DuplicateFrameDeliveryIsIdempotent)
{
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeChunks(70, 3), "hostA");

    ListenOptions lo;
    lo.expect = 1;
    h.start(lo);

    int fd = rawConnect(h.listener.port());
    // Chunk 0 delivered twice (a retransmit): both confirmed, staged
    // once.
    for (int round = 0; round < 2; round++) {
        EXPECT_TRUE(rawSend(fd, rawFrame(shard.manifest, 0, 3,
                                         shard.bytes[0])));
        EXPECT_EQ(rawReadAck(fd), kAckChunkAccepted);
    }
    EXPECT_TRUE(rawSend(fd, rawFrame(shard.manifest, 1, 3,
                                     shard.bytes[1])));
    EXPECT_EQ(rawReadAck(fd), kAckChunkAccepted);
    EXPECT_TRUE(rawSend(fd, rawFrame(shard.manifest, 2, 3,
                                     shard.bytes[2])));
    EXPECT_EQ(rawReadAck(fd), kAckShardAccepted);
    ::close(fd);
    h.join();

    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.aggregate(), shard.merged);
}

TEST(SocketTransport, DroppedConnectionMidPayloadLeavesListenerServing)
{
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeChunks(80, 1), "hostA");

    ListenOptions lo;
    lo.expect = 1;
    h.start(lo);

    // A sender dies mid-frame: half the bytes, then EOF. The listener
    // must discard the torso and keep serving.
    std::string frame =
        rawFrame(shard.manifest, 0, 1, shard.bytes[0]);
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
    PreparedShard shard = prepareShard(makeChunks(85, 1), "hostA");

    ListenOptions lo;
    lo.expect = 1;
    h.start(lo);

    int fd = rawConnect(h.listener.port());
    EXPECT_TRUE(rawSend(fd, rawFrame(shard.manifest, 0, 1,
                                     shard.bytes[0])));
    ::close(fd); // Die before reading the ack.
    h.join();

    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.aggregate(), shard.merged);
}

TEST(SocketTransport, CrashedChunkedSenderResumesViaFullRetry)
{
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeChunks(90, 3), "hostA");

    ListenOptions lo;
    lo.expect = 1;
    h.start(lo);

    // A chunked sender crashes after two staged chunks; the retry
    // resends from the top and the already-staged chunks are confirmed
    // idempotently.
    int fd = rawConnect(h.listener.port());
    EXPECT_TRUE(rawSend(fd, rawFrame(shard.manifest, 0, 3,
                                     shard.bytes[0])));
    EXPECT_EQ(rawReadAck(fd), kAckChunkAccepted);
    EXPECT_TRUE(rawSend(fd, rawFrame(shard.manifest, 1, 3,
                                     shard.bytes[1])));
    EXPECT_EQ(rawReadAck(fd), kAckChunkAccepted);
    ::close(fd); // Crash: no final frame.

    SocketTransport transport(fastOptions(h.listener.port()));
    SendResult res = transport.sendShard(shard.manifest, shard.bytes);
    h.join();

    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.aggregate(), shard.merged);
}

TEST(SocketTransport, RecollectedShardSupersedesAnAbandonedStream)
{
    // A host crashes mid-stream, re-collects (different data), and
    // pushes the same (host, seq) slot: the staged chunks of the dead
    // stream diverge from the new one at index 0 and must be
    // superseded — permanently rejecting the only live sender would
    // strand the slot forever.
    ListenerHarness h;
    PreparedShard old_stream = prepareShard(makeChunks(180, 3), "hostA");
    PreparedShard new_stream = prepareShard(makeChunks(185, 3), "hostA");

    ListenOptions lo;
    lo.expect = 1;
    h.start(lo);

    int fd = rawConnect(h.listener.port());
    EXPECT_TRUE(rawSend(fd, rawFrame(old_stream.manifest, 0, 3,
                                     old_stream.bytes[0])));
    EXPECT_EQ(rawReadAck(fd), kAckChunkAccepted);
    EXPECT_TRUE(rawSend(fd, rawFrame(old_stream.manifest, 1, 3,
                                     old_stream.bytes[1])));
    EXPECT_EQ(rawReadAck(fd), kAckChunkAccepted);
    ::close(fd); // The old collection dies here, chunks staged.

    SocketTransport transport(fastOptions(h.listener.port()));
    SendResult res =
        transport.sendShard(new_stream.manifest, new_stream.bytes);
    h.join();

    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.aggregate(), new_stream.merged);
}

TEST(SocketTransport, RetryExhaustionFailsWithDiagnostic)
{
    // Find a port with no listener: bind one, read it back, close it.
    uint16_t dead_port;
    {
        ShardListener probe(0);
        dead_port = probe.port();
    }

    PreparedShard shard = prepareShard(makeChunks(100, 1), "hostA");
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
    PreparedShard first = prepareShard(makeChunks(110, 1), "hostA");
    // Incompatible follow-up: different sampling periods.
    ProfileData bad = chunkProfile(111);
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
    PreparedShard shard = prepareShard(makeChunks(120, 2), "hostA");

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
    PreparedShard first = prepareShard(makeChunks(150, 1), "hostA", 0);
    PreparedShard second = prepareShard(makeChunks(151, 1), "hostA", 0);

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
    PreparedShard shard = prepareShard(makeChunks(160, 1), "hostA");
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
    EXPECT_NE(res.error.find("chunk payload invalid"),
              std::string::npos)
        << res.error;

    // The listener survived and still accepts good shards.
    PreparedShard good = prepareShard(makeChunks(161, 1), "hostB");
    SocketTransport t2(fastOptions(h.listener.port()));
    EXPECT_TRUE(t2.sendShard(good.manifest, good.bytes).ok);
    h.join();
    EXPECT_EQ(h.agg.stats().accepted, 1u);
    EXPECT_EQ(h.agg.stats().malformed, 1u);
}

TEST(SocketTransport, ConflictingModulesBetweenLaterChunksAreRejected)
{
    // Chunk 0 knows neither module record; chunks 1 and 2 conflict
    // over them. The conflict must be caught at assembly — against
    // the accumulated map, not just chunk 0 — instead of fatal()ing
    // the listener inside mergeInto(). Two names over one address
    // range conflict as much as one name placed twice, and an
    // aggregate's per-host partials assemble through the same merge.
    struct Case
    {
        const char *what;
        MmapRecord in_c1, in_c2;
        bool aggregate;
        const char *expect;
    };
    const Case cases[] = {
        {"one name, two placements",
         {"extra.so", 0x700000, 0x1000, false},
         {"extra.so", 0x800000, 0x1000, false}, false,
         "module 'extra.so' mapped at"},
        {"two names, overlapping ranges",
         {"a.so", 0x700000, 0x1000, false},
         {"b.so", 0x700800, 0x1000, false}, false,
         "modules 'a.so' (0x700000+0x1000) and 'b.so'"},
        {"an aggregate's partials, overlapping ranges",
         {"a.so", 0x700000, 0x1000, false},
         {"b.so", 0x700800, 0x1000, false}, true,
         "modules 'a.so' (0x700000+0x1000) and 'b.so'"},
    };
    for (const Case &c : cases) {
        ListenerHarness h;
        ProfileData c0 = chunkProfile(170);
        ProfileData c1 = chunkProfile(171);
        c1.mmaps.push_back(c.in_c1);
        ProfileData c2 = chunkProfile(172);
        c2.mmaps.push_back(c.in_c2);

        PreparedShard shard;
        shard.manifest.host = "hostA";
        shard.manifest.workload = "test40";
        shard.manifest.checksum = 0; // Never reached: assembly fails.
        if (c.aggregate) {
            shard.manifest.level = 1;
            shard.manifest.covered = {{"h0", 1}, {"h1", 1}, {"h2", 1}};
        }
        shard.bytes = {c0.serialize(), c1.serialize(), c2.serialize()};

        ListenOptions lo;
        lo.expect = 1;
        lo.idle_timeout_ms = 500;
        h.start(lo);

        SocketTransport transport(fastOptions(h.listener.port()));
        SendResult res = transport.sendShard(shard.manifest, shard.bytes);
        h.join();

        EXPECT_FALSE(res.ok) << c.what;
        EXPECT_NE(res.error.find(c.expect), std::string::npos)
            << c.what << ": " << res.error;
        EXPECT_EQ(h.agg.stats().accepted, 0u) << c.what;
        EXPECT_EQ(h.agg.stats().malformed, 1u) << c.what;
    }
}

TEST(SocketTransport, CorruptChunkPayloadIsRejected)
{
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeChunks(130, 1), "hostA");
    shard.bytes[0][shard.bytes[0].size() - 3] ^= 0x40;

    ListenOptions lo;
    lo.expect = 1;
    lo.idle_timeout_ms = 300;
    h.start(lo);

    SocketTransport transport(fastOptions(h.listener.port()));
    SendResult res = transport.sendShard(shard.manifest, shard.bytes);
    h.join();

    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("chunk payload invalid"),
              std::string::npos)
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
    // The manifest's checksum names the assembled shard. One chunk is
    // held to the checksum its own header proved, several to their
    // serialized assembly; a manifest that disagrees either way is a
    // permanent rejection that reaches neither the fold nor on_accept.
    for (size_t n_chunks : {1, 3}) {
        ListenerHarness h;
        PreparedShard shard =
            prepareShard(makeChunks(140, n_chunks), "hostA");
        shard.manifest.checksum ^= 1;
        size_t accepts = 0;
        ListenOptions lo;
        lo.on_accept = [&](const ShardManifest &, const ProfileData &,
                           const std::vector<std::string> &) {
            accepts++;
        };
        SendResult res = pushToFreshListener(shard, h, lo);
        EXPECT_FALSE(res.ok) << n_chunks << " chunks";
        EXPECT_EQ(res.attempts, 1);
        EXPECT_NE(res.error.find("manifest promises"), std::string::npos)
            << res.error;
        EXPECT_EQ(h.agg.stats().accepted, 0u);
        EXPECT_EQ(h.agg.stats().malformed, 1u);
        EXPECT_EQ(accepts, 0u);
    }
}

TEST(SocketTransport, MultiChunkLeafHandsItsAssembledBytesToOnAccept)
{
    // The bytes that proved the manifest are the bytes on_accept
    // deposits and journals: one serialization of the assembly.
    ListenerHarness h;
    PreparedShard shard = prepareShard(makeChunks(150, 3), "hostA");
    std::vector<std::string> accepted;
    ListenOptions lo;
    lo.on_accept = [&](const ShardManifest &, const ProfileData &,
                       const std::vector<std::string> &chunks) {
        accepted = chunks;
    };
    SendResult res = pushToFreshListener(shard, h, lo);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(accepted.size(), 1u);
    EXPECT_EQ(accepted[0], shard.merged.serialize());
}

TEST(SocketTransport, SingleChunkPushFromAVersion3SenderIsAccepted)
{
    // A build that still writes version 3 stamps its manifest with the
    // version-3 payload checksum. Sent as one chunk, that is exactly
    // the checksum the listener's parse verifies, so the shard folds,
    // and on_accept gets the sender's bytes verbatim — stores and
    // journals read version 3.
    ListenerHarness h;
    ProfileData pd = chunkProfile(160);
    PreparedShard shard = prepareShard({pd}, "hostA");
    shard.bytes = {testutil::encodeProfileV3(pd, &shard.manifest.checksum)};
    std::vector<std::string> accepted;
    ListenOptions lo;
    lo.on_accept = [&](const ShardManifest &, const ProfileData &,
                       const std::vector<std::string> &chunks) {
        accepted = chunks;
    };
    SendResult res = pushToFreshListener(shard, h, lo);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(h.agg.aggregate(), pd);
    EXPECT_TRUE(h.agg.hasChecksum(shard.manifest.checksum));
    ASSERT_EQ(accepted.size(), 1u);
    EXPECT_EQ(accepted[0], shard.bytes[0]);
}

TEST(SocketTransport, MultiChunkPushFromAVersion3SenderIsRejected)
{
    // Several chunks are checked against their version-4 assembly, so
    // a version-3 manifest checksum cannot match: chunked and relay
    // pushes need version 4 on both ends, and say so by rejecting.
    ListenerHarness h;
    std::vector<ProfileData> chunks = makeChunks(170, 2);
    PreparedShard shard = prepareShard(chunks, "hostA");
    shard.bytes.clear();
    for (const ProfileData &c : chunks)
        shard.bytes.push_back(testutil::encodeProfileV3(c));
    testutil::encodeProfileV3(shard.merged, &shard.manifest.checksum);
    SendResult res = pushToFreshListener(shard, h);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("manifest promises"), std::string::npos)
        << res.error;
    EXPECT_EQ(h.agg.stats().accepted, 0u);
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
    PreparedShard shard = prepareShard(makeChunks(140, 1), "hostA");
    ASSERT_TRUE(h.agg.addShard(shard.manifest, shard.merged));
    ListenOptions lo;
    lo.expect = 1;
    lo.idle_timeout_ms = 10'000;
    h.start(lo);
    h.join();
    EXPECT_EQ(h.served, 0u);
}

// ---------------------------------------------------------------------------
// Aggregator state persistence.
// ---------------------------------------------------------------------------

TEST(AggregatorState, ResumeIsByteIdenticalToAFreshRun)
{
    std::string dir = freshDir("state_identity");
    std::string state = dir + "/agg.state";

    ProfileData a = chunkProfile(1), b = chunkProfile(2),
                c = chunkProfile(3);
    PreparedShard sa = prepareShard({a}, "hostA");
    PreparedShard sb = prepareShard({b}, "hostB");
    PreparedShard sc = prepareShard({c}, "hostC");

    // The interrupted run: two shards land, state is checkpointed.
    IncrementalAggregator before;
    ASSERT_TRUE(before.addShard(sa.manifest, a));
    ASSERT_TRUE(before.addShard(sb.manifest, b));
    before.saveState(state);

    // The restarted run folds the rest.
    IncrementalAggregator resumed;
    std::string why;
    ASSERT_TRUE(resumed.restoreState(state, &why)) << why;
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

    ProfileData s0 = chunkProfile(10), s1 = chunkProfile(11),
                s2 = chunkProfile(12);
    PreparedShard m0 = prepareShard({s0}, "hostA", 0);
    PreparedShard m1 = prepareShard({s1}, "hostA", 1);
    PreparedShard m2 = prepareShard({s2}, "hostA", 2);

    // Seq 0 and 2 arrive (2 parks in the pending map), then a restart.
    IncrementalAggregator before;
    ASSERT_TRUE(before.addShard(m0.manifest, s0));
    ASSERT_TRUE(before.addShard(m2.manifest, s2));
    before.saveState(state);

    IncrementalAggregator resumed;
    ASSERT_TRUE(resumed.restoreState(state));
    ASSERT_TRUE(resumed.addShard(m1.manifest, s1));
    EXPECT_EQ(resumed.aggregate(), mergeProfiles({s0, s1, s2}));
}

TEST(AggregatorState, RestoredDuplicateDetectionStillRejects)
{
    std::string dir = freshDir("state_dedup");
    std::string state = dir + "/agg.state";

    ProfileData a = chunkProfile(20);
    PreparedShard sa = prepareShard({a}, "hostA");
    IncrementalAggregator before;
    ASSERT_TRUE(before.addShard(sa.manifest, a));
    before.saveState(state);

    IncrementalAggregator resumed;
    ASSERT_TRUE(resumed.restoreState(state));
    std::string why;
    PreparedShard dup = sa;
    dup.manifest.host = "hostZ";
    EXPECT_FALSE(resumed.addShard(dup.manifest, a, &why));
    EXPECT_NE(why.find("duplicate shard"), std::string::npos) << why;
    EXPECT_EQ(resumed.stats().duplicates, 1u);
}

TEST(AggregatorState, RestoredCompatibilityGateStillRejects)
{
    std::string dir = freshDir("state_compat");
    std::string state = dir + "/agg.state";

    ProfileData a = chunkProfile(30);
    PreparedShard sa = prepareShard({a}, "hostA");
    IncrementalAggregator before;
    ASSERT_TRUE(before.addShard(sa.manifest, a));
    before.saveState(state);

    IncrementalAggregator resumed;
    ASSERT_TRUE(resumed.restoreState(state));
    ProfileData bad = chunkProfile(31);
    bad.sim_periods.ebs = 997;
    PreparedShard sb = prepareShard({bad}, "hostB");
    std::string why;
    EXPECT_FALSE(resumed.addShard(sb.manifest, bad, &why));
    EXPECT_NE(why.find("sampling periods"), std::string::npos) << why;

    ShardManifest other = sb.manifest;
    other.workload = "kernelbench";
    other.checksum ^= 2;
    EXPECT_FALSE(resumed.addShard(other, chunkProfile(32), &why));
    EXPECT_NE(why.find("workload"), std::string::npos) << why;
}

TEST(AggregatorState, MissingFileIsAColdStart)
{
    IncrementalAggregator agg;
    std::string why;
    EXPECT_FALSE(agg.restoreState("/nonexistent/agg.state", &why));
    EXPECT_NE(why.find("cannot open"), std::string::npos) << why;
    EXPECT_EQ(agg.restoredShards(), 0u);

    // A directory where the state file should be is no state either
    // (it opens, and then claims a size no read can satisfy).
    std::string dir = freshDir("state_is_a_dir");
    EXPECT_FALSE(agg.restoreState(dir, &why));
    EXPECT_NE(why.find("not a regular file"), std::string::npos) << why;
    EXPECT_EQ(agg.restoredShards(), 0u);
}

TEST(AggregatorState, CorruptOrForeignFilesAreRefused)
{
    std::string dir = freshDir("state_corrupt");
    std::string state = dir + "/agg.state";
    ProfileData a = chunkProfile(40);
    PreparedShard sa = prepareShard({a}, "hostA");
    IncrementalAggregator before;
    ASSERT_TRUE(before.addShard(sa.manifest, a));
    before.saveState(state);

    // Flip a payload byte: the header checksum must catch it.
    std::string bytes = testutil::readFile(state);
    bytes[bytes.size() - 3] ^= 0x40;
    testutil::writeFile(state, bytes);
    IncrementalAggregator corrupt;
    std::string why;
    EXPECT_FALSE(corrupt.restoreState(state, &why));
    EXPECT_NE(why.find("checksum mismatch"), std::string::npos) << why;

    // Truncation mid-payload.
    testutil::writeFile(state,
                        testutil::readFile(state).substr(0, 40));
    IncrementalAggregator truncated;
    EXPECT_FALSE(truncated.restoreState(state, &why));
    EXPECT_NE(why.find("truncated"), std::string::npos) << why;

    // A profile is not an aggregator state file.
    a.save(state);
    IncrementalAggregator foreign;
    EXPECT_FALSE(foreign.restoreState(state, &why));
    EXPECT_NE(why.find("not an aggregator state file"),
              std::string::npos)
        << why;

    // Structural garbage behind a self-consistent checksum (a crafted
    // file): still a cold start, never a crash.
    before.saveState(state);
    bytes = testutil::readFile(state);
    for (size_t i = 28; i < bytes.size(); i++)
        bytes[i] = static_cast<char>(0xFF);
    uint64_t checksum = fnv1a(bytes.substr(28));
    std::memcpy(bytes.data() + 20, &checksum, sizeof(checksum));
    testutil::writeFile(state, bytes);
    IncrementalAggregator crafted;
    EXPECT_FALSE(crafted.restoreState(state, &why));
    EXPECT_EQ(crafted.restoredShards(), 0u);
}

TEST(AggregatorState, StatePersistsThroughTheListener)
{
    // The end-to-end restart story in-process: serve, checkpoint per
    // accept, "crash", restore, serve the rest, byte-identical result.
    std::string dir = freshDir("state_listener");
    std::string state = dir + "/agg.state";
    PreparedShard sa = prepareShard(makeChunks(50, 2), "hostA");
    PreparedShard sb = prepareShard(makeChunks(55, 1), "hostB");

    {
        ListenerHarness h;
        ListenOptions lo;
        lo.expect = 1;
        lo.on_accept = [&](const ShardManifest &, const ProfileData &,
                           const std::vector<std::string> &) {
            h.agg.saveState(state);
        };
        h.start(lo);
        SocketTransport t(fastOptions(h.listener.port()));
        ASSERT_TRUE(t.sendShard(sa.manifest, sa.bytes).ok);
        h.join();
    } // The first aggregator process "dies" here.

    ListenerHarness h2;
    ASSERT_TRUE(h2.agg.restoreState(state));
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

} // namespace
} // namespace hbbp
