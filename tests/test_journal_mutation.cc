/**
 * @file
 * Seeded, structure-aware mutation tests for the state log, the one
 * format a restarted aggregator reads its state from. A log that a
 * rewrite opened with a dropped-checksums record, followed by relay
 * flushes and leaf shards, is mutated record by record: truncation at
 * every record boundary and inside every record, one flipped byte in a
 * frame header, a manifest or a chunk, an oversized length, a foreign
 * magic, duplicated and swapped records, and a damaged dropped list.
 * Each restore must warn with a diagnostic and land on exactly the
 * replay of an intact prefix (or a cold start, the empty prefix) —
 * never a crash, never a fatal() — and a record appended after it must
 * be there on the next restore.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fleet/journal.hh"
#include "support/bytes.hh"
#include "support/telemetry.hh"
#include "tests/helpers.hh"

namespace fs = std::filesystem;

namespace hbbp {
namespace {

// The frame layout the log documents (fleet/journal.cc): magic,
// position, body length, body checksum, body.
constexpr size_t kFrameHeaderBytes = 32;

/** A small compatible profile whose content varies with @p tag. */
ProfileData
leafProfile(uint64_t tag)
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

/** One arrival as a node logs it, with what folding it again needs. */
struct Arrival
{
    ShardManifest manifest;
    std::vector<std::string> chunks;
    std::vector<ProfileData> profiles;
};

Arrival
leafArrival(const std::string &host, uint32_t seq, uint64_t tag)
{
    Arrival a;
    a.profiles.push_back(leafProfile(tag));
    a.manifest.host = host;
    a.manifest.workload = "test40";
    a.manifest.seq = seq;
    a.manifest.profile_file = host + "-" + std::to_string(seq) + ".hbbp";
    a.chunks.push_back(a.profiles[0].serialize(&a.manifest.checksum));
    return a;
}

/** @p relay's current fold as the aggregate arrival it would flush. */
Arrival
flushArrival(const IncrementalAggregator &relay, uint32_t seq)
{
    PartialExport ex = relay.exportPartials();
    Arrival a;
    a.manifest.version = kManifestVersionAggregate;
    a.manifest.host = "relay1";
    a.manifest.workload = ex.workload;
    a.manifest.seq = seq;
    a.manifest.checksum = ex.checksum;
    a.manifest.level = 1;
    a.manifest.profile_file = "relay1.hbbp";
    for (HostPartial &hp : ex.partials) {
        a.manifest.covered.push_back({hp.host, hp.covered});
        std::string why;
        std::optional<ProfileData> pd =
            ProfileData::parse(hp.bytes, "partial", &why);
        EXPECT_TRUE(pd.has_value()) << why;
        a.profiles.push_back(std::move(*pd));
        a.chunks.push_back(std::move(hp.bytes));
    }
    return a;
}

bool
fold(IncrementalAggregator &agg, const Arrival &a)
{
    std::vector<ProfileData> profiles = a.profiles;
    if (a.manifest.level > 0)
        return agg.addAggregateShard(a.manifest, std::move(profiles));
    return agg.addShard(a.manifest, std::move(profiles[0]));
}

/** What a restore carried in, compared field by field. */
struct State
{
    size_t restored = 0;
    std::string bytes; ///< Aggregate bytes ("" when nothing restored).
    std::set<uint64_t> seen;

    bool operator==(const State &) const = default;
};

State
stateOf(IncrementalAggregator &agg, const std::vector<uint64_t> &checksums)
{
    State s;
    s.restored = agg.restoredShards();
    if (agg.shardCount() > 0)
        s.bytes = agg.aggregate().serialize();
    for (uint64_t checksum : checksums)
        if (agg.hasChecksum(checksum))
            s.seen.insert(checksum);
    return s;
}

/** Where a frame's parts sit in the log. */
struct Frame
{
    size_t off = 0;
    size_t size = 0;
    size_t body_len = 0;
    size_t manifest_off = 0, manifest_len = 0; ///< Arrivals only.
    std::vector<std::pair<size_t, size_t>> chunks;
};

/** Map @p log's frames; frame 0 is the dropped-checksums record. */
std::vector<Frame>
mapFrames(const std::string &log)
{
    std::vector<Frame> frames;
    size_t off = 0;
    while (off < log.size()) {
        Frame f;
        f.off = off;
        std::memcpy(&f.body_len, log.data() + off + 16, 8);
        f.size = kFrameHeaderBytes + f.body_len;
        if (!frames.empty()) {
            size_t at = off + kFrameHeaderBytes;
            uint32_t len = 0, n = 0;
            std::memcpy(&len, log.data() + at, 4);
            f.manifest_off = at + 4;
            f.manifest_len = len;
            at += 4 + len;
            std::memcpy(&n, log.data() + at, 4);
            at += 4;
            for (uint32_t i = 0; i < n; i++) {
                uint64_t chunk = 0;
                std::memcpy(&chunk, log.data() + at, 8);
                f.chunks.emplace_back(at + 8, static_cast<size_t>(chunk));
                at += 8 + chunk;
            }
            EXPECT_EQ(at, off + f.size);
        }
        frames.push_back(f);
        off += f.size;
    }
    EXPECT_EQ(off, log.size());
    return frames;
}

enum Kind
{
    TruncateAtBoundary,
    TruncateInside,
    FlipHeader,
    FlipManifest,
    FlipChunk,
    OversizedLength,
    ForeignMagic,
    DuplicateRecord,
    SwapRecords,
    DamageDropped,
    kKinds
};

const char *const kKindNames[kKinds] = {
    "truncate at boundary", "truncate inside", "flip header",
    "flip manifest",        "flip chunk",      "oversized length",
    "foreign magic",        "duplicate record", "swap records",
    "damage dropped list"};

/** One mutant: its bytes and the frames of the prefix it keeps. */
struct Mutant
{
    Kind kind;
    std::string bytes;
    size_t intact = 0;
    bool damaged = true; ///< False for a cut at a record boundary.
};

void
flipIn(std::string &bytes, size_t off, size_t len, Rng &rng)
{
    size_t at = off + rng.nextBelow(len);
    bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.nextBelow(255)));
}

std::vector<Mutant>
mutants(const std::string &log, const std::vector<Frame> &frames,
        uint64_t unseen, Rng &rng)
{
    std::vector<Mutant> out;
    auto add = [&](Kind kind, std::string bytes, size_t intact) {
        out.push_back({kind, std::move(bytes), intact, true});
    };
    auto frameBytes = [&](size_t j) {
        return log.substr(frames[j].off, frames[j].size);
    };
    for (size_t j = 0; j <= frames.size(); j++) {
        size_t end = j < frames.size() ? frames[j].off : log.size();
        out.push_back({TruncateAtBoundary, log.substr(0, end), j, false});
    }
    for (size_t j = 0; j < frames.size(); j++) {
        const Frame &f = frames[j];
        for (int round = 0; round < 3; round++) {
            add(TruncateInside,
                log.substr(0, f.off + 1 + rng.nextBelow(f.size - 1)), j);
            std::string bytes = log;
            flipIn(bytes, f.off, kFrameHeaderBytes, rng);
            add(FlipHeader, bytes, j);
            if (j == 0) {
                bytes = log;
                flipIn(bytes, f.off + kFrameHeaderBytes, f.body_len, rng);
                add(DamageDropped, bytes, 0);
                continue;
            }
            bytes = log;
            flipIn(bytes, f.manifest_off, f.manifest_len, rng);
            add(FlipManifest, bytes, j);
            const auto &chunk = f.chunks[rng.nextBelow(f.chunks.size())];
            bytes = log;
            flipIn(bytes, chunk.first, chunk.second, rng);
            add(FlipChunk, bytes, j);
        }
        std::string bytes = log;
        uint64_t huge = log.size() + 1 + rng.nextBelow(1u << 30);
        std::memcpy(bytes.data() + f.off + 16, &huge, 8);
        add(OversizedLength, bytes, j);
        bytes = log;
        uint64_t foreign = 0x48424250'50524f46ULL; // A profile's magic.
        std::memcpy(bytes.data() + f.off, &foreign, 8);
        add(ForeignMagic, bytes, j);
        bytes = log;
        bytes.insert(f.off + f.size, frameBytes(j));
        add(DuplicateRecord, bytes, j + 1);
        for (size_t k = j + 1; k < frames.size(); k++) {
            bytes = log.substr(0, f.off) + frameBytes(k);
            for (size_t m = j + 1; m < k; m++)
                bytes += frameBytes(m);
            bytes += frameBytes(j);
            bytes += log.substr(frames[k].off + frames[k].size);
            add(SwapRecords, bytes, j);
        }
    }
    // A dropped list whose count overruns its body, behind a checksum
    // restamped to match: structure, not the checksum, must catch it.
    std::string bytes = log;
    uint64_t count = frames[0].body_len;
    std::memcpy(bytes.data() + kFrameHeaderBytes, &count, 8);
    uint64_t checksum = fnv1a(bytes.data() + kFrameHeaderBytes,
                              frames[0].body_len);
    std::memcpy(bytes.data() + 24, &checksum, 8);
    add(DamageDropped, bytes, 0);
    // A well-formed second dropped list in position 2, naming an
    // arrival the prefix has not seen: only the log's first record
    // may drop anything.
    ByteWriter late;
    late.raw(log.data(), 8); // The dropped-checksums record magic.
    late.u64(2);
    late.u64(16);
    late.u64(0);
    late.u64(1);
    late.u64(unseen);
    std::string frame = late.take();
    checksum = fnv1a(frame.data() + kFrameHeaderBytes, 16);
    std::memcpy(frame.data() + 24, &checksum, 8);
    add(DamageDropped, log.substr(0, frames[2].off) + frame +
                           log.substr(frames[2].off), 2);
    return out;
}

TEST(StateLogMutation, RestoresAnIntactPrefixOrStartsCold)
{
    std::string dir = ::testing::TempDir() + "/hbbp_log_mutation";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string state = dir + "/agg.state";

    // The log: a relay's flushes {A:1}, {A:2}, {A:2, B:1} — a rewrite
    // after the third leaves the dropped list and that flush — then
    // two leaves of hostC, a gap-stranded leaf of hostD and the
    // relay's next flush, which supersedes its last without a rewrite.
    std::vector<Arrival> dropped, live;
    {
        IncrementalAggregator root, relay;
        StateJournal journal(state, /*compact_every=*/1);
        auto accept = [&](const Arrival &a, std::vector<Arrival> &into) {
            ASSERT_TRUE(fold(root, a));
            journal.record(root, a.manifest, a.chunks);
            into.push_back(a);
        };
        const std::pair<const char *, uint32_t> relayed[] = {
            {"hostA", 0}, {"hostA", 1}, {"hostB", 0}, {"hostA", 2}};
        for (uint32_t i = 0; i < 4; i++) {
            ASSERT_TRUE(fold(relay, leafArrival(relayed[i].first,
                                                relayed[i].second, i)));
            if (i == 3) {
                accept(leafArrival("hostC", 0, 30), live);
                accept(leafArrival("hostC", 1, 31), live);
                accept(leafArrival("hostD", 1, 41), live);
            }
            accept(flushArrival(relay, i), i < 2 ? dropped : live);
        }
        ASSERT_EQ(journal.pendingRecords(), 4u);
    }
    std::string log = testutil::readFile(state);
    std::vector<Frame> frames = mapFrames(log);
    ASSERT_EQ(frames.size(), 1 + live.size());

    // The oracle: the prefix of k frames, replayed into a fresh
    // aggregator by hand — the dropped list, then the arrivals.
    std::vector<uint64_t> checksums;
    for (const std::vector<Arrival> *list : {&dropped, &live})
        for (const Arrival &a : *list)
            checksums.push_back(a.manifest.checksum);
    std::vector<State> prefix;
    for (size_t k = 0; k <= frames.size(); k++) {
        IncrementalAggregator agg;
        if (k > 0)
            for (const Arrival &a : dropped)
                agg.noteSeen(a.manifest.checksum);
        for (size_t i = 1; i < k; i++)
            fold(agg, live[i - 1]);
        agg.markRestored();
        prefix.push_back(stateOf(agg, checksums));
    }
    ASSERT_EQ(prefix.back().restored, live.size());

    telemetry::Counter &damageWarnings =
        telemetry::counter("hbbp_journal_torn_tails_total");
    Rng rng(0x106'5eed);
    std::vector<Mutant> all =
        mutants(log, frames, live.back().manifest.checksum, rng);
    Arrival next = leafArrival("hostE", 0, 50);
    checksums.push_back(next.manifest.checksum);
    size_t tried[kKinds] = {};
    for (size_t n = 0; n < all.size(); n++) {
        const Mutant &mu = all[n];
        SCOPED_TRACE(::testing::Message()
                     << "mutant " << n << " (" << kKindNames[mu.kind]
                     << ", intact " << mu.intact << ")");
        tried[mu.kind]++;
        testutil::writeFile(state, mu.bytes);
        IncrementalAggregator agg;
        StateJournal journal(state, /*compact_every=*/1);
        // The warning's text is rate-limited; the counter beside it is
        // not, and moves exactly when the damage warning is issued.
        uint64_t warned = damageWarnings.value();
        bool restored = journal.restore(agg);
        EXPECT_EQ(damageWarnings.value() - warned, mu.damaged ? 1u : 0u);
        EXPECT_EQ(restored, mu.intact > 1);
        State got = stateOf(agg, checksums);
        EXPECT_TRUE(got == prefix[mu.intact])
            << "restored " << got.restored << " arrivals, "
            << got.seen.size() << " checksums seen";

        // An append after the restore is reachable by the next one.
        ASSERT_TRUE(fold(agg, next));
        journal.record(agg, next.manifest, next.chunks);
        IncrementalAggregator again;
        StateJournal reopened(state);
        bool reached = reopened.restore(again) &&
                       again.hasChecksum(next.manifest.checksum);
        EXPECT_TRUE(reached);
        if (reached) {
            EXPECT_EQ(again.aggregate().serialize(),
                      agg.aggregate().serialize());
        }
    }
    for (int k = 0; k < kKinds; k++)
        EXPECT_GT(tried[k], 0u) << kKindNames[k];
    fs::remove_all(dir);
}

} // namespace
} // namespace hbbp
