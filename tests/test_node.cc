/**
 * @file
 * Tests for the IngestNode accept path that `aggregate` (socket and
 * drop directory) and RelayNode share: what each kind of arrival
 * deposits into the store and appends to the --state log, a watched
 * file that vanishes after its import, and the pin rule.
 * Every case ends by restoring a fresh node from the same --state,
 * which must hold the same aggregate bytes.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fleet/aggregate.hh"
#include "fleet/manifest.hh"
#include "fleet/merge.hh"
#include "fleet/node.hh"
#include "fleet/store.hh"
#include "fleet/transport.hh"
#include "support/bytes.hh"

namespace fs = std::filesystem;

namespace hbbp {
namespace {

std::string
freshDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "/hbbp_node_" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

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
    pd.ebs.push_back({0x400000 + tag, tag, Ring::User});
    LbrStackSample stack;
    stack.entries = {{0x400100 + tag, 0x400200 + tag}};
    stack.cycle = tag;
    stack.eventing_ip = 0x400300 + tag;
    pd.lbr.push_back(stack);
    return pd;
}

/** A leaf shard as a collector sends it: @p n_chunks wire chunks. */
struct Leaf
{
    ShardManifest manifest;
    ProfileData profile; ///< The assembled shard.
    std::vector<std::string> chunks;
};

Leaf
makeLeaf(const std::string &host, uint64_t tag, size_t n_chunks = 1)
{
    Leaf leaf;
    leaf.manifest.host = host;
    leaf.manifest.workload = "test40";
    leaf.manifest.options_hash = 0x1234;
    std::vector<ProfileData> parts;
    for (size_t i = 0; i < n_chunks; i++)
        parts.push_back(leafProfile(tag * 10 + i));
    leaf.profile = mergeProfiles(parts);
    if (n_chunks == 1) {
        leaf.chunks.push_back(
            leaf.profile.serialize(&leaf.manifest.checksum));
    } else {
        leaf.manifest.checksum = leaf.profile.payloadChecksum();
        for (const ProfileData &part : parts)
            leaf.chunks.push_back(part.serialize());
    }
    return leaf;
}

/** An IngestNode behind a listener served on a background thread. */
struct ServedNode
{
    IngestNode node;
    ShardListener listener{0};
    std::thread thread;

    explicit ServedNode(IngestOptions io) : node(std::move(io)) {}

    void
    start(size_t expect)
    {
        thread = std::thread([this, expect] {
            ListenOptions lo;
            lo.expect = expect;
            lo.on_accept = [this](const ShardManifest &m,
                                  const ProfileData &pd,
                                  const std::vector<std::string> &chunks) {
                node.accept(m, &pd, chunks);
            };
            listener.serve(node.aggregator(), lo);
        });
    }

    void
    push(const ShardManifest &m, const std::vector<std::string> &chunks)
    {
        SocketTransportOptions so;
        so.port = listener.port();
        so.backoff_ms = 10;
        SendResult res = SocketTransport(so).sendShard(m, chunks);
        ASSERT_TRUE(res.ok) << res.error;
    }

    ~ServedNode()
    {
        if (thread.joinable())
            thread.join();
    }
};

/** A node with --state and --store under @p dir. */
IngestOptions
statefulOptions(const std::string &dir)
{
    IngestOptions io;
    io.state_file = dir + "/node.state";
    io.store_dir = dir + "/store";
    return io;
}

/** What a fresh node restored from @p io's --state aggregates to. */
std::string
restoredBytes(const IngestOptions &io)
{
    IngestNode fresh(io);
    EXPECT_GT(fresh.restore(), 0u);
    return fresh.aggregator().aggregate().serialize();
}

size_t
journalBytes(const IngestOptions &io)
{
    std::error_code ec;
    uintmax_t n = fs::file_size(io.state_file, ec);
    return ec ? 0 : static_cast<size_t>(n);
}

std::string
storedBytes(const IngestOptions &io, uint64_t checksum)
{
    std::string why;
    std::string bytes = readFileBytes(
        ProfileStore(io.store_dir).pathForChecksum(checksum), &why);
    EXPECT_TRUE(why.empty()) << why;
    return bytes;
}

TEST(IngestNode, SingleChunkArrivalDepositsTheWireBytes)
{
    IngestOptions io = statefulOptions(freshDir("single"));
    Leaf leaf = makeLeaf("hostA", 1);
    ServedNode served(io);
    EXPECT_EQ(served.node.restore(), 0u);
    served.start(1);
    served.push(leaf.manifest, leaf.chunks);
    served.thread.join();

    EXPECT_EQ(storedBytes(io, leaf.manifest.checksum), leaf.chunks[0]);
    EXPECT_GT(journalBytes(io), 0u);
    EXPECT_EQ(restoredBytes(io),
              served.node.aggregator().aggregate().serialize());
}

TEST(IngestNode, MultiChunkArrivalDepositsTheAssembledProfile)
{
    IngestOptions io = statefulOptions(freshDir("multi"));
    Leaf leaf = makeLeaf("hostA", 2, /*n_chunks=*/3);
    ServedNode served(io);
    served.start(1);
    served.push(leaf.manifest, leaf.chunks);
    served.thread.join();

    ProfileStore store(io.store_dir);
    ASSERT_TRUE(store.containsChecksum(leaf.manifest.checksum));
    EXPECT_EQ(
        ProfileData::load(store.pathForChecksum(leaf.manifest.checksum)),
        leaf.profile);
    EXPECT_EQ(restoredBytes(io),
              served.node.aggregator().aggregate().serialize());
}

TEST(IngestNode, AggregateArrivalDepositsTheFold)
{
    // A relay flush: two hosts' partials as one level-1 arrival.
    IncrementalAggregator relay;
    for (const Leaf &leaf : {makeLeaf("hostA", 3), makeLeaf("hostB", 4)}) {
        std::string why;
        ASSERT_TRUE(relay.addShard(leaf.manifest, leaf.profile, &why))
            << why;
    }
    PartialExport ex = relay.exportPartials();
    ShardManifest m;
    m.version = kManifestVersionAggregate;
    m.host = "relay1";
    m.workload = ex.workload;
    m.checksum = ex.checksum;
    m.level = 1;
    std::vector<std::string> chunks;
    for (HostPartial &hp : ex.partials) {
        m.covered.push_back({hp.host, hp.covered});
        chunks.push_back(std::move(hp.bytes));
    }

    IngestOptions io = statefulOptions(freshDir("aggregate"));
    ServedNode served(io);
    served.start(2);
    served.push(m, chunks);
    served.thread.join();

    const ProfileData &fold = served.node.aggregator().aggregate();
    EXPECT_EQ(fold, relay.aggregate());
    ProfileStore store(io.store_dir);
    ASSERT_TRUE(store.containsChecksum(m.checksum));
    EXPECT_EQ(ProfileData::load(store.pathForChecksum(m.checksum)), fold);
    EXPECT_EQ(restoredBytes(io), fold.serialize());
}

TEST(IngestNode, WatchDirArrivalDepositsAndJournalsTheFileBytes)
{
    std::string dir = freshDir("watch");
    std::string drop = dir + "/drop";
    fs::create_directories(drop);
    exportShard(leafProfile(5), "hostA", "test40", 0, 0x1234, drop);
    exportShard(leafProfile(6), "hostB", "test40", 0, 0x1234, drop);

    IngestOptions io = statefulOptions(dir);
    IngestNode node(io);
    std::vector<ShardManifest> accepted;
    WatchOptions wo;
    wo.on_accept = [&](const ShardManifest &m, const std::string &bytes) {
        node.accept(m, nullptr, {bytes});
        accepted.push_back(m);
    };
    EXPECT_EQ(watchAndAggregate(node.aggregator(), drop, wo), 2u);

    ASSERT_EQ(accepted.size(), 2u);
    for (const ShardManifest &m : accepted) {
        std::string why;
        std::string file = readFileBytes(drop + "/" + m.profile_file, &why);
        ASSERT_TRUE(why.empty()) << why;
        EXPECT_EQ(storedBytes(io, m.checksum), file);
    }
    EXPECT_GT(journalBytes(io), 0u);
    EXPECT_EQ(restoredBytes(io),
              node.aggregator().aggregate().serialize());
}

TEST(IngestNode, VanishedWatchFileIsStillDepositedAndLogged)
{
    // The drop directory loses each file right after its import: the
    // node needs no second read, it has the bytes the import verified.
    std::string dir = freshDir("vanished");
    std::string drop = dir + "/drop";
    fs::create_directories(drop);
    exportShard(leafProfile(7), "hostA", "test40", 0, 0x1234, drop);
    exportShard(leafProfile(8), "hostB", "test40", 0, 0x1234, drop);

    IngestOptions io = statefulOptions(dir);
    IngestNode node(io);
    std::vector<ShardManifest> accepted;
    WatchOptions wo;
    wo.on_accept = [&](const ShardManifest &m, const std::string &bytes) {
        ASSERT_TRUE(fs::remove(drop + "/" + m.profile_file));
        node.accept(m, nullptr, {bytes});
        accepted.push_back(m);
    };
    EXPECT_EQ(watchAndAggregate(node.aggregator(), drop, wo), 2u);

    ASSERT_EQ(accepted.size(), 2u);
    ProfileStore store(io.store_dir);
    for (const ShardManifest &m : accepted)
        EXPECT_TRUE(store.containsChecksum(m.checksum)) << m.host;
    IngestNode fresh(io);
    EXPECT_EQ(fresh.restore(), 2u);
    EXPECT_EQ(fresh.aggregator().aggregate().serialize(),
              node.aggregator().aggregate().serialize());
}

TEST(IngestNode, OnlyANodeWithStatePins)
{
    std::string dir = freshDir("pins");
    Leaf a = makeLeaf("hostA", 10), b = makeLeaf("hostB", 11);
    auto acceptInto = [](IngestNode &node, const Leaf &leaf) {
        std::string why;
        ASSERT_TRUE(node.aggregator().addShard(leaf.manifest,
                                               leaf.profile, &why))
            << why;
        node.accept(leaf.manifest, &leaf.profile, leaf.chunks);
    };

    // Stateless: the deposit lands, no pin file ever exists.
    IngestOptions stateless;
    stateless.store_dir = dir + "/store";
    IngestNode plain(stateless);
    acceptInto(plain, a);
    ProfileStore store(stateless.store_dir);
    EXPECT_TRUE(store.containsChecksum(a.manifest.checksum));
    EXPECT_EQ(store.stats().pin_owners, 0u);

    // With --state: the pin is gone once the arrival is journaled,
    // and a clean exit removes the owner's pin file.
    IngestOptions io = statefulOptions(dir);
    IngestNode stateful(io);
    acceptInto(stateful, b);
    ProfileStore::Stats st = store.stats();
    EXPECT_EQ(st.pinned, 0u);
    EXPECT_EQ(st.pin_owners, 1u);
    stateful.release();
    EXPECT_EQ(store.stats().pin_owners, 0u);
    EXPECT_EQ(store.stats().shard_entries, 2u);
}

} // namespace
} // namespace hbbp
