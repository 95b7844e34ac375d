/**
 * @file
 * Tests for hierarchical relay aggregation: the version-2 aggregate
 * manifest (level + covered hosts), the per-host supersede fold that
 * keeps any fan-in tree byte-identical to flat aggregation, the
 * RelayNode itself (flush cadence, upstream buffering and retry,
 * crash/restart resume, orphan forwarding), and the state log: the
 * arrivals as received, compacted by the lineage of relay flushes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fleet/aggregate.hh"
#include "fleet/journal.hh"
#include "fleet/manifest.hh"
#include "fleet/merge.hh"
#include "fleet/relay.hh"
#include "fleet/store.hh"
#include "fleet/transport.hh"
#include "support/bytes.hh"
#include "tests/profile_v3.hh"

namespace fs = std::filesystem;

namespace hbbp {
namespace {

/** A fresh scratch directory under the test temp dir. */
std::string
freshDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "/hbbp_relay_" + tag;
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

/** One leaf shard, ready for addShard() or a socket push. */
struct LeafShard
{
    ShardManifest manifest;
    ProfileData profile;
    std::string bytes;
};

LeafShard
makeLeaf(const std::string &host, uint32_t seq, uint64_t tag)
{
    LeafShard leaf;
    leaf.profile = leafProfile(tag);
    leaf.manifest.host = host;
    leaf.manifest.workload = "test40";
    leaf.manifest.seq = seq;
    leaf.manifest.options_hash = 0x1234;
    leaf.bytes = leaf.profile.serialize(&leaf.manifest.checksum);
    leaf.manifest.profile_file =
        host + "-" + std::to_string(seq) + ".hbbp";
    return leaf;
}

/** Flat reference: every leaf folded into one aggregator directly. */
std::string
flatAggregateBytes(const std::vector<LeafShard> &leaves)
{
    IncrementalAggregator agg;
    for (const LeafShard &leaf : leaves) {
        std::string why;
        EXPECT_TRUE(agg.addShard(leaf.manifest, leaf.profile, &why))
            << why;
    }
    return agg.aggregate().serialize();
}

/** An aggregate shard built from @p agg's exportPartials() snapshot. */
struct AggregateShard
{
    ShardManifest manifest;
    std::vector<std::string> bytes;
    std::vector<ProfileData> partials;
};

AggregateShard
snapshotAggregate(const IncrementalAggregator &agg,
                  const std::string &relay_id, uint32_t seq)
{
    PartialExport ex = agg.exportPartials();
    AggregateShard shard;
    shard.manifest.version = kManifestVersionAggregate;
    shard.manifest.host = relay_id;
    shard.manifest.workload = ex.workload;
    shard.manifest.seq = seq;
    shard.manifest.checksum = ex.checksum;
    shard.manifest.level = agg.maxLevelSeen() + 1;
    shard.manifest.profile_file = relay_id + ".hbbp";
    for (HostPartial &hp : ex.partials) {
        shard.manifest.covered.push_back({hp.host, hp.covered});
        std::string why;
        std::optional<ProfileData> pd =
            ProfileData::parse(hp.bytes, "partial", &why);
        EXPECT_TRUE(pd.has_value()) << why;
        shard.partials.push_back(std::move(*pd));
        shard.bytes.push_back(std::move(hp.bytes));
    }
    return shard;
}

/** Fold @p leaves into a throwaway aggregator, snapshot the export. */
AggregateShard
relayFold(const std::vector<LeafShard> &leaves,
          const std::string &relay_id, uint32_t seq = 0)
{
    IncrementalAggregator agg;
    for (const LeafShard &leaf : leaves) {
        std::string why;
        EXPECT_TRUE(agg.addShard(leaf.manifest, leaf.profile, &why))
            << why;
    }
    return snapshotAggregate(agg, relay_id, seq);
}

/** A listener served on a background thread (the tree's root). */
struct RootHarness
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

    ~RootHarness() { join(); }
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

/** RelayOptions tuned for tests: fast retries, loopback upstream. */
RelayOptions
fastRelayOptions(uint16_t upstream_port, size_t expect)
{
    RelayOptions ro;
    ro.upstream_port = upstream_port;
    ro.expect = expect;
    ro.idle_timeout_ms = 10'000;
    ro.upstream_retries = 5;
    ro.upstream_backoff_ms = 10;
    return ro;
}

/** A loopback port that nothing is listening on (just vacated). */
uint16_t
closedPort()
{
    ShardListener probe(0);
    return probe.port();
}

// ---------------------------------------------------------------------------
// Manifest version 2: level + covered hosts.
// ---------------------------------------------------------------------------

TEST(AggregateManifest, RoundTripsLevelAndCoverage)
{
    ShardManifest m;
    m.version = kManifestVersionAggregate;
    m.host = "relay-west";
    m.workload = "test40";
    m.seq = 3;
    m.options_hash = 0xfeed;
    m.checksum = 0xabcdef;
    m.profile_file = "relay-west.hbbp";
    m.level = 2;
    m.covered = {{"hostA", 2}, {"hostB", 1}, {"hostC", 7}};

    std::string text = m.render();
    EXPECT_NE(text.find("hbbp-shard-manifest 2\n"), std::string::npos);
    EXPECT_NE(text.find("level=2\n"), std::string::npos);
    EXPECT_NE(text.find("hosts=hostA:2,hostB:1,hostC:7\n"),
              std::string::npos);

    std::string why;
    std::optional<ShardManifest> parsed =
        ShardManifest::parse(text, &why);
    ASSERT_TRUE(parsed.has_value()) << why;
    EXPECT_EQ(*parsed, m);
    EXPECT_EQ(parsed->coveredShardCount(), 10u);
}

TEST(AggregateManifest, LeafShardsStillRenderVersion1)
{
    // Backward compatibility is the point: collectors and pre-relay
    // aggregation roots exchange the exact bytes PR 3/4 defined.
    LeafShard leaf = makeLeaf("hostA", 0, 1);
    std::string text = leaf.manifest.render();
    EXPECT_NE(text.find("hbbp-shard-manifest 1\n"), std::string::npos);
    EXPECT_EQ(text.find("level="), std::string::npos);
    EXPECT_EQ(text.find("hosts="), std::string::npos);

    std::string why;
    std::optional<ShardManifest> parsed =
        ShardManifest::parse(text, &why);
    ASSERT_TRUE(parsed.has_value()) << why;
    EXPECT_EQ(parsed->level, 0u);
    EXPECT_TRUE(parsed->covered.empty());
    EXPECT_EQ(parsed->coveredShardCount(), 1u);
}

TEST(AggregateManifest, ParseRejectsDamagedCoverage)
{
    ShardManifest m;
    m.version = kManifestVersionAggregate;
    m.host = "relay1";
    m.workload = "test40";
    m.profile_file = "relay1.hbbp";
    m.level = 1;
    m.covered = {{"hostA", 1}, {"hostB", 2}};
    std::string good = m.render();

    auto mutate = [&](const std::string &from, const std::string &to) {
        std::string text = good;
        size_t pos = text.find(from);
        EXPECT_NE(pos, std::string::npos) << from;
        text.replace(pos, from.size(), to);
        std::string why;
        EXPECT_EQ(ShardManifest::parse(text, &why), std::nullopt)
            << "mutation '" << to << "' parsed";
        return why;
    };
    // Unsorted, duplicated, zero-count, and malformed entries.
    EXPECT_NE(mutate("hosts=hostA:1,hostB:2", "hosts=hostB:2,hostA:1")
                  .find("sorted"),
              std::string::npos);
    EXPECT_NE(mutate("hosts=hostA:1,hostB:2", "hosts=hostA:1,hostA:2")
                  .find("sorted"),
              std::string::npos);
    EXPECT_NE(mutate("hostB:2", "hostB:0").find("malformed hosts"),
              std::string::npos);
    EXPECT_NE(mutate("hostB:2", "hostB").find("malformed hosts"),
              std::string::npos);
    EXPECT_NE(mutate("hostB:2", "hostB:-1").find("malformed hosts"),
              std::string::npos);
    // Level and hosts travel together.
    EXPECT_NE(mutate("level=1\n", "").find("'level' and 'hosts'"),
              std::string::npos);
    std::string no_hosts = good;
    size_t pos = no_hosts.find("hosts=");
    no_hosts = no_hosts.substr(0, pos);
    std::string why;
    EXPECT_EQ(ShardManifest::parse(no_hosts, &why), std::nullopt);
    EXPECT_NE(why.find("'level' and 'hosts'"), std::string::npos);
}

TEST(AggregateManifest, DropDirAndImportRefuseAggregates)
{
    // A flush's one payload per host cannot ride in a single drop-dir
    // file; both ends say so instead of silently flattening it.
    std::string dir = freshDir("dropdir_refuses");
    AggregateShard shard =
        relayFold({makeLeaf("hostA", 0, 1)}, "relay1");

    DropDirTransport transport(dir);
    SendResult res = transport.sendShard(shard.manifest, shard.bytes);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("socket transport"), std::string::npos);

    // A hand-planted aggregate manifest in a watch dir is skipped
    // with a diagnostic, not imported as a fake leaf.
    writeFileAtomically(dir + "/relay1.hbbp", shard.bytes[0]);
    ShardManifest planted = shard.manifest;
    planted.profile_file = "relay1.hbbp";
    planted.save(dir + "/relay1.manifest");
    std::string why;
    EXPECT_EQ(importShard(dir + "/relay1.manifest", &why),
              std::nullopt);
    EXPECT_NE(why.find("socket transport"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The aggregate-shard fold: splice, supersede, dedup.
// ---------------------------------------------------------------------------

TEST(AggregateFold, TreeMatchesFlatAggregationByteForByte)
{
    std::vector<LeafShard> leaves = {
        makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2),
        makeLeaf("hostC", 0, 3), makeLeaf("hostD", 0, 4)};
    std::string flat = flatAggregateBytes(leaves);

    AggregateShard left = relayFold({leaves[0], leaves[1]}, "relay1");
    AggregateShard right = relayFold({leaves[2], leaves[3]}, "relay2");

    IncrementalAggregator root;
    std::string why;
    ASSERT_TRUE(root.addAggregateShard(left.manifest,
                                       std::move(left.partials), &why))
        << why;
    ASSERT_TRUE(root.addAggregateShard(right.manifest,
                                       std::move(right.partials), &why))
        << why;
    EXPECT_EQ(root.aggregate().serialize(), flat);
    EXPECT_EQ(root.coveredShards(), 4u);
    EXPECT_EQ(root.hostCount(), 4u);
    EXPECT_EQ(root.stats().accepted, 2u);
    EXPECT_EQ(root.stats().aggregates, 2u);
    EXPECT_EQ(root.maxLevelSeen(), 1u);
}

TEST(AggregateFold, InterleavedHostAssignmentStaysByteIdentical)
{
    // The hard case for any design that merges aggregate blobs
    // wholesale: relay1 covers {A, C} and relay2 covers {B, D}, so no
    // concatenation of the two folds equals the sorted flat fold. The
    // per-host splice does not care.
    std::vector<LeafShard> leaves = {
        makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2),
        makeLeaf("hostC", 0, 3), makeLeaf("hostD", 0, 4)};
    std::string flat = flatAggregateBytes(leaves);

    AggregateShard odd = relayFold({leaves[0], leaves[2]}, "relay1");
    AggregateShard even = relayFold({leaves[1], leaves[3]}, "relay2");

    for (bool odd_first : {true, false}) {
        IncrementalAggregator root;
        AggregateShard a = odd_first ? odd : even;
        AggregateShard b = odd_first ? even : odd;
        std::string why;
        ASSERT_TRUE(root.addAggregateShard(
            a.manifest, std::move(a.partials), &why))
            << why;
        ASSERT_TRUE(root.addAggregateShard(
            b.manifest, std::move(b.partials), &why))
            << why;
        EXPECT_EQ(root.aggregate().serialize(), flat);
    }
}

TEST(AggregateFold, MixedAggregateAndDirectLeavesCompose)
{
    // A root can serve relays and straggler collectors on one port.
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2),
                                     makeLeaf("hostE", 0, 5)};
    std::string flat = flatAggregateBytes(leaves);

    AggregateShard relayed = relayFold({leaves[0], leaves[1]}, "r1");
    IncrementalAggregator root;
    std::string why;
    ASSERT_TRUE(root.addShard(leaves[2].manifest, leaves[2].profile,
                              &why))
        << why;
    ASSERT_TRUE(root.addAggregateShard(
        relayed.manifest, std::move(relayed.partials), &why))
        << why;
    EXPECT_EQ(root.aggregate().serialize(), flat);
    EXPECT_EQ(root.coveredShards(), 3u);
}

TEST(AggregateFold, GrowingCoverageSupersedesInAnyOrder)
{
    // A relay flushing every arrival produces a chain of aggregates
    // with strictly growing coverage; the root must land on the same
    // bytes whether it sees the chain in order, reversed, or with a
    // stale flush arriving last.
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostA", 1, 2),
                                     makeLeaf("hostB", 0, 3)};
    std::string flat = flatAggregateBytes(leaves);

    IncrementalAggregator relay;
    std::vector<AggregateShard> flushes;
    std::string why;
    for (size_t i = 0; i < leaves.size(); i++) {
        ASSERT_TRUE(relay.addShard(leaves[i].manifest,
                                   leaves[i].profile, &why))
            << why;
        flushes.push_back(snapshotAggregate(
            relay, "relay1", static_cast<uint32_t>(i)));
    }

    std::vector<std::vector<size_t>> orders = {
        {0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}};
    for (const std::vector<size_t> &order : orders) {
        IncrementalAggregator root;
        for (size_t idx : order) {
            std::vector<ProfileData> partials = flushes[idx].partials;
            root.addAggregateShard(flushes[idx].manifest,
                                   std::move(partials), &why);
        }
        EXPECT_EQ(root.aggregate().serialize(), flat)
            << "order starting with flush " << order[0];
        EXPECT_EQ(root.coveredShards(), 3u);
    }

    // The stale-arrives-late case in detail: the superseded flush is
    // confirmed (hasChecksum), counted, and folds nothing.
    IncrementalAggregator root;
    std::vector<ProfileData> partials = flushes[2].partials;
    ASSERT_TRUE(root.addAggregateShard(flushes[2].manifest,
                                       std::move(partials), &why));
    partials = flushes[0].partials;
    EXPECT_FALSE(root.addAggregateShard(flushes[0].manifest,
                                        std::move(partials), &why));
    EXPECT_NE(why.find("superseded"), std::string::npos);
    EXPECT_TRUE(root.hasChecksum(flushes[0].manifest.checksum));
    EXPECT_EQ(root.stats().superseded, 1u);
    EXPECT_EQ(root.aggregate().serialize(), flat);
}

TEST(AggregateFold, DuplicateAggregateIsConfirmedNotRefolded)
{
    AggregateShard shard = relayFold(
        {makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2)}, "relay1");
    IncrementalAggregator root;
    std::string why;
    std::vector<ProfileData> partials = shard.partials;
    ASSERT_TRUE(root.addAggregateShard(shard.manifest,
                                       std::move(partials), &why));
    std::string before = root.aggregate().serialize();

    partials = shard.partials;
    EXPECT_FALSE(root.addAggregateShard(shard.manifest,
                                        std::move(partials), &why));
    EXPECT_NE(why.find("duplicate aggregate"), std::string::npos);
    EXPECT_EQ(root.stats().duplicates, 1u);
    EXPECT_EQ(root.stats().accepted, 1u);
    EXPECT_EQ(root.aggregate().serialize(), before);
}

TEST(AggregateFold, RejectsIncompatibleAndMalformedAggregates)
{
    IncrementalAggregator root;
    std::string why;
    LeafShard base = makeLeaf("hostA", 0, 1);
    ASSERT_TRUE(root.addShard(base.manifest, base.profile, &why));

    // Incompatible periods inside an arriving partial.
    LeafShard alien = makeLeaf("hostB", 0, 2);
    alien.profile.sim_periods = {7, 3};
    alien.bytes = alien.profile.serialize(&alien.manifest.checksum);
    AggregateShard bad = relayFold({alien}, "relay1");
    std::vector<ProfileData> partials = bad.partials;
    EXPECT_FALSE(root.addAggregateShard(bad.manifest,
                                        std::move(partials), &why));
    EXPECT_NE(why.find("incompatible"), std::string::npos);
    EXPECT_EQ(root.stats().incompatible, 1u);

    // Coverage list and partials out of step.
    AggregateShard good = relayFold({makeLeaf("hostB", 0, 3)}, "r2");
    good.manifest.covered.push_back({"hostC", 1});
    partials = good.partials;
    EXPECT_FALSE(root.addAggregateShard(good.manifest,
                                        std::move(partials), &why));
    EXPECT_NE(why.find("carries"), std::string::npos);
    EXPECT_EQ(root.stats().malformed, 1u);

    // A leaf manifest handed to the aggregate fold.
    partials = good.partials;
    ShardManifest leafish = good.manifest;
    leafish.level = 0;
    leafish.covered.clear();
    EXPECT_FALSE(root.addAggregateShard(leafish, std::move(partials),
                                        &why));
    EXPECT_NE(why.find("not an aggregate"), std::string::npos);

    // None of it perturbed the aggregate.
    EXPECT_EQ(root.coveredShards(), 1u);
    EXPECT_EQ(root.stats().accepted, 1u);
}

TEST(AggregateFold, ExportPartialsRoundTripsThroughAFreshAggregator)
{
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostA", 1, 2),
                                     makeLeaf("hostB", 0, 3)};
    IncrementalAggregator relay;
    std::string why;
    for (const LeafShard &leaf : leaves)
        ASSERT_TRUE(relay.addShard(leaf.manifest, leaf.profile, &why))
            << why;
    // An out-of-order straggler that cannot ride in the aggregate.
    LeafShard orphan = makeLeaf("hostC", 2, 9);
    ASSERT_TRUE(relay.addShard(orphan.manifest, orphan.profile, &why))
        << why;

    PartialExport ex = relay.exportPartials();
    ASSERT_EQ(ex.partials.size(), 2u);
    EXPECT_EQ(ex.partials[0].host, "hostA");
    EXPECT_EQ(ex.partials[0].covered, 2u);
    EXPECT_EQ(ex.partials[1].host, "hostB");
    ASSERT_EQ(ex.orphans.size(), 1u);
    EXPECT_EQ(ex.orphans[0].host, "hostC");
    EXPECT_EQ(ex.orphans[0].seq, 2u);
    EXPECT_EQ(ex.orphans[0].checksum, orphan.manifest.checksum);
    EXPECT_EQ(ex.workload, "test40");

    // Feed the snapshot (aggregate + forwarded orphan) to a fresh
    // aggregator: byte-identical to the relay's own view.
    AggregateShard shard = snapshotAggregate(relay, "relay1", 0);
    IncrementalAggregator root;
    ASSERT_TRUE(root.addAggregateShard(shard.manifest,
                                       std::move(shard.partials),
                                       &why))
        << why;
    ASSERT_TRUE(root.addShard(orphan.manifest, orphan.profile, &why))
        << why;
    EXPECT_EQ(root.aggregate().serialize(),
              relay.aggregate().serialize());
    EXPECT_EQ(root.coveredShards(), relay.coveredShards());
}

TEST(AggregateFold, RelaysStackToArbitraryDepth)
{
    // Depth 3: leaves -> two level-1 relays -> one level-2 relay ->
    // root, against the flat fold of the same four leaves.
    std::vector<LeafShard> leaves = {
        makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2),
        makeLeaf("hostC", 0, 3), makeLeaf("hostD", 0, 4)};
    std::string flat = flatAggregateBytes(leaves);

    AggregateShard l1a = relayFold({leaves[0], leaves[1]}, "r1a");
    AggregateShard l1b = relayFold({leaves[2], leaves[3]}, "r1b");
    EXPECT_EQ(l1a.manifest.level, 1u);

    IncrementalAggregator mid;
    std::string why;
    ASSERT_TRUE(mid.addAggregateShard(l1a.manifest,
                                      std::move(l1a.partials), &why))
        << why;
    ASSERT_TRUE(mid.addAggregateShard(l1b.manifest,
                                      std::move(l1b.partials), &why))
        << why;
    AggregateShard l2 = snapshotAggregate(mid, "r2", 0);
    EXPECT_EQ(l2.manifest.level, 2u);
    EXPECT_EQ(l2.manifest.coveredShardCount(), 4u);

    IncrementalAggregator root;
    ASSERT_TRUE(root.addAggregateShard(l2.manifest,
                                       std::move(l2.partials), &why))
        << why;
    EXPECT_EQ(root.aggregate().serialize(), flat);
    EXPECT_EQ(root.maxLevelSeen(), 2u);
    EXPECT_EQ(root.coveredShards(), 4u);
}

TEST(AggregateFold, StateRoundTripCarriesRelayFields)
{
    std::string dir = freshDir("state_relay_fields");
    AggregateShard shard = relayFold(
        {makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2)}, "relay1");
    IncrementalAggregator agg;
    StateJournal journal(dir + "/agg.state");
    std::string why;
    std::vector<ProfileData> partials = shard.partials;
    ASSERT_TRUE(agg.addAggregateShard(shard.manifest, std::move(partials),
                                      &why));
    journal.record(agg, shard.manifest, shard.bytes);
    std::string before = agg.aggregate().serialize();

    IncrementalAggregator restored;
    StateJournal reopened(dir + "/agg.state");
    ASSERT_TRUE(reopened.restore(restored, &why)) << why;
    EXPECT_EQ(restored.maxLevelSeen(), 1u);
    EXPECT_EQ(restored.stats().aggregates, 1u);
    EXPECT_EQ(restored.coveredShards(), 2u);
    EXPECT_EQ(restored.aggregate().serialize(), before);
    // A re-delivered flush is still recognized after the restart.
    EXPECT_TRUE(restored.hasChecksum(shard.manifest.checksum));
}

// ---------------------------------------------------------------------------
// RelayNode end to end (in-process trees).
// ---------------------------------------------------------------------------

/** Push @p leaf to @p port, asserting delivery. */
void
pushLeaf(const LeafShard &leaf, uint16_t port)
{
    SocketTransport t(fastOptions(port));
    SendResult res = t.sendShard(leaf.manifest, {leaf.bytes});
    ASSERT_TRUE(res.ok) << res.error;
}

TEST(RelayNode, DepthTwoTreeIsByteIdenticalToFlatIngestion)
{
    std::vector<LeafShard> leaves = {
        makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2),
        makeLeaf("hostC", 0, 3), makeLeaf("hostD", 0, 4)};
    std::string flat = flatAggregateBytes(leaves);

    RootHarness root;
    ListenOptions lo;
    lo.expect = 4; // Four *covered* leaves via two aggregate arrivals.
    root.start(lo);

    RelayOptions ro1 = fastRelayOptions(root.listener.port(), 2);
    ro1.relay_id = "relay1";
    RelayOptions ro2 = fastRelayOptions(root.listener.port(), 2);
    ro2.relay_id = "relay2";
    RelayNode relay1(ro1), relay2(ro2);
    RelayStats rs1, rs2;
    std::thread t1([&] { rs1 = relay1.run(); });
    std::thread t2([&] { rs2 = relay2.run(); });

    pushLeaf(leaves[0], relay1.port());
    pushLeaf(leaves[1], relay1.port());
    pushLeaf(leaves[2], relay2.port());
    pushLeaf(leaves[3], relay2.port());
    t1.join();
    t2.join();
    root.join();

    EXPECT_TRUE(rs1.upstream_ok) << rs1.error;
    EXPECT_TRUE(rs2.upstream_ok) << rs2.error;
    EXPECT_EQ(rs1.covered, 2u);
    EXPECT_EQ(rs1.flushes, 1u);
    EXPECT_EQ(root.agg.coveredShards(), 4u);
    EXPECT_EQ(root.agg.stats().aggregates, 2u);
    EXPECT_EQ(root.agg.aggregate().serialize(), flat);
}

TEST(RelayNode, FlushEveryStreamsGrowingCoverage)
{
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2),
                                     makeLeaf("hostC", 0, 3)};
    std::string flat = flatAggregateBytes(leaves);

    RootHarness root;
    ListenOptions lo;
    lo.expect = 3;
    root.start(lo);

    RelayOptions ro = fastRelayOptions(root.listener.port(), 3);
    ro.flush_every = 1; // Every arrival goes upstream immediately.
    RelayNode relay(ro);
    RelayStats rs;
    std::thread t([&] { rs = relay.run(); });
    for (const LeafShard &leaf : leaves)
        pushLeaf(leaf, relay.port());
    t.join();
    root.join();

    EXPECT_TRUE(rs.upstream_ok) << rs.error;
    // Three mid-run flushes; the final flush had nothing new to say.
    EXPECT_EQ(rs.flushes, 3u);
    EXPECT_EQ(root.agg.aggregate().serialize(), flat);
    // Earlier flushes were superseded by later ones, never refolded.
    EXPECT_EQ(root.agg.stats().accepted, 3u);
    EXPECT_EQ(root.agg.coveredShards(), 3u);
}

TEST(RelayNode, BuffersAndRetriesWhenUpstreamIsUnreachable)
{
    // The no-shard-loss story: every downstream push is accepted and
    // acked even though the upstream never comes up; the final flush
    // fails loudly; the state file still holds everything, and a
    // restarted relay delivers it once the upstream exists.
    std::string dir = freshDir("unreachable");
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2)};
    std::string flat = flatAggregateBytes(leaves);

    RelayOptions ro = fastRelayOptions(closedPort(), 2);
    ro.flush_every = 1; // Exercise mid-run flush failures too.
    ro.upstream_retries = 2;
    ro.state_file = dir + "/relay.state";
    RelayStats rs;
    {
        RelayNode relay(ro);
        std::thread t([&] { rs = relay.run(); });
        for (const LeafShard &leaf : leaves)
            pushLeaf(leaf, relay.port()); // Acked despite dead upstream.
        t.join();
    }
    EXPECT_FALSE(rs.upstream_ok);
    EXPECT_FALSE(rs.error.empty());
    EXPECT_GE(rs.flush_failures, 2u);
    EXPECT_EQ(rs.covered, 2u);

    // Restart against a live upstream: restored coverage flows out.
    RootHarness root;
    ListenOptions lo;
    lo.expect = 2;
    root.start(lo);
    RelayOptions ro2 = fastRelayOptions(root.listener.port(), 2);
    ro2.state_file = ro.state_file;
    RelayNode relay2(ro2);
    RelayStats rs2 = relay2.run(); // Coverage restored => serves 0 new.
    root.join();

    EXPECT_TRUE(rs2.upstream_ok) << rs2.error;
    EXPECT_EQ(rs2.restored, 2u);
    EXPECT_EQ(rs2.accepted, 0u);
    EXPECT_EQ(root.agg.aggregate().serialize(), flat);
}

TEST(RelayNode, KilledRelayResumesFromStateAndRootBytesMatch)
{
    // The acceptance-criteria scenario, in-process: one relay "dies"
    // (destroyed without its final flush) after accepting a shard,
    // restarts from --state, takes the rest, and the root aggregate
    // is byte-identical to flat ingestion of all four leaves.
    std::string dir = freshDir("kill_resume");
    std::vector<LeafShard> leaves = {
        makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2),
        makeLeaf("hostC", 0, 3), makeLeaf("hostD", 0, 4)};
    std::string flat = flatAggregateBytes(leaves);

    RootHarness root;
    ListenOptions lo;
    lo.expect = 4;
    root.start(lo);

    // relay2 handles C and D normally, concurrently with the drama.
    RelayOptions ro2 = fastRelayOptions(root.listener.port(), 2);
    ro2.relay_id = "relay2";
    RelayNode relay2(ro2);
    RelayStats rs2;
    std::thread t2([&] { rs2 = relay2.run(); });
    pushLeaf(leaves[2], relay2.port());
    pushLeaf(leaves[3], relay2.port());

    // relay1 accepts hostA (journaled per accept), then "crashes":
    // expect=1 makes run() return after one shard, and we drop the
    // node before anything else — its only survivor is the state.
    RelayOptions ro1 = fastRelayOptions(closedPort(), 1);
    ro1.relay_id = "relay1";
    ro1.state_file = dir + "/relay1.state";
    ro1.upstream_retries = 1;
    {
        RelayNode relay1(ro1);
        RelayStats rs1;
        std::thread t1([&] { rs1 = relay1.run(); });
        pushLeaf(leaves[0], relay1.port());
        t1.join();
        EXPECT_FALSE(rs1.upstream_ok); // Died before delivering.
    }

    // The restarted relay1 resumes from state and takes hostB.
    RelayOptions ro1b = fastRelayOptions(root.listener.port(), 2);
    ro1b.relay_id = "relay1";
    ro1b.state_file = ro1.state_file;
    RelayNode relay1b(ro1b);
    RelayStats rs1b;
    std::thread t1b([&] { rs1b = relay1b.run(); });
    pushLeaf(leaves[1], relay1b.port());
    t1b.join();
    t2.join();
    root.join();

    EXPECT_TRUE(rs1b.upstream_ok) << rs1b.error;
    EXPECT_EQ(rs1b.restored, 1u);
    EXPECT_TRUE(rs2.upstream_ok) << rs2.error;
    EXPECT_EQ(root.agg.aggregate().serialize(), flat);
    EXPECT_EQ(root.agg.coveredShards(), 4u);
}

TEST(RelayNode, DuplicateAggregateShardAtRootIsConfirmed)
{
    // A relay that crashed after pushing but before recording success
    // re-pushes the same flush on restart; the root must confirm it
    // as a duplicate (the push "succeeded") without refolding.
    AggregateShard shard = relayFold(
        {makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2)}, "relay1");

    RootHarness root;
    ListenOptions lo;
    // No expect: coverage is complete after the first arrival, so an
    // expect-bounded serve would stop before the duplicate lands.
    lo.idle_timeout_ms = 1'500;
    root.start(lo);

    SocketTransport t(fastOptions(root.listener.port()));
    SendResult first = t.sendShard(shard.manifest, shard.bytes);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_FALSE(first.duplicate);
    SendResult second = t.sendShard(shard.manifest, shard.bytes);
    root.join();
    EXPECT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.duplicate);
    EXPECT_EQ(root.agg.stats().duplicates, 1u);
    EXPECT_EQ(root.agg.stats().accepted, 1u);
}

TEST(RelayNode, ForwardsGapStrandedOrphansVerbatim)
{
    // hostA's seq-0 shard is lost downstream; seq 1 arrives anyway.
    // The relay cannot put it inside the aggregate (coverage is a
    // gap-free prefix) so it forwards the leaf as-is, and the root
    // ends up exactly where flat ingestion of the same arrivals would.
    LeafShard straggler = makeLeaf("hostA", 1, 7);
    LeafShard normal = makeLeaf("hostB", 0, 2);
    IncrementalAggregator flat;
    std::string why;
    ASSERT_TRUE(flat.addShard(normal.manifest, normal.profile, &why));
    ASSERT_TRUE(flat.addShard(straggler.manifest, straggler.profile,
                              &why));

    RootHarness root;
    ListenOptions lo;
    lo.expect = 2;
    root.start(lo);

    RelayOptions ro = fastRelayOptions(root.listener.port(), 2);
    RelayNode relay(ro);
    RelayStats rs;
    std::thread t([&] { rs = relay.run(); });
    pushLeaf(normal, relay.port());
    pushLeaf(straggler, relay.port());
    t.join();
    root.join();

    EXPECT_TRUE(rs.upstream_ok) << rs.error;
    EXPECT_EQ(rs.orphans_forwarded, 1u);
    EXPECT_EQ(root.agg.coveredShards(), 2u);
    EXPECT_EQ(root.agg.aggregate().serialize(),
              flat.aggregate().serialize());
}

TEST(RelayNode, StatelessRelayDepositsWithoutPinning)
{
    // No --state, no restart that could inherit a pin: the deposit
    // lands unpinned, so a crashed stateless relay cannot leave an
    // entry exempt from gc forever.
    std::string dir = freshDir("stateless_store");
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2)};
    RootHarness root;
    ListenOptions lo;
    lo.expect = 2;
    root.start(lo);

    RelayOptions ro = fastRelayOptions(root.listener.port(), 2);
    ro.store_dir = dir + "/store";
    RelayNode relay(ro);
    RelayStats rs;
    std::thread t([&] { rs = relay.run(); });
    pushLeaf(leaves[0], relay.port());
    ProfileStore store(ro.store_dir);
    EXPECT_TRUE(store.containsChecksum(leaves[0].manifest.checksum));
    EXPECT_EQ(store.stats().pin_owners, 0u);
    pushLeaf(leaves[1], relay.port());
    t.join();
    root.join();

    EXPECT_TRUE(rs.upstream_ok) << rs.error;
    EXPECT_EQ(store.stats().shard_entries, 2u);
    EXPECT_EQ(store.stats().pin_owners, 0u);
}

// ---------------------------------------------------------------------------
// The incremental state journal.
// ---------------------------------------------------------------------------

/** A fresh aggregator restored from the log at @p state. */
std::string
restoredBytes(const std::string &state, size_t *replayed = nullptr)
{
    IncrementalAggregator agg;
    StateJournal journal(state);
    std::string why;
    EXPECT_TRUE(journal.restore(agg, &why)) << why;
    if (replayed)
        *replayed = journal.replayedRecords();
    return agg.restoredShards() ? agg.aggregate().serialize() : "";
}

/** Fold @p shard into @p root and log it, as a root node would. */
void
acceptFlush(IncrementalAggregator &root, StateJournal &journal,
            const AggregateShard &shard)
{
    std::vector<ProfileData> partials = shard.partials;
    std::string why;
    ASSERT_TRUE(root.addAggregateShard(shard.manifest, std::move(partials),
                                       &why))
        << why;
    journal.record(root, shard.manifest, shard.bytes);
}

size_t
fileSize(const std::string &path)
{
    std::error_code ec;
    uintmax_t n = fs::file_size(path, ec);
    return ec ? 0 : static_cast<size_t>(n);
}

TEST(StateJournalTest, ReplayMatchesFullRewriteByteForByte)
{
    // A log rewritten as soon as a check finds enough superseded and
    // a log never checked restore to the same bytes as the aggregator
    // that never stopped, and both keep folding identically.
    std::string dir = freshDir("journal_identity");
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostA", 1, 2),
                                     makeLeaf("hostB", 0, 3)};
    std::string flat = flatAggregateBytes(leaves);
    std::string rewritten = dir + "/rewritten.state";
    std::string appended = dir + "/appended.state";
    {
        // A relay flushes after each shard: {A:1}, {A:2}, {A:2, B:1}.
        IncrementalAggregator live, twin, relay;
        StateJournal eager(rewritten, /*compact_every=*/1);
        StateJournal lazy(appended, /*compact_every=*/1000);
        std::string why;
        for (size_t i = 0; i < leaves.size(); i++) {
            ASSERT_TRUE(relay.addShard(leaves[i].manifest,
                                       leaves[i].profile, &why));
            AggregateShard flush = snapshotAggregate(
                relay, "relay1", static_cast<uint32_t>(i));
            acceptFlush(live, eager, flush);
            acceptFlush(twin, lazy, flush);
        }
        EXPECT_EQ(live.aggregate().serialize(), flat);
        // Only the eager log dropped the first two flushes.
        EXPECT_EQ(eager.pendingRecords(), 0u);
        EXPECT_EQ(lazy.pendingRecords(), 3u);
        EXPECT_LT(fileSize(rewritten), fileSize(appended));
    } // Both "processes" die here.

    for (const std::string &state : {rewritten, appended}) {
        SCOPED_TRACE(state);
        IncrementalAggregator restored;
        StateJournal journal(state);
        std::string why;
        ASSERT_TRUE(journal.restore(restored, &why)) << why;
        EXPECT_EQ(restored.aggregate().serialize(), flat);
        LeafShard next = makeLeaf("hostC", 0, 9);
        ASSERT_TRUE(restored.addShard(next.manifest, next.profile, &why));
        EXPECT_EQ(restored.aggregate().serialize(),
                  flatAggregateBytes({leaves[0], leaves[1], leaves[2],
                                      next}));
    }
    // The restore rewrote the lazy log into the eager one, byte for
    // byte: the same dropped list and the same live record.
    std::string why;
    EXPECT_EQ(readFileBytes(appended, &why), readFileBytes(rewritten, &why));
}

TEST(StateJournalTest, Version3RecordsFromAnOlderBuildReplay)
{
    // An older collector build sends version-3 profile bytes under
    // version-3 manifest checksums; the log keeps them as received,
    // and they replay to the same aggregate.
    std::string dir = freshDir("journal_v3");
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2)};
    std::string flat = flatAggregateBytes(leaves);
    std::string state = dir + "/agg.state";
    {
        IncrementalAggregator agg;
        StateJournal journal(state, /*compact_every=*/1);
        std::string why;
        for (LeafShard leaf : leaves) {
            std::string v3 = testutil::encodeProfileV3(
                leaf.profile, &leaf.manifest.checksum);
            ASSERT_TRUE(agg.addShard(leaf.manifest, leaf.profile, &why))
                << why;
            journal.record(agg, leaf.manifest, {v3});
        }
    }

    IncrementalAggregator restored;
    StateJournal journal(state, /*compact_every=*/1);
    std::string why;
    ASSERT_TRUE(journal.restore(restored, &why)) << why;
    EXPECT_EQ(journal.replayedRecords(), 2u);
    EXPECT_EQ(restored.aggregate().serialize(), flat);

    LeafShard next = makeLeaf("hostC", 0, 3);
    ASSERT_TRUE(restored.addShard(next.manifest, next.profile, &why));
    journal.record(restored, next.manifest, {next.bytes});
    EXPECT_EQ(restoredBytes(state), restored.aggregate().serialize());
}

TEST(StateJournalTest, CompactsAtThresholdAndStaysRestorable)
{
    // A relay flushing hostA after each of its shards: every flush
    // supersedes the one before it. At compact_every=2 the check after
    // the second flush finds less superseded than live; the one after
    // the fourth finds more and rewrites the log.
    std::string dir = freshDir("journal_compact");
    std::string state = dir + "/agg.state";
    std::string expected;
    {
        IncrementalAggregator root, relay;
        StateJournal journal(state, /*compact_every=*/2);
        std::string why;
        size_t grown = 0;
        for (uint32_t seq = 0; seq < 5; seq++) {
            LeafShard leaf = makeLeaf("hostA", seq, 10 + seq);
            ASSERT_TRUE(relay.addShard(leaf.manifest, leaf.profile, &why));
            size_t before = fileSize(state);
            acceptFlush(root, journal, snapshotAggregate(relay, "r1", seq));
            if (seq == 3) {
                // Rewritten: the dropped list and the live flush only.
                EXPECT_EQ(journal.pendingRecords(), 0u);
                EXPECT_LT(fileSize(state), before);
                EXPECT_EQ(fileSize(state), journal.liveBytes());
            } else {
                EXPECT_EQ(journal.pendingRecords(), seq < 3 ? seq + 1 : 1);
                grown += fileSize(state) - before;
            }
        }
        EXPECT_GT(grown, 0u);
        expected = root.aggregate().serialize();
    }

    size_t replayed = 0;
    EXPECT_EQ(restoredBytes(state, &replayed), expected);
    EXPECT_EQ(replayed, 2u); // The fourth flush and the fifth.
    // That restore dropped the fourth flush: one live record is left.
    EXPECT_EQ(restoredBytes(state, &replayed), expected);
    EXPECT_EQ(replayed, 1u);
}

TEST(StateJournalTest, LeafOnlyLogIsNeverRewritten)
{
    // Nothing supersedes a leaf but a relay flush: 100 leaves at
    // compact_every=2 leave exactly the bytes a log that is never
    // checked holds — the sum of its records.
    std::string dir = freshDir("journal_leaves");
    std::string checked = dir + "/checked.state";
    std::string unchecked = dir + "/unchecked.state";
    IncrementalAggregator a, b;
    StateJournal every2(checked, /*compact_every=*/2);
    StateJournal never(unchecked, /*compact_every=*/1'000'000);
    std::string why;
    for (uint32_t i = 0; i < 100; i++) {
        LeafShard leaf = makeLeaf(i % 2 ? "hostA" : "hostB", i / 2, i);
        ASSERT_TRUE(a.addShard(leaf.manifest, leaf.profile, &why));
        ASSERT_TRUE(b.addShard(leaf.manifest, leaf.profile, &why));
        every2.record(a, leaf.manifest, {leaf.bytes});
        never.record(b, leaf.manifest, {leaf.bytes});
    }
    every2.compact(a); // Nothing to drop: a no-op.
    EXPECT_EQ(every2.pendingRecords(), 100u);
    EXPECT_EQ(readFileBytes(checked, &why),
              readFileBytes(unchecked, &why));
    EXPECT_EQ(fileSize(checked), every2.liveBytes());
    size_t replayed = 0;
    EXPECT_EQ(restoredBytes(checked, &replayed), a.aggregate().serialize());
    EXPECT_EQ(replayed, 100u);
}

TEST(StateJournalTest, GrowingFlushesFromTwoRelaysStayCompact)
{
    // A root fed by two relays, each flushing its growing fold after
    // every shard — 50 flushes — plus one of relay1's shards arriving
    // early as a gap-stranded orphan. Checked after every record, the
    // log never holds as many superseded bytes as live ones.
    std::string dir = freshDir("journal_two_relays");
    std::string state = dir + "/root.state";
    const char *hosts[2][2] = {{"hostA", "hostB"}, {"hostC", "hostD"}};
    auto leafFor = [](const char *host, uint32_t seq) {
        return makeLeaf(host, seq, std::hash<std::string>()(host) % 997 +
                                       100 * seq);
    };
    LeafShard orphan = leafFor("hostA", 6);
    std::vector<LeafShard> leaves;
    std::vector<AggregateShard> first_flushes, latest(2);
    IncrementalAggregator root, relays[2];
    StateJournal journal(state, /*compact_every=*/1);
    std::string why;
    for (uint32_t round = 0; round < 25; round++) {
        if (round == 9) {
            // hostA seq 6 overtakes seq 5 and reaches the root first.
            ASSERT_TRUE(root.addShard(orphan.manifest, orphan.profile,
                                      &why))
                << why;
            journal.record(root, orphan.manifest, {orphan.bytes});
        }
        for (int r = 0; r < 2; r++) {
            LeafShard leaf = leafFor(hosts[r][round % 2], round / 2);
            leaves.push_back(leaf);
            ASSERT_TRUE(relays[r].addShard(leaf.manifest, leaf.profile,
                                           &why));
            AggregateShard flush = snapshotAggregate(
                relays[r], r ? "relay2" : "relay1", round);
            if (round == 0)
                first_flushes.push_back(flush);
            std::vector<ProfileData> partials = flush.partials;
            if (!root.addAggregateShard(flush.manifest,
                                        std::move(partials), &why)) {
                // The orphan already took this flush's one new shard:
                // confirmed upstream, never logged.
                EXPECT_TRUE(root.hasChecksum(flush.manifest.checksum));
                continue;
            }
            journal.record(root, flush.manifest, flush.bytes);
            latest[r] = std::move(flush);
        }
        // Each relay's latest flush supersedes all of its earlier
        // ones; beside them live only the orphan while no flush covers
        // it, the framing and the dropped list.
        size_t live_payload = 0;
        for (const AggregateShard &flush : latest) {
            live_payload += flush.manifest.render().size();
            for (const std::string &payload : flush.bytes)
                live_payload += payload.size();
        }
        EXPECT_GE(journal.liveBytes(), live_payload);
        EXPECT_LT(journal.liveBytes(), live_payload + 2048);
        EXPECT_LT(fileSize(state), 2 * journal.liveBytes())
            << "round " << round;
    }
    std::string expected = root.aggregate().serialize();
    EXPECT_EQ(expected, flatAggregateBytes(leaves));

    EXPECT_EQ(restoredBytes(state), expected);
    // The restore dropped whatever the last check had left: the second
    // restore replays exactly the two live flushes.
    IncrementalAggregator restored;
    StateJournal reopened(state);
    ASSERT_TRUE(reopened.restore(restored, &why)) << why;
    EXPECT_EQ(reopened.replayedRecords(), 2u);
    EXPECT_EQ(restored.aggregate().serialize(), expected);

    // Re-deliveries of what the log dropped confirm as duplicates: a
    // superseded flush and the retired orphan.
    for (const AggregateShard &flush : first_flushes) {
        std::vector<ProfileData> partials = flush.partials;
        EXPECT_FALSE(restored.addAggregateShard(flush.manifest,
                                                std::move(partials), &why));
        EXPECT_TRUE(restored.hasChecksum(flush.manifest.checksum)) << why;
    }
    EXPECT_FALSE(restored.addShard(orphan.manifest, orphan.profile, &why));
    EXPECT_NE(why.find("duplicate shard"), std::string::npos) << why;
    EXPECT_TRUE(restored.hasChecksum(orphan.manifest.checksum));
    EXPECT_EQ(restored.aggregate().serialize(), expected);
}

TEST(StateJournalTest, TornTailRecordIsDroppedNotTrusted)
{
    std::string dir = freshDir("journal_torn");
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2)};
    std::string state = dir + "/agg.state";
    {
        IncrementalAggregator agg;
        StateJournal journal(state, 100);
        std::string why;
        for (const LeafShard &leaf : leaves) {
            ASSERT_TRUE(agg.addShard(leaf.manifest, leaf.profile,
                                     &why));
            journal.record(agg, leaf.manifest, {leaf.bytes});
        }
    }
    // Simulate a crash mid-append: half a record's worth of garbage.
    std::string why;
    std::string bytes = readFileBytes(state, &why);
    ASSERT_TRUE(why.empty()) << why;
    size_t intact = bytes.size();
    bytes += bytes.substr(0, 40); // A torn copy of a record header.
    writeFileAtomically(state, bytes);

    IncrementalAggregator restored;
    StateJournal journal(state, 100);
    EXPECT_TRUE(journal.restore(restored, &why)) << why;
    EXPECT_EQ(journal.replayedRecords(), 2u);
    EXPECT_EQ(restored.restoredShards(), 2u);
    // Dropping the tail also rewrote the file: new appends must land
    // where the next restore can reach them, not behind the damage.
    std::string healed = readFileBytes(state, &why);
    ASSERT_TRUE(why.empty()) << why;
    EXPECT_EQ(healed.size(), intact);
    LeafShard next = makeLeaf("hostC", 0, 5);
    ASSERT_TRUE(restored.addShard(next.manifest, next.profile, &why));
    journal.record(restored, next.manifest, {next.bytes});
    IncrementalAggregator after;
    StateJournal journal_after(state, 100);
    EXPECT_TRUE(journal_after.restore(after, &why)) << why;
    EXPECT_EQ(journal_after.replayedRecords(), 3u);
    EXPECT_EQ(after.aggregate().serialize(),
              restored.aggregate().serialize());

    // Corrupt a byte inside the *second* record's body: replay keeps
    // the first record and drops the damaged tail.
    bytes = bytes.substr(0, intact);
    bytes[intact - 3] ^= 0x5a;
    writeFileAtomically(state, bytes);
    IncrementalAggregator partial;
    StateJournal journal2(state, 100);
    EXPECT_TRUE(journal2.restore(partial, &why));
    EXPECT_EQ(journal2.replayedRecords(), 1u);
    EXPECT_EQ(partial.restoredShards(), 1u);
}

TEST(StateJournalTest, StateFromAnOlderBuildIsAColdStart)
{
    // An older build kept a whole-aggregate checkpoint at <state> and
    // a journal tail beside it. Either half alone would restore short;
    // neither is read, both go, and the log starts over at <state>.
    std::string dir = freshDir("journal_older_build");
    std::string state = dir + "/agg.state";
    LeafShard leaf = makeLeaf("hostA", 0, 1);
    for (bool with_checkpoint : {true, false}) {
        SCOPED_TRACE(with_checkpoint);
        uint64_t old_magic = 0x48424250'41474753ULL; // "HBBPAGGS"
        std::string checkpoint(64, '\0');
        std::memcpy(checkpoint.data(), &old_magic, sizeof(old_magic));
        fs::remove(state);
        if (with_checkpoint)
            writeFileAtomically(state, checkpoint);
        writeFileAtomically(state + ".journal", leaf.bytes);

        IncrementalAggregator agg;
        StateJournal journal(state);
        std::string why;
        EXPECT_FALSE(journal.restore(agg, &why));
        EXPECT_NE(why.find("older build"), std::string::npos) << why;
        EXPECT_EQ(agg.restoredShards(), 0u);
        EXPECT_FALSE(fs::exists(state + ".journal"));
        EXPECT_EQ(fileSize(state), 0u);

        // The next arrival is the log's first record, and restores.
        ASSERT_TRUE(agg.addShard(leaf.manifest, leaf.profile, &why));
        journal.record(agg, leaf.manifest, {leaf.bytes});
        EXPECT_EQ(restoredBytes(state), agg.aggregate().serialize());
    }
}

TEST(StateJournalTest, JournalsAggregateArrivalsWithTheirSplit)
{
    // A journaled *root* must restore aggregate arrivals through the
    // same per-host splice they originally took.
    std::string dir = freshDir("journal_aggregate");
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2)};
    std::string flat = flatAggregateBytes(leaves);
    AggregateShard shard = relayFold(leaves, "relay1");

    std::string state = dir + "/root.state";
    {
        IncrementalAggregator root;
        StateJournal journal(state, 100);
        acceptFlush(root, journal, shard);
    }

    IncrementalAggregator restored;
    StateJournal journal(state, 100);
    std::string why;
    ASSERT_TRUE(journal.restore(restored, &why)) << why;
    EXPECT_EQ(restored.restoredShards(), 1u);
    EXPECT_EQ(restored.coveredShards(), 2u);
    EXPECT_EQ(restored.stats().aggregates, 1u);
    EXPECT_EQ(restored.aggregate().serialize(), flat);
}

TEST(StateJournalTest, RecordThatCannotBeReadBackDies)
{
    // A record restore cannot read back would stop every later
    // restore there and drop the acknowledged arrivals behind it, so
    // record() refuses it outright: a manifest that does not parse, or
    // a payload count it does not allow. Only an in-process caller can
    // hand one over. A manifest without a profile file is not one of
    // them: it is logged under the name a drop-dir export gives it.
    std::string dir = freshDir("journal_unreadable");
    std::string state = dir + "/agg.state";
    LeafShard leaf = makeLeaf("hostA", 0, 1);
    AggregateShard flush =
        relayFold({makeLeaf("hostB", 0, 2), makeLeaf("hostC", 0, 3)},
                  "relay1");
    IncrementalAggregator agg;
    StateJournal journal(state);
    ShardManifest nameless = leaf.manifest;
    nameless.workload.clear();
    EXPECT_DEATH(journal.record(agg, nameless, {leaf.bytes}),
                 "cannot be recorded.*missing 'workload' field");
    EXPECT_DEATH(journal.record(agg, flush.manifest, {flush.bytes[0]}),
                 "cannot be recorded.*covering 2 hosts carries 1 payload");
    EXPECT_DEATH(journal.record(agg, leaf.manifest, {}),
                 "cannot be recorded.*leaf shard carries 0 payloads");

    ShardManifest fileless = leaf.manifest;
    fileless.profile_file.clear();
    ASSERT_TRUE(agg.addShard(fileless, leaf.profile));
    journal.record(agg, fileless, {leaf.bytes});
    size_t replayed = 0;
    EXPECT_EQ(restoredBytes(state, &replayed), agg.aggregate().serialize());
    EXPECT_EQ(replayed, 1u);
}

TEST(StateJournalTest, ColdStartIsCleanWhenNothingExists)
{
    std::string dir = freshDir("journal_cold");
    IncrementalAggregator agg;
    StateJournal journal(dir + "/none.state", 10);
    std::string why;
    EXPECT_FALSE(journal.restore(agg, &why));
    EXPECT_EQ(agg.restoredShards(), 0u);
    EXPECT_EQ(journal.replayedRecords(), 0u);
}

} // namespace
} // namespace hbbp
