/**
 * @file
 * Tests for the telemetry subsystem: the metrics registry (counter
 * sharding under concurrency, histogram bucket edges, deterministic
 * snapshot bytes), the --metrics-port HTTP endpoint, shard-lifecycle
 * trace ids in the manifest (including v1 byte compatibility), the
 * JSONL event log its spans land in, and the warn() rate limiter.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/manifest.hh"
#include "fleet/metrics.hh"
#include "support/events.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace hbbp {
namespace {

using telemetry::Registry;

TEST(TelemetryCounter, ConcurrentIncrementsAreExact)
{
    Registry reg;
    telemetry::Counter &c = reg.counter("test_concurrent_total");
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20'000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; t++) {
        workers.emplace_back([&c] {
            for (uint64_t i = 0; i < kPerThread; i++)
                c.add();
        });
    }
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(TelemetryCounter, AddN)
{
    Registry reg;
    telemetry::Counter &c = reg.counter("test_addn_total");
    c.add(5);
    c.add(7);
    EXPECT_EQ(c.value(), 12u);
}

TEST(TelemetryGauge, SetAddSub)
{
    Registry reg;
    telemetry::Gauge &g = reg.gauge("test_gauge");
    g.set(10);
    g.add(3);
    g.sub(5);
    EXPECT_EQ(g.value(), 8);
    g.set(-2);
    EXPECT_EQ(g.value(), -2);
}

TEST(TelemetryHistogram, BucketEdgesAreLeSemantics)
{
    Registry reg;
    telemetry::Histogram &h = reg.histogram("test_hist", {10, 100});
    h.observe(0);   // le10
    h.observe(10);  // le10: a value equal to the bound lands inside it
    h.observe(11);  // le100
    h.observe(100); // le100
    h.observe(101); // +Inf
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 0u + 10 + 11 + 100 + 101);
}

TEST(TelemetryHistogram, SumSaturatesInsteadOfWrapping)
{
    Registry reg;
    telemetry::Histogram &h = reg.histogram("test_sat_hist", {1});
    h.observe(UINT64_MAX - 1);
    h.observe(1000);
    EXPECT_EQ(h.sum(), UINT64_MAX);
    EXPECT_EQ(h.count(), 2u);
}

TEST(TelemetryHistogram, ConcurrentObservationsCountExactly)
{
    Registry reg;
    telemetry::Histogram &h =
        reg.histogram("test_conc_hist", telemetry::latencyBucketsUs());
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 5'000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; t++) {
        workers.emplace_back([&h, t] {
            for (uint64_t i = 0; i < kPerThread; i++)
                h.observe(static_cast<uint64_t>(t) * 1000 + i % 7);
        });
    }
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(h.count(), kThreads * kPerThread);
}

TEST(TelemetryRegistry, SnapshotBytesAreDeterministic)
{
    Registry reg;
    // Registered out of order: the snapshot must sort by name.
    reg.counter("zzz_total").add(3);
    reg.gauge("mid_gauge").set(-4);
    telemetry::Histogram &h = reg.histogram("aaa_hist", {10, 100});
    h.observe(7);
    h.observe(50);
    h.observe(5000);
    EXPECT_EQ(reg.renderSnapshot(),
              "hist aaa_hist count=3 sum=5057 le10=1 le100=1 le+Inf=1\n"
              "gauge mid_gauge -4\n"
              "counter zzz_total 3\n");
    // A second render is byte-identical.
    EXPECT_EQ(reg.renderSnapshot(), reg.renderSnapshot());
}

TEST(TelemetryRegistry, PrometheusRenderIsCumulative)
{
    Registry reg;
    reg.counter("req_total").add(2);
    telemetry::Histogram &h = reg.histogram("lat_ms", {1, 4});
    h.observe(1);
    h.observe(3);
    h.observe(100);
    EXPECT_EQ(reg.renderPrometheus(),
              "# TYPE lat_ms histogram\n"
              "lat_ms_bucket{le=\"1\"} 1\n"
              "lat_ms_bucket{le=\"4\"} 2\n"
              "lat_ms_bucket{le=\"+Inf\"} 3\n"
              "lat_ms_sum 104\n"
              "lat_ms_count 3\n"
              "# TYPE req_total counter\n"
              "req_total 2\n");
}

TEST(TelemetryRegistry, FindOrCreateReturnsSameInstance)
{
    Registry reg;
    telemetry::Counter &a = reg.counter("same_total");
    telemetry::Counter &b = reg.counter("same_total");
    EXPECT_EQ(&a, &b);
    a.add();
    EXPECT_EQ(b.value(), 1u);
    // Histogram bounds: first caller wins, rediscovery ignores them.
    telemetry::Histogram &h1 = reg.histogram("hh", {1, 2});
    telemetry::Histogram &h2 = reg.histogram("hh", {500});
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(MetricsEndpoint, RoundTripAgainstLiveServer)
{
    // The endpoint serves the *process* registry; plant a marker there.
    telemetry::counter("test_endpoint_marker_total").add(42);
    MetricsServer server(0);
    ASSERT_GT(server.port(), 0);
    std::string body, why;
    ASSERT_TRUE(fetchMetricsText("127.0.0.1", server.port(), &body, &why))
        << why;
    EXPECT_NE(body.find("# TYPE test_endpoint_marker_total counter"),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("test_endpoint_marker_total 42"),
              std::string::npos)
        << body;
    // A second scrape works too (the server keeps accepting).
    std::string body2;
    ASSERT_TRUE(
        fetchMetricsText("127.0.0.1", server.port(), &body2, &why))
        << why;
    EXPECT_NE(body2.find("test_endpoint_marker_total"),
              std::string::npos);
    server.stop();
}

TEST(MetricsEndpoint, FetchFromClosedPortFails)
{
    // Bind-then-stop guarantees the port is closed when we dial it.
    uint16_t port;
    {
        MetricsServer probe(0);
        port = probe.port();
        probe.stop();
    }
    std::string body, why;
    EXPECT_FALSE(fetchMetricsText("127.0.0.1", port, &body, &why));
    EXPECT_FALSE(why.empty());
}

TEST(TraceId, DeterministicAndOpaque)
{
    ShardManifest m;
    m.host = "hostA";
    m.seq = 3;
    m.checksum = 0x1234abcdu;
    EXPECT_EQ(shardTraceId(m), "hostA-3-000000001234abcd");
    EXPECT_EQ(shardTraceId(m), shardTraceId(m));
    m.seq = 4;
    EXPECT_NE(shardTraceId(m), "hostA-3-000000001234abcd");
}

TEST(TraceId, UnstampedManifestKeepsV1Bytes)
{
    ShardManifest m;
    m.host = "h1";
    m.workload = "w";
    m.seq = 0;
    m.checksum = 7;
    std::string text = m.render();
    // No trace= line creeps into unstamped manifests: pre-tracing
    // consumers must keep seeing the exact bytes they froze on.
    EXPECT_EQ(text.find("trace="), std::string::npos);
}

TEST(TraceId, StampedManifestRoundTrips)
{
    ShardManifest m;
    m.host = "h1";
    m.workload = "w";
    m.seq = 2;
    m.checksum = 99;
    m.profile_file = "h1-2.profile";
    m.trace_ids = {"h1-2-0000000000000063", "h2-0-0000000000000001"};
    std::string text = m.render();
    EXPECT_NE(text.find("trace=h1-2-0000000000000063,"
                        "h2-0-0000000000000001"),
              std::string::npos)
        << text;
    std::string why;
    auto parsed = ShardManifest::parse(text, &why);
    ASSERT_TRUE(parsed.has_value()) << why;
    EXPECT_EQ(parsed->trace_ids, m.trace_ids);
}

TEST(TraceId, ParsesAtVersion1ForOldSenders)
{
    // A v1 manifest carrying trace= parses: the key mechanism is
    // version-independent, so stamped leaf shards pass through
    // aggregation points regardless of manifest version.
    ShardManifest m;
    m.host = "h1";
    m.workload = "w";
    m.seq = 0;
    m.checksum = 7;
    m.profile_file = "h1-0.profile";
    std::string text = m.render();
    text += "trace=h1-0-0000000000000007\n";
    std::string why;
    auto parsed = ShardManifest::parse(text, &why);
    ASSERT_TRUE(parsed.has_value()) << why;
    ASSERT_EQ(parsed->trace_ids.size(), 1u);
    EXPECT_EQ(parsed->trace_ids[0], "h1-0-0000000000000007");
}

TEST(TraceId, MalformedTraceValuesRejected)
{
    ShardManifest m;
    m.host = "h1";
    m.workload = "w";
    m.checksum = 7;
    m.profile_file = "h1-0.profile";
    std::string base = m.render();
    for (std::string bad : {"trace=\n", "trace=a, b\n", "trace=a,,b\n"}) {
        std::string why;
        EXPECT_FALSE(
            ShardManifest::parse(base + bad, &why).has_value())
            << bad;
        EXPECT_FALSE(why.empty());
    }
}

TEST(WarnRateLimiter, BurstThenSuppress)
{
    WarnRateLimiter rl(/*burst=*/2, /*interval_ms=*/1000);
    EXPECT_TRUE(rl.note("site", 0).print);
    EXPECT_TRUE(rl.note("site", 10).print);
    // Burst exhausted: the rest of the window is suppressed.
    EXPECT_FALSE(rl.note("site", 20).print);
    EXPECT_FALSE(rl.note("site", 30).print);
    // A different site has its own budget.
    EXPECT_TRUE(rl.note("other", 40).print);
}

TEST(WarnRateLimiter, WindowRolloverReportsSuppressedCount)
{
    WarnRateLimiter rl(1, 1000);
    EXPECT_TRUE(rl.note("s", 0).print);
    EXPECT_FALSE(rl.note("s", 100).print);
    EXPECT_FALSE(rl.note("s", 200).print);
    EXPECT_FALSE(rl.note("s", 300).print);
    WarnThrottleDecision d = rl.note("s", 1000);
    EXPECT_TRUE(d.print);
    EXPECT_EQ(d.suppressed, 3u);
    // The summary was delivered; the fresh window starts clean.
    WarnThrottleDecision d2 = rl.note("s", 2500);
    EXPECT_TRUE(d2.print);
    EXPECT_EQ(d2.suppressed, 0u);
}

TEST(WarnRateLimiter, ZeroBurstDisablesThrottling)
{
    WarnRateLimiter rl(0, 1000);
    for (int i = 0; i < 100; i++) {
        WarnThrottleDecision d = rl.note("s", i);
        EXPECT_TRUE(d.print);
        EXPECT_EQ(d.suppressed, 0u);
    }
}

TEST(WarnRateLimiter, ConfigureResetsState)
{
    WarnRateLimiter rl(1, 1000);
    EXPECT_TRUE(rl.note("s", 0).print);
    EXPECT_FALSE(rl.note("s", 1).print);
    rl.configure(1, 1000);
    EXPECT_TRUE(rl.note("s", 2).print);
}

TEST(Federation, NoChildrenKeepsOwnBytesAndRollsUpLocalCounters)
{
    std::string own =
        "# TYPE a_total counter\n"
        "a_total 3\n";
    EXPECT_EQ(federateMetricsText(own, {}),
              "# TYPE a_total counter\n"
              "a_total 3\n"
              "a_total{agg=\"subtree\"} 3\n");
}

TEST(Federation, ChildSeriesGainPeerLabelsAndRollupSums)
{
    std::string own =
        "# TYPE a_total counter\n"
        "a_total 3\n";
    PeerSnapshot a{"relay-a", "# TYPE a_total counter\na_total 5\n",
                   true, 0.1};
    PeerSnapshot b{"relay-b", "# TYPE a_total counter\na_total 7\n",
                   true, 0.1};
    // Hand the merge an unsorted peer list: child_up must come out
    // sorted anyway.
    std::string merged = federateMetricsText(own, {b, a});
    EXPECT_EQ(merged.find("# TYPE a_total counter\na_total 3\n"), 0u)
        << merged;
    EXPECT_NE(
        merged.find("hbbp_federation_child_up{peer=\"relay-a\"} 1\n"
                    "hbbp_federation_child_up{peer=\"relay-b\"} 1\n"),
        std::string::npos)
        << merged;
    EXPECT_NE(merged.find("a_total{peer=\"relay-a\"} 5\n"),
              std::string::npos);
    EXPECT_NE(merged.find("a_total{peer=\"relay-b\"} 7\n"),
              std::string::npos);
    EXPECT_NE(merged.find("a_total{agg=\"subtree\"} 15\n"),
              std::string::npos)
        << merged;
}

TEST(Federation, GrandchildPeerLabelsSurviveASecondMerge)
{
    // The child is itself a federating relay: its scrape carries its
    // own bare series, a grandchild's peer-labeled series, and its
    // subtree rollup. Re-merging at the root must not stack a second
    // peer label onto the grandchild's identity.
    std::string own = "# TYPE a_total counter\na_total 1\n";
    PeerSnapshot mid{"mid",
                     "# TYPE a_total counter\n"
                     "a_total 2\n"
                     "hbbp_federation_child_up{peer=\"leaf\"} 1\n"
                     "a_total{peer=\"leaf\"} 4\n"
                     "a_total{agg=\"subtree\"} 6\n",
                     true, 0.0};
    std::string merged = federateMetricsText(own, {mid});
    EXPECT_NE(merged.find("a_total{peer=\"leaf\"} 4\n"),
              std::string::npos)
        << merged;
    EXPECT_EQ(merged.find("peer=\"leaf\",peer=\"mid\""),
              std::string::npos)
        << merged;
    EXPECT_NE(merged.find("a_total{peer=\"mid\"} 2\n"),
              std::string::npos);
    EXPECT_NE(merged.find("a_total{agg=\"subtree\",peer=\"mid\"} 6\n"),
              std::string::npos)
        << merged;
    // The root rollup consumes the child's *subtree* value (6), not
    // its bare one (2), so totals compose across depth: 1 + 6.
    EXPECT_NE(merged.find("\na_total{agg=\"subtree\"} 7\n"),
              std::string::npos)
        << merged;
}

TEST(Federation, StaleChildContributesOnlyTheDownGauge)
{
    std::string own = "# TYPE a_total counter\na_total 3\n";
    PeerSnapshot dead{"relay-dead",
                      "# TYPE a_total counter\na_total 100\n",
                      /*fresh=*/false, 9.7};
    std::string merged = federateMetricsText(own, {dead});
    EXPECT_NE(
        merged.find("hbbp_federation_child_up{peer=\"relay-dead\"} 0\n"),
        std::string::npos)
        << merged;
    // Its last-known series and rollup contribution are dropped: a
    // dead child must not freeze stale totals into the fleet view.
    EXPECT_EQ(merged.find("a_total{peer=\"relay-dead\"}"),
              std::string::npos);
    EXPECT_NE(merged.find("a_total{agg=\"subtree\"} 3\n"),
              std::string::npos)
        << merged;
}

TEST(Federation, FederatorScrapesThenDeclaresDeadChildrenStale)
{
    telemetry::counter("test_federator_marker_total").add(9);
    auto server = std::make_unique<MetricsServer>(0);
    MetricsFederator fed(/*interval_s=*/0.05, /*stale_after_s=*/0.4);
    fed.noteChild("childA", format("127.0.0.1:%u", server->port()));
    EXPECT_EQ(fed.childCount(), 1u);
    bool fresh = false;
    for (int i = 0; i < 100 && !fresh; i++) {
        std::vector<PeerSnapshot> snaps = fed.snapshots();
        fresh = snaps.size() == 1 && snaps[0].fresh;
        if (!fresh)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_TRUE(fresh);
    std::vector<PeerSnapshot> snaps = fed.snapshots();
    EXPECT_NE(snaps[0].text.find("test_federator_marker_total"),
              std::string::npos);
    std::string lines;
    EXPECT_TRUE(fed.childrenUp(&lines));
    EXPECT_NE(lines.find("child childA up=1"), std::string::npos)
        << lines;
    // Kill the child; once the grace window passes it reads as down.
    server.reset();
    bool stale = false;
    for (int i = 0; i < 100 && !stale; i++) {
        std::string l2;
        stale = !fed.childrenUp(&l2);
        if (!stale)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_TRUE(stale);
    fed.stop();
}

TEST(HealthBeats, StallLogicUsesTheNowSeam)
{
    telemetry::beatResetForTest();
    telemetry::beatEnable(telemetry::Stage::Listener);
    telemetry::beat(telemetry::Stage::Listener);
    int64_t now = telemetry::healthNowMs();
    EXPECT_FALSE(telemetry::anyStageStalled(now, 10.0));
    std::vector<std::string> stalled;
    EXPECT_TRUE(telemetry::anyStageStalled(now + 30'000, 10.0,
                                           &stalled));
    ASSERT_EQ(stalled.size(), 1u);
    EXPECT_EQ(stalled[0], "listener");
    telemetry::beatResetForTest();
}

TEST(HealthBeats, WorkStagesReportButNeverDegrade)
{
    telemetry::beatResetForTest();
    telemetry::beatEnable(telemetry::Stage::Fold);
    telemetry::beat(telemetry::Stage::Fold);
    int64_t now = telemetry::healthNowMs();
    // A fold stage that has not run for an hour is idle, not stuck:
    // work stages only report their age.
    EXPECT_FALSE(telemetry::anyStageStalled(now + 3'600'000, 0.5));
    std::string body = telemetry::renderHealth(now + 2000, 0.5);
    EXPECT_EQ(body.find("status: live\n"), 0u) << body;
    EXPECT_NE(body.find("stage fold"), std::string::npos) << body;
    EXPECT_NE(body.find("loop=0"), std::string::npos) << body;
    telemetry::beatResetForTest();
}

TEST(HealthBeats, RenderHealthDegradesOnAStalledLoopStage)
{
    telemetry::beatResetForTest();
    telemetry::beatEnable(telemetry::Stage::Listener);
    telemetry::beat(telemetry::Stage::Listener);
    std::string body =
        telemetry::renderHealth(telemetry::healthNowMs() + 10'000, 1.0);
    EXPECT_EQ(body.find("status: degraded\n"), 0u) << body;
    EXPECT_NE(body.find("stage listener"), std::string::npos) << body;
    EXPECT_NE(body.find("loop=1"), std::string::npos) << body;
    telemetry::beatResetForTest();
}

TEST(HealthBeats, HealthzEndpointServesLiveAndHonorsRendererSwap)
{
    telemetry::beatResetForTest();
    MetricsServer server(0);
    std::string body, why;
    ASSERT_TRUE(fetchMetricsText("127.0.0.1", server.port(), &body,
                                 &why, "/healthz"))
        << why;
    EXPECT_EQ(body.find("status: live"), 0u) << body;
    server.setHealthzRenderer(
        [] { return std::string("status: degraded\ncustom\n"); });
    ASSERT_TRUE(fetchMetricsText("127.0.0.1", server.port(), &body,
                                 &why, "/healthz"))
        << why;
    EXPECT_EQ(body.find("status: degraded"), 0u) << body;
    server.stop();
}

TEST(HealthBeats, UnreachableFederationChildDegradesHealthz)
{
    telemetry::beatResetForTest();
    MetricsFederator fed(/*interval_s=*/0.05, /*stale_after_s=*/0.2);
    fed.noteChild("ghost", "127.0.0.1:1"); // nothing listens there
    std::string body = renderHealthz(30.0, &fed);
    EXPECT_NE(body.find("child ghost"), std::string::npos) << body;
    bool degraded = false;
    for (int i = 0; i < 100 && !degraded; i++) {
        degraded = startsWith(renderHealthz(30.0, &fed),
                              "status: degraded");
        if (!degraded)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_TRUE(degraded);
    fed.stop();
    telemetry::beatResetForTest();
}

TEST(Events, EmitLoadRoundTripAndFilters)
{
    std::string log = testing::TempDir() + "/events_roundtrip.jsonl";
    std::remove(log.c_str());
    events::openLog(log, "nodeX");
    events::emit(events::Level::Warn, "shard_reject",
                 {{"reason", "bad \"quote\" back\\slash\ttab"}});
    events::emit(events::Level::Info, "store_gc_evict",
                 {{"checksum", "00ff"}});
    // A shard-lifecycle span: an info event keyed by its trace id.
    events::emit(events::Level::Info, "push_start",
                 {{"trace", "h1-0-abc"}, {"seq", "0"}});
    std::vector<events::Event> all;
    std::string why;
    ASSERT_TRUE(events::loadEvents(log, "", 0, &all, &why)) << why;
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0].code, "shard_reject");
    EXPECT_EQ(all[0].level, events::Level::Warn);
    EXPECT_EQ(all[0].node, "nodeX");
    EXPECT_EQ(all[0].field("reason"), "bad \"quote\" back\\slash\ttab");
    EXPECT_GT(all[0].ts_us, 0u);
    EXPECT_EQ(all[2].code, "push_start");
    EXPECT_EQ(all[2].level, events::Level::Info);
    EXPECT_EQ(all[2].field("trace"), "h1-0-abc");
    EXPECT_EQ(all[2].field("seq"), "0");
    EXPECT_LE(all[0].ts_us, all[2].ts_us);
    std::vector<events::Event> evict;
    ASSERT_TRUE(
        events::loadEvents(log, "store_gc_evict", 0, &evict, &why))
        << why;
    ASSERT_EQ(evict.size(), 1u);
    EXPECT_EQ(evict[0].level, events::Level::Info);
    std::vector<events::Event> none;
    ASSERT_TRUE(events::loadEvents(log, "", all[2].ts_us / 1000 + 60'000,
                                   &none, &why))
        << why;
    EXPECT_TRUE(none.empty());
    // On disk: one object per line, led by the microsecond stamp, with
    // the JSON metacharacters escaped.
    std::ifstream in(log);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("{\"ts_us\":", 0), 0u) << line;
    EXPECT_NE(line.find("bad \\\"quote\\\" back\\\\slash\\ttab"),
              std::string::npos)
        << line;
    events::openLog("", "");
}

TEST(Events, AnEmptyPathClosesTheLog)
{
    std::string log = testing::TempDir() + "/events_close.jsonl";
    std::remove(log.c_str());
    events::openLog(log, "unit");
    EXPECT_TRUE(events::logActive());
    events::emit(events::Level::Info, "before_close", {});
    events::openLog("", "");
    EXPECT_FALSE(events::logActive());
    events::emit(events::Level::Info, "after_close", {}); // a no-op
    std::vector<events::Event> evs;
    std::string why;
    ASSERT_TRUE(events::loadEvents(log, "", 0, &evs, &why)) << why;
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].code, "before_close");
}

TEST(Events, MalformedLinesFailTheLoadLoudly)
{
    std::string log = testing::TempDir() + "/events_malformed.jsonl";
    {
        std::ofstream out(log, std::ios::trunc);
        out << "{\"ts_us\":1,\"level\":\"warn\",\"code\":\"x\","
               "\"node\":\"n\",\"fields\":{}}\n"
            << "not json\n";
    }
    std::vector<events::Event> evs;
    std::string why;
    EXPECT_FALSE(events::loadEvents(log, "", 0, &evs, &why));
    EXPECT_NE(why.find(":2:"), std::string::npos) << why;

    // A record stamped in milliseconds (the format before microsecond
    // stamps) has no ts_us: it fails too.
    {
        std::ofstream out(log, std::ios::trunc);
        out << "{\"ts_ms\":1,\"level\":\"warn\",\"code\":\"x\","
               "\"node\":\"n\",\"fields\":{}}\n";
    }
    why.clear();
    EXPECT_FALSE(events::loadEvents(log, "", 0, &evs, &why));
    EXPECT_NE(why.find(":1:"), std::string::npos) << why;

    // A directory is not a log, even though it opens.
    why.clear();
    EXPECT_FALSE(events::loadEvents(testing::TempDir(), "", 0, &evs, &why));
    EXPECT_NE(why.find("not a regular file"), std::string::npos) << why;
}

TEST(Events, RenderIsOneGreppableLine)
{
    events::Event e;
    e.ts_us = 42'999;
    e.level = events::Level::Error;
    e.code = "watchdog_stall";
    e.node = "relay-1";
    e.fields = {{"stage", "listener"}};
    EXPECT_EQ(e.render(),
              "42 error watchdog_stall node=relay-1 stage=listener");
}

TEST(Watchdog, WedgedListenerTripsExactlyOneStallEvent)
{
    telemetry::beatResetForTest();
    std::string log = testing::TempDir() + "/watchdog_events.jsonl";
    std::remove(log.c_str());
    events::openLog(log, "unit");
    // A listener that beat once and then wedged: its heartbeat ages
    // past the threshold while the watchdog polls.
    telemetry::beatEnable(telemetry::Stage::Listener);
    telemetry::beat(telemetry::Stage::Listener);
    uint64_t before =
        telemetry::counter("hbbp_watchdog_stalls_total").value();
    events::StallWatchdog wd;
    wd.start(0.05);
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    wd.stop();
    EXPECT_GE(telemetry::counter("hbbp_watchdog_stalls_total").value(),
              before + 1);
    std::vector<events::Event> evs;
    std::string why;
    ASSERT_TRUE(
        events::loadEvents(log, "watchdog_stall", 0, &evs, &why))
        << why;
    // One event per stall episode, not one per poll round.
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].level, events::Level::Error);
    EXPECT_EQ(evs[0].field("stage"), "listener");
    EXPECT_EQ(evs[0].node, "unit");
    events::openLog("", "");
    telemetry::beatResetForTest();
}

} // namespace
} // namespace hbbp
