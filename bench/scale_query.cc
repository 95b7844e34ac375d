/**
 * @file
 * Query-serving read-path benchmark.
 *
 * Measures the `aggregate --listen` query path end to end — a real
 * ShardListener with a co-hosted QueryEndpoint, queried over TCP by
 * QueryClient — in the regimes the epoch cache is built for:
 *
 *  - cold_qps: every query carries a distinct cutoff, so each one
 *    misses both caches and pays a full analyzer run;
 *  - cached_qps: the identical query repeated, served from the
 *    per-epoch result cache (cached_speedup = cached/cold);
 *  - batch_qps vs single_qps: one connection issuing N queries
 *    back-to-back against one fresh connection per query — what
 *    connection reuse is worth on the serving path;
 *  - cached_no_reanalysis: the service's `analyses` counter must not
 *    move across the cached repeats — the cached path never falls
 *    back to a full re-analysis. The bench fatal()s if it does, and
 *    the JSON records the check for scripts/check_bench.py.
 *
 * Output is machine-readable JSON on stdout (one object), so CI can
 * archive and diff runs. Pass --human for the table view, --quick for
 * a CI-sized run.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "analysis/service.hh"
#include "bench/common.hh"
#include "collect/collector.hh"
#include "fleet/aggregate.hh"
#include "fleet/manifest.hh"
#include "fleet/query.hh"
#include "fleet/transport.hh"
#include "support/logging.hh"
#include "support/table.hh"
#include "tools/registry.hh"

using namespace hbbp;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    using namespace std::chrono;
    return duration_cast<duration<double>>(steady_clock::now() - start)
        .count();
}

std::string
mixRequest(const std::string &cutoff)
{
    QueryRequest req;
    req.verb = "mix";
    if (!cutoff.empty())
        req.params["cutoff"] = cutoff;
    return req.renderText();
}

/** One query that must succeed; returns the reply. */
QueryReply
mustQuery(QueryClient &client, const std::string &body)
{
    QueryReply reply;
    std::string why;
    if (!client.query(body, &reply, &why))
        fatal("query failed: %s", why.c_str());
    if (!reply.ok)
        fatal("query rejected: %s", reply.error.c_str());
    return reply;
}

/** The `analyses=` counter out of a status reply payload. */
uint64_t
analysesFromStatus(QueryClient &client)
{
    QueryRequest req;
    req.verb = "status";
    QueryReply reply = mustQuery(client, req.renderText());
    size_t pos = reply.payload.find("analyses=");
    if (pos == std::string::npos)
        fatal("status payload lacks analyses=: %s",
              reply.payload.c_str());
    return std::strtoull(reply.payload.c_str() + pos + 9, nullptr, 10);
}

} // namespace

int
main(int argc, char **argv)
{
    bool human = false, quick = false;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--human") == 0)
            human = true;
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    const size_t n_hosts = quick ? 2 : 4;
    const size_t cold_iters = quick ? 8 : 32;
    const size_t cached_iters = quick ? 200 : 1000;
    const size_t batch_n = quick ? 100 : 400;

    Workload w = requireWorkloadByName("test40");
    CollectorConfig base_cc = collectorConfigFor(w);
    if (quick)
        base_cc.max_instructions = w.max_instructions / 4;

    // A small fleet's aggregate, folded in before the daemon starts —
    // this bench prices serving, not ingestion (scale_transport does
    // that).
    IncrementalAggregator agg;
    for (size_t h = 0; h < n_hosts; h++) {
        std::string host = format("host%03zu", h);
        CollectorConfig cc = base_cc;
        cc.seed = hostStreamSeed(cc.seed, host, 0);
        cc.pmu.seed =
            hostStreamSeed(cc.pmu.seed ^ 0x5851f42d4c957f2dULL, host, 0);
        ProfileData pd = Collector::collect(*w.program, MachineConfig{}, cc);
        ShardManifest m;
        m.host = host;
        m.workload = w.name;
        m.checksum = pd.payloadChecksum();
        if (!agg.addShard(m, pd))
            fatal("shard fold failed for %s", host.c_str());
    }

    AggregatorProfileSource source(agg);
    AnalysisService service(source, makeWorkloadByName);
    QueryEndpoint endpoint(service);
    ShardListener listener(0);
    ListenOptions lo;
    lo.idle_timeout_ms = -1;
    lo.on_query = [&](const std::string &body) {
        return endpoint.handle(body);
    };
    lo.should_stop = [&] { return endpoint.stopRequested(); };
    std::thread server([&] { listener.serve(agg, lo); });
    uint16_t port = listener.port();

    double cold_qps, cached_qps, batch_qps, single_qps;
    bool cached_no_reanalysis;
    {
        QueryClient client("127.0.0.1", port);

        // Cold: a distinct cutoff per query defeats both caches, so
        // every iteration pays the full analyzer run.
        auto start = std::chrono::steady_clock::now();
        for (size_t i = 0; i < cold_iters; i++)
            mustQuery(client,
                      mixRequest(format("%.3f", 18.0 + 0.001 * i)));
        cold_qps = cold_iters / secondsSince(start);

        // Cached: the identical query repeated within one epoch. The
        // first serve warms the cache; the analyses counter must not
        // move across the repeats.
        std::string warm = mixRequest("18.0");
        QueryReply first = mustQuery(client, warm);
        if (first.cached)
            fatal("warmup query unexpectedly cached");
        uint64_t analyses_before = analysesFromStatus(client);
        start = std::chrono::steady_clock::now();
        for (size_t i = 0; i < cached_iters; i++) {
            QueryReply r = mustQuery(client, warm);
            if (!r.cached)
                fatal("repeat %zu missed the epoch cache", i);
        }
        cached_qps = cached_iters / secondsSince(start);
        uint64_t analyses_after = analysesFromStatus(client);
        cached_no_reanalysis = analyses_after == analyses_before;
        if (!cached_no_reanalysis)
            fatal("cached path fell back to re-analysis "
                  "(analyses %llu -> %llu across cached repeats)",
                  static_cast<unsigned long long>(analyses_before),
                  static_cast<unsigned long long>(analyses_after));

        // Batch-of-N on this connection (already measured warm).
        start = std::chrono::steady_clock::now();
        for (size_t i = 0; i < batch_n; i++)
            mustQuery(client, warm);
        batch_qps = batch_n / secondsSince(start);

        // One fresh connection per query: what batching saves.
        start = std::chrono::steady_clock::now();
        for (size_t i = 0; i < batch_n; i++) {
            QueryClient one("127.0.0.1", port);
            mustQuery(one, warm);
        }
        single_qps = batch_n / secondsSince(start);
    }

    // Clean shutdown through the protocol, like the CLI daemon.
    {
        QueryClient client("127.0.0.1", port);
        QueryRequest req;
        req.verb = "shutdown";
        mustQuery(client, req.renderText());
    }
    server.join();

    double cached_speedup = cached_qps / cold_qps;
    double batch_speedup = batch_qps / single_qps;

    if (human) {
        bench::headline("Query serving scaling",
                        "fleet extension (no paper analogue)");
        TextTable table({"regime", "queries/s"});
        table.setAlign(1, Align::Right);
        table.addRow({"cold (distinct cutoffs)", format("%.1f", cold_qps)});
        table.addRow({"epoch-cached", format("%.1f", cached_qps)});
        table.addRow({"batch-of-N, one conn", format("%.1f", batch_qps)});
        table.addRow({"one conn per query", format("%.1f", single_qps)});
        std::printf("%s\n", table.render().c_str());
        std::printf("cached speedup: %.1fx   batch speedup: %.2fx   "
                    "no re-analysis when cached: %s\n",
                    cached_speedup, batch_speedup,
                    cached_no_reanalysis ? "yes" : "NO");
        return 0;
    }

    std::printf("{\n  \"bench\": \"scale_query\",\n");
    std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
    std::printf("  \"hosts\": %zu,\n", n_hosts);
    std::printf("  \"query\": {\n");
    std::printf("    \"cold_qps\": %.3f,\n", cold_qps);
    std::printf("    \"cached_qps\": %.3f,\n", cached_qps);
    std::printf("    \"cached_speedup\": %.3f,\n", cached_speedup);
    std::printf("    \"batch_qps\": %.3f,\n", batch_qps);
    std::printf("    \"single_qps\": %.3f,\n", single_qps);
    std::printf("    \"batch_speedup\": %.3f,\n", batch_speedup);
    std::printf("    \"cached_no_reanalysis\": %s\n",
                cached_no_reanalysis ? "true" : "false");
    std::printf("  }\n}\n");
    return 0;
}
