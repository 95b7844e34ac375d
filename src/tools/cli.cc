/**
 * @file
 * hbbp-tool — the command-line front end, mirroring the paper's
 * two-phase collector/analyzer workflow:
 *
 *   hbbp-tool version
 *   hbbp-tool list
 *   hbbp-tool collect <workload> -o <profile> [--jobs N] [--shards N]
 *                     [--store DIR]
 *   hbbp-tool merge   -o <profile> <in1> <in2> ...
 *   hbbp-tool batch   <w1,w2,...|all> [--jobs N] [--shards N]
 *                     [--store DIR] [--top N] [--csv]
 *   hbbp-tool export  <workload> --host ID --export-dir DIR [--seq N]
 *                     [--jobs N] [--shards N] [--store DIR]
 *   hbbp-tool push    <workload> --host ID (--to HOST:PORT |
 *                     --export-dir DIR) [--seq N] [--chunks N]
 *                     [--retries N] [--jobs N] [-o <profile>]
 *                     [--event-log FILE]
 *   hbbp-tool aggregate (--watch-dir DIR | --listen PORT)
 *                     [-o <profile>] [--expect N] [--timeout-ms N]
 *                     [--store DIR] [--state FILE] [--port-file FILE]
 *                     [--bind ADDR]
 *   hbbp-tool relay   --listen PORT --to HOST:PORT [--relay-id ID]
 *                     [--flush-every N] [--expect N] [--timeout-ms N]
 *                     [--state FILE] [--retries N] [--bind ADDR]
 *                     [--port-file FILE] [--store DIR]
 *   hbbp-tool query   --from HOST:PORT <verb> [--host H] [options]
 *   hbbp-tool store   gc --store DIR [--max-age-s N] [--max-bytes N]
 *   hbbp-tool store   (stat|verify) --store DIR
 *   hbbp-tool stats   [--from HOST:PORT] [--tree] [--healthz]
 *                     [--watch N [--count M]]
 *   hbbp-tool events  --from FILE [--code C] [--since T]
 *   hbbp-tool migrate <profile-in> [-o <profile-out>]
 *   hbbp-tool analyze <workload> -i <profile> [options]
 *   hbbp-tool report  <workload> [-i <profile>] [options]
 *   hbbp-tool fdo     <workload> -i <profile> [-o FILE] [options]
 *
 * Per-command options are declared in tools/options.hh; the analysis
 * flags (--source/--cutoff/--no-bias-rule/--patch-kernel/--pivot/
 * --top/--function/--format) are shared by analyze, report, fdo and
 * query, and --format text|csv|json renders any analysis view
 * uniformly (--csv remains an alias for --format csv).
 *
 * `aggregate --listen` is also the query-serving daemon: the shard
 * port answers hbbp-query/1, serving mix/report/fdo/hosts/status
 * queries over the live aggregate with per-epoch result caching.
 * query is the matching client; its stdout carries exactly the bytes
 * offline analyze/report would print, with `epoch=N cached=K`
 * metadata on stderr. A `shutdown` verb stops the daemon
 * deterministically, and `--timeout-ms 0` (on every daemon) turns the
 * idle exit off.
 */

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/service.hh"
#include "fleet/aggregate.hh"
#include "fleet/batch.hh"
#include "fleet/manifest.hh"
#include "fleet/merge.hh"
#include "fleet/metrics.hh"
#include "fleet/node.hh"
#include "fleet/query.hh"
#include "fleet/relay.hh"
#include "fleet/shard.hh"
#include "fleet/socket_client.hh"
#include "fleet/store.hh"
#include "fleet/transport.hh"
#include "hbbp/version.hh"
#include "support/bytes.hh"
#include "support/events.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "tools/options.hh"
#include "tools/profiler.hh"
#include "tools/registry.hh"

using namespace hbbp;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: hbbp-tool version\n"
                 "       hbbp-tool list\n"
                 "       hbbp-tool collect <workload> -o <profile> "
                 "[--jobs N] [--shards N] [--store DIR]\n"
                 "       hbbp-tool merge -o <profile> <in1> <in2> ...\n"
                 "       hbbp-tool batch <w1,w2,...|all> [--jobs N] "
                 "[--shards N] [--store DIR]\n"
                 "                 [--top N] [--csv]\n"
                 "       hbbp-tool export <workload> --host ID "
                 "--export-dir DIR [--seq N]\n"
                 "                 [--jobs N] [--shards N] [--store DIR]\n"
                 "       hbbp-tool push <workload> --host ID "
                 "(--to HOST:PORT | --export-dir DIR)\n"
                 "                 [--seq N] [--chunks N] [--retries N] "
                 "[--jobs N] [-o <profile>]\n"
                 "                 [--event-log FILE]\n"
                 "       hbbp-tool aggregate (--watch-dir DIR | "
                 "--listen PORT) [-o <profile>]\n"
                 "                 [--expect N] [--timeout-ms N] "
                 "[--store DIR] [--state FILE]\n"
                 "                 [--port-file FILE] [--bind ADDR]\n"
                 "       hbbp-tool relay --listen PORT --to HOST:PORT "
                 "[--relay-id ID]\n"
                 "                 [--flush-every N] [--expect N] "
                 "[--timeout-ms N] [--state FILE]\n"
                 "                 [--retries N] [--bind ADDR] "
                 "[--port-file FILE] [--store DIR]\n"
                 "       (daemons also take --metrics-port N "
                 "--event-log FILE --stall-warn-s N;\n"
                 "        --timeout-ms 0 never idles out)\n"
                 "       hbbp-tool query --from HOST:PORT "
                 "<mix|report|fdo|hosts|status|shutdown>\n"
                 "                 [--host ID] [--format text|csv|json] "
                 "[analysis options]\n"
                 "       hbbp-tool store gc --store DIR "
                 "[--max-age-s N] [--max-bytes N]\n"
                 "       hbbp-tool store (stat|verify) --store DIR\n"
                 "       hbbp-tool stats [--from HOST:PORT] [--tree] "
                 "[--healthz]\n"
                 "                 [--watch N [--count M]]\n"
                 "       hbbp-tool events --from FILE [--code C] "
                 "[--since T]\n"
                 "       hbbp-tool migrate <profile-in> "
                 "[-o <profile-out>]\n"
                 "       hbbp-tool analyze <workload> -i <profile> "
                 "[--source hbbp|ebs|lbr] [--cutoff N]\n"
                 "                 [--no-bias-rule] [--patch-kernel] "
                 "[--pivot dims] [--top N]\n"
                 "                 [--function NAME] "
                 "[--format text|csv|json]\n"
                 "       hbbp-tool report <workload> [-i <profile>] "
                 "[--format text|csv|json]\n"
                 "       hbbp-tool fdo <workload> -i <profile> "
                 "[-o FILE] [--cutoff N]\n"
                 "                 [--format text|csv|json]\n");
    std::exit(2);
}

void
onSigUsr1(int)
{
    // Async-signal-safe: one relaxed store; the daemon's accept loop
    // polls dumpIfRequested() and prints the snapshot from there.
    telemetry::requestDump();
}

/**
 * A daemon's whole health plane, torn down in one place: the
 * metrics/healthz endpoint, the federation scraper behind it, and the
 * stall watchdog. stop() order matters — the watchdog and federator
 * reference telemetry state the server renders, so they go first.
 */
struct Observability
{
    std::unique_ptr<MetricsServer> server;
    std::unique_ptr<MetricsFederator> federator;
    events::StallWatchdog watchdog;
    /** HOST:PORT children should scrape; "" when metrics are off. */
    std::string endpoint;

    void
    stop(const char *banner)
    {
        watchdog.stop();
        if (federator)
            federator->stop();
        if (server) {
            server->stop();
            telemetry::dumpSnapshot(banner);
        }
    }
};

/**
 * Daemon observability setup shared by aggregate and relay:
 * open the structured event log, arm the stall watchdog and the
 * SIGUSR1 snapshot dump, and start the metrics endpoint when
 * requested (reporting the bound port for scripts). Every daemon
 * federates: children discovered from `metrics=` manifest lines are
 * scraped and merged into this daemon's own /metrics body, and
 * /healthz degrades on a stalled loop stage or a stale child.
 */
std::unique_ptr<Observability>
startObservability(const DaemonOptions &opts, const std::string &node)
{
    std::signal(SIGUSR1, onSigUsr1);
    auto obs = std::make_unique<Observability>();
    events::openLog(opts.event_log, node);
    obs->watchdog.start(opts.stall_warn_s);
    if (opts.metrics_port < 0)
        return obs;
    obs->server = std::make_unique<MetricsServer>(
        static_cast<uint16_t>(opts.metrics_port));
    obs->endpoint = format("127.0.0.1:%u", obs->server->port());
    obs->federator = std::make_unique<MetricsFederator>();
    MetricsFederator *fed = obs->federator.get();
    obs->server->setMetricsRenderer([fed] {
        return federateMetricsText(
            telemetry::registry().renderPrometheus(),
            fed->snapshots());
    });
    // The watchdog threshold doubles as the healthz degrade
    // threshold; without --stall-warn-s keep the server's default.
    double stall_s = opts.stall_warn_s > 0 ? opts.stall_warn_s : 30.0;
    obs->server->setHealthzRenderer(
        [stall_s, fed] { return renderHealthz(stall_s, fed); });
    std::printf("metrics on port %u\n", obs->server->port());
    std::fflush(stdout);
    if (!opts.metrics_port_file.empty())
        writeFileAtomically(opts.metrics_port_file,
                            format("%u\n", obs->server->port()));
    return obs;
}

int
cmdList()
{
    for (const std::string &w : workloadNames())
        std::printf("%s\n", w.c_str());
    return 0;
}

int
cmdCollect(const CollectOptions &opts)
{
    if (opts.profile_out.empty())
        fatal("collect requires -o <profile>");
    Workload w = requireWorkloadByName(opts.workload);
    CollectorConfig cc = collectorConfigFor(w);

    ShardPlan plan;
    plan.shards = opts.coll.shards;
    plan.jobs = opts.coll.jobs;

    ProfileData pd;
    bool cache_hit = false;
    if (!opts.coll.store_dir.empty()) {
        ProfileStore store(opts.coll.store_dir);
        ProfileKey key{w.name, cc, plan.shards, MachineConfig{}};
        pd = store.getOrCollect(key, *w.program, plan.jobs, &cache_hit);
    } else {
        pd = collectSharded(*w.program, MachineConfig{}, cc, plan);
    }
    pd.save(opts.profile_out);
    std::printf("collected %zu EBS samples + %zu LBR stacks from %llu "
                "instructions (%u shard%s%s) -> %s\n",
                pd.ebs.size(), pd.lbr.size(),
                static_cast<unsigned long long>(
                    pd.features.instructions),
                plan.shards, plan.shards == 1 ? "" : "s",
                cache_hit ? ", store hit" : "",
                opts.profile_out.c_str());
    return 0;
}

int
cmdMerge(const MergeOptions &opts)
{
    if (opts.profile_out.empty())
        fatal("merge requires -o <profile>");
    if (opts.inputs.size() < 2)
        fatal("merge requires at least two input profiles");
    std::vector<ProfileData> shards;
    shards.reserve(opts.inputs.size());
    for (const std::string &path : opts.inputs)
        shards.push_back(ProfileData::load(path));
    ProfileData merged = mergeProfiles(shards);
    merged.save(opts.profile_out);
    std::printf("merged %zu profiles: %zu EBS samples + %zu LBR stacks "
                "-> %s\n", shards.size(), merged.ebs.size(),
                merged.lbr.size(), opts.profile_out.c_str());
    return 0;
}

int
cmdBatch(const BatchOptions &opts)
{
    std::vector<std::string> workloads;
    if (opts.workloads == "all")
        workloads = workloadNames();
    else
        workloads = split(opts.workloads, ',');

    BatchConfig bc;
    bc.shards = opts.coll.shards;
    bc.jobs = opts.coll.jobs;
    bc.store_dir = opts.coll.store_dir;
    bc.analyzer.map.patch_kernel_text = opts.analysis.patch_kernel;
    bc.analyzer.classifier = std::make_shared<CutoffClassifier>(
        opts.analysis.cutoff, opts.analysis.bias_rule);

    BatchResult res = runBatch(workloads, bc);

    TextTable summary = res.summaryTable();
    TextTable mix = res.aggregateMixTable(opts.analysis.top);
    if (opts.analysis.format == "csv") {
        std::printf("%s\n%s", summary.renderCsv().c_str(),
                    mix.renderCsv().c_str());
    } else {
        std::printf("batch: %zu workloads, %u shards each, %u jobs, "
                    "%zu store hit%s\n\n", res.entries.size(),
                    bc.shards, bc.jobs, res.cache_hits,
                    res.cache_hits == 1 ? "" : "s");
        std::printf("%s\n", summary.render().c_str());
        std::printf("aggregated fleet mix:\n%s", mix.render().c_str());
    }
    return 0;
}

/**
 * The simulated-host collector: collect (host-seeded, so distinct
 * hosts produce distinct but reproducible profiles) and export the
 * result as a shard into a drop directory.
 */
int
cmdExport(const ExportOptions &opts)
{
    if (opts.host.empty())
        fatal("export requires --host <id>");
    if (opts.export_dir.empty())
        fatal("export requires --export-dir <dir>");
    Workload w = requireWorkloadByName(opts.workload);
    CollectorConfig cc = collectorConfigFor(w);
    cc.seed = hostStreamSeed(cc.seed, opts.host, opts.seq);
    cc.pmu.seed = hostStreamSeed(cc.pmu.seed ^ 0x5851f42d4c957f2dULL,
                                 opts.host, opts.seq);

    ShardPlan plan;
    plan.shards = opts.coll.shards;
    plan.jobs = opts.coll.jobs;
    ProfileKey key{w.name, cc, plan.shards, MachineConfig{}};

    ProfileData pd;
    bool cache_hit = false;
    if (!opts.coll.store_dir.empty()) {
        ProfileStore store(opts.coll.store_dir);
        pd = store.getOrCollect(key, *w.program, plan.jobs, &cache_hit);
    } else {
        pd = collectSharded(*w.program, MachineConfig{}, cc, plan);
    }

    ShardManifest manifest;
    std::string manifest_path =
        exportShard(pd, opts.host, w.name, opts.seq, key.hash(),
                    opts.export_dir, &manifest);
    std::printf("exported shard host=%s seq=%u workload=%s "
                "checksum=%016llx (%zu EBS samples + %zu LBR stacks%s) "
                "-> %s\n",
                opts.host.c_str(), opts.seq, w.name.c_str(),
                static_cast<unsigned long long>(manifest.checksum),
                pd.ebs.size(), pd.lbr.size(),
                cache_hit ? ", store hit" : "", manifest_path.c_str());
    return 0;
}

/**
 * Export's sibling over the pluggable transport layer: collect
 * host-seeded, then *push* the shard — to an `aggregate --listen`
 * socket (optionally streamed as N partial chunks) or through the
 * drop-directory transport.
 */
int
cmdPush(const PushOptions &opts)
{
    if (opts.host.empty())
        fatal("push requires --host <id>");
    // Fail here, not as a listener rejection after the collection ran.
    if (!validHostId(opts.host))
        fatal("invalid host id '%s' (must be non-empty, without "
              "whitespace, '/', ',' or ':')", opts.host.c_str());
    if (opts.to.empty() == opts.export_dir.empty())
        fatal("push requires exactly one of --to <host:port> or "
              "--export-dir <dir>");
    if (opts.chunks == 0)
        fatal("--chunks must be >= 1");
    Workload w = requireWorkloadByName(opts.workload);
    CollectorConfig cc = collectorConfigFor(w);
    cc.seed = hostStreamSeed(cc.seed, opts.host, opts.seq);
    cc.pmu.seed = hostStreamSeed(cc.pmu.seed ^ 0x5851f42d4c957f2dULL,
                                 opts.host, opts.seq);

    // Collect --chunks shards whose in-order merge is the shard
    // profile. All of them are collected before the first frame goes
    // out: a chunk bounds one frame's size, and a resumed send skips
    // the chunks the receiver already acknowledged.
    ShardPlan plan;
    plan.shards = opts.chunks;
    plan.jobs = opts.jobs;
    ProfileKey key{w.name, cc, plan.shards, MachineConfig{}};
    std::vector<ProfileData> parts =
        collectShards(*w.program, MachineConfig{}, cc, plan);
    ProfileData merged = mergeProfiles(parts);

    ShardManifest manifest;
    manifest.host = opts.host;
    manifest.workload = w.name;
    manifest.seq = opts.seq;
    manifest.options_hash = key.hash();

    std::vector<std::string> chunks;
    if (opts.chunks == 1) {
        chunks.push_back(merged.serialize(&manifest.checksum));
    } else {
        // Chunked mode sends the parts; the merged profile only
        // contributes its checksum, so skip serializing its bytes.
        manifest.checksum = merged.payloadChecksum();
        chunks.reserve(parts.size());
        for (const ProfileData &part : parts)
            chunks.push_back(part.serialize());
    }
    if (!opts.profile_out.empty())
        merged.save(opts.profile_out);

    // Tracing is opt-in: a push with an event log stamps the shard's
    // trace id into the manifest (so relays and the root can attribute
    // it), and an unstamped push keeps the exact pre-tracing manifest
    // bytes.
    events::openLog(opts.event_log, "collector:" + opts.host);
    std::string trace_id;
    if (events::logActive()) {
        trace_id = shardTraceId(manifest);
        manifest.trace_ids.push_back(trace_id);
    }

    SendResult res;
    events::emit(events::Level::Info, "push_start",
                 {{"trace", trace_id},
                  {"seq", format("%u", opts.seq)},
                  {"chunks", format("%zu", chunks.size())}});
    if (!opts.to.empty()) {
        SocketTransportOptions so;
        parseHostPort(opts.to, "--to", &so.host, &so.port);
        so.max_attempts = std::max(opts.retries, 1);
        SocketTransport transport(so);
        transport.fail_after_chunks = opts.fail_after;
        res = transport.sendShard(manifest, chunks);
    } else {
        DropDirTransport transport(opts.export_dir);
        res = transport.sendShard(manifest, chunks);
    }
    if (!res.ok)
        fatal("push failed: %s", res.error.c_str());
    events::emit(events::Level::Info, "push_acked",
                 {{"trace", trace_id},
                  {"attempts", format("%d", res.attempts)},
                  {"duplicate", res.duplicate ? "1" : "0"}});

    std::printf("pushed shard host=%s seq=%u workload=%s "
                "checksum=%016llx (%zu chunk%s, %d attempt%s%s) "
                "-> %s\n",
                opts.host.c_str(), opts.seq, w.name.c_str(),
                static_cast<unsigned long long>(manifest.checksum),
                chunks.size(), chunks.size() == 1 ? "" : "s",
                res.attempts, res.attempts == 1 ? "" : "s",
                res.duplicate ? ", duplicate" : "",
                opts.to.empty() ? opts.export_dir.c_str()
                                : opts.to.c_str());
    return 0;
}

/**
 * The library's spelling of --timeout-ms: 0 on the command line means
 * "never idle out", which ListenOptions and WatchOptions take as a
 * negative timeout.
 */
int
idleTimeoutMs(const DaemonOptions &d)
{
    return d.timeout_ms > 0 ? d.timeout_ms : -1;
}

/**
 * The ingest node's daemon: fold shards from N hosts as they arrive —
 * polled out of a drop directory or pushed to a listening socket —
 * persisting restorable state per arrival, and saving the canonical
 * aggregate. A listening node also answers hbbp-query/1 on the shard
 * port: every accepted shard bumps the epoch that invalidates the
 * analysis caches, and a `shutdown` query stops the daemon. All of it
 * runs on the listener's single poll thread — no locks anywhere near
 * the aggregator.
 */
int
cmdAggregate(const AggregateOptions &opts)
{
    const DaemonOptions &d = opts.daemon;
    bool listening = d.listen_port >= 0;
    if (opts.watch_dir.empty() == !listening)
        fatal("aggregate requires exactly one of --watch-dir <dir> or "
              "--listen <port>");

    std::unique_ptr<Observability> obs = startObservability(d, "root");
    IngestOptions io;
    io.state_file = d.state_file;
    io.store_dir = opts.store_dir;
    io.federator = obs->federator.get();
    IngestNode node(std::move(io));
    IncrementalAggregator &agg = node.aggregator();
    if (node.restore() > 0)
        std::printf("restored aggregator state from %s: "
                    "%zu shard%s across %zu host%s\n",
                    d.state_file.c_str(), agg.restoredShards(),
                    agg.restoredShards() == 1 ? "" : "s",
                    agg.hostCount(),
                    agg.hostCount() == 1 ? "" : "s");

    AggregatorProfileSource source(agg);
    AnalysisService service(source, makeWorkloadByName);
    QueryEndpoint endpoint(service);

    if (listening) {
        ShardListener listener(
            static_cast<uint16_t>(d.listen_port), d.bind_addr);
        std::printf("listening on %s:%u\n", d.bind_addr.c_str(),
                    listener.port());
        std::fflush(stdout);
        if (!d.port_file.empty())
            writeFileAtomically(d.port_file,
                                format("%u\n", listener.port()));
        ListenOptions lo;
        lo.expect = d.expect;
        lo.idle_timeout_ms = idleTimeoutMs(d);
        lo.on_accept = [&](const ShardManifest &m,
                           const ProfileData &pd,
                           const std::vector<std::string> &chunks) {
            node.accept(m, &pd, chunks);
        };
        lo.on_query = [&](const std::string &body) {
            return endpoint.handle(body);
        };
        lo.should_stop = [&] { return endpoint.stopRequested(); };
        listener.serve(agg, lo);
    } else {
        WatchOptions wo;
        wo.expect = d.expect;
        wo.timeout_ms = idleTimeoutMs(d);
        wo.on_accept = [&](const ShardManifest &m,
                           const std::string &bytes) {
            node.accept(m, nullptr, {bytes});
        };
        watchAndAggregate(agg, opts.watch_dir, wo);
    }

    const AggregatorStats &st = agg.stats();
    // A shutdown query is a deliberate stop, not a stalled fleet.
    if (d.expect > 0 && agg.coveredShards() < d.expect &&
        !endpoint.stopRequested())
        fatal("no shard for %d ms while waiting for %zu shards via "
              "'%s' (covered %zu, accepted %zu, duplicates %zu, "
              "incompatible %zu, malformed %zu)",
              d.timeout_ms, d.expect,
              listening ? "--listen" : opts.watch_dir.c_str(),
              agg.coveredShards(), st.accepted, st.duplicates,
              st.incompatible, st.malformed);
    if (!opts.profile_out.empty())
        agg.aggregate().save(opts.profile_out);
    node.release();

    const ServiceStats &ss = service.stats();
    std::printf("aggregate: accepted=%zu duplicates=%zu "
                "incompatible=%zu malformed=%zu rebuilds=%zu "
                "restored=%zu hosts=%zu covered=%zu "
                "aggregates=%zu superseded=%zu saturated=%llu "
                "epoch=%llu requests=%llu cache_hits=%llu "
                "cache_misses=%llu query_errors=%llu "
                "analysis_runs=%llu%s%s\n",
                st.accepted, st.duplicates, st.incompatible,
                st.malformed, st.rebuilds,
                agg.restoredShards(), agg.hostCount(),
                agg.coveredShards(), st.aggregates, st.superseded,
                static_cast<unsigned long long>(saturatedFoldLanes()),
                static_cast<unsigned long long>(agg.epoch()),
                static_cast<unsigned long long>(ss.requests),
                static_cast<unsigned long long>(ss.hits),
                static_cast<unsigned long long>(ss.misses),
                static_cast<unsigned long long>(ss.errors),
                static_cast<unsigned long long>(ss.analyses),
                opts.profile_out.empty() ? "" : " -> ",
                opts.profile_out.c_str());
    obs->stop("aggregate exiting");
    return 0;
}

/**
 * A fan-in tree node: serve collectors (or deeper relays) downstream,
 * fold their shards, push the partial aggregate upstream as a
 * first-class shard. The root of the tree is a plain
 * `aggregate --listen`.
 */
int
cmdRelay(const RelayCliOptions &opts)
{
    const DaemonOptions &d = opts.daemon;
    if (d.listen_port < 0)
        fatal("relay requires --listen <port>");
    if (opts.to.empty())
        fatal("relay requires --to <host:port>");

    RelayOptions ro;
    ro.listen_port = static_cast<uint16_t>(d.listen_port);
    ro.bind_addr = d.bind_addr;
    parseHostPort(opts.to, "--to", &ro.upstream_host,
                  &ro.upstream_port);
    // The relay id becomes the upstream manifest's host id: hold it
    // to the same rules as --host, and fail here rather than as a
    // rejection of every flush after collectors were already acked.
    if (!opts.relay_id.empty() && !validHostId(opts.relay_id))
        fatal("invalid --relay-id '%s' (must be without whitespace, "
              "'/', ',' or ':')", opts.relay_id.c_str());
    // Unique by default: two sibling relays sharing one id would also
    // share the upstream's per-(host, seq) staging slot, and their
    // interleaved multi-chunk flushes would clobber each other.
    ro.relay_id = opts.relay_id.empty()
                      ? format("relay-%ld", static_cast<long>(::getpid()))
                      : opts.relay_id;
    ro.flush_every = opts.flush_every;
    ro.expect = d.expect;
    ro.idle_timeout_ms = idleTimeoutMs(d);
    ro.state_file = d.state_file;
    ro.upstream_retries = std::max(opts.retries, 1);
    ro.store_dir = opts.store_dir;

    std::unique_ptr<Observability> obs =
        startObservability(d, ro.relay_id);
    // The relay is both a federation child (it advertises its own
    // scrape endpoint on every flushed aggregate) and a parent (its
    // federator scrapes whatever its downstream advertises).
    ro.metrics_endpoint = obs->endpoint;
    ro.federator = obs->federator.get();
    RelayNode relay(std::move(ro));
    std::printf("relaying %s:%u -> %s\n", d.bind_addr.c_str(),
                relay.port(), opts.to.c_str());
    std::fflush(stdout);
    if (!d.port_file.empty())
        writeFileAtomically(d.port_file,
                            format("%u\n", relay.port()));

    RelayStats rs = relay.run();
    std::printf("relay: accepted=%zu covered=%zu restored=%zu "
                "flushes=%zu flush_failures=%zu orphans=%zu "
                "upstream_ok=%d\n",
                rs.accepted, rs.covered, rs.restored, rs.flushes,
                rs.flush_failures, rs.orphans_forwarded,
                rs.upstream_ok ? 1 : 0);
    obs->stop("relay exiting");
    // Order matters: the final flush already ran, so these exits lose
    // nothing that --state does not hold.
    if (!rs.upstream_ok)
        fatal("final upstream flush failed: %s", rs.error.c_str());
    if (d.expect > 0 && rs.covered < d.expect)
        fatal("no shard for %d ms while waiting to cover %zu shards "
              "(covered %zu)", d.timeout_ms, d.expect,
              rs.covered);
    return 0;
}

/**
 * The query client. Stdout carries exactly the payload bytes — what
 * offline analyze/report/fdo would print for the same aggregate and
 * options — so scripts can diff the two; the `epoch=N cached=K`
 * metadata goes to stderr.
 */
int
cmdQuery(const QueryCliOptions &opts)
{
    if (opts.from.empty())
        fatal("query requires --from <host:port>");
    std::string host;
    uint16_t port = 0;
    parseHostPort(opts.from, "--from", &host, &port);

    QueryRequest req;
    req.verb = opts.verb;
    req.params = opts.analysis.toQueryParams();

    QueryClient client(host, port);
    QueryReply reply;
    std::string why;
    if (!client.query(req.renderText(), &reply, &why))
        fatal("query to %s failed: %s", opts.from.c_str(),
              why.c_str());
    std::fprintf(stderr, "epoch=%llu cached=%d\n",
                 static_cast<unsigned long long>(reply.epoch),
                 reply.cached ? 1 : 0);
    if (reply.has_timing)
        std::fprintf(
            stderr,
            "timing parse=%lluns cache=%lluns analysis=%lluns "
            "render=%lluns\n",
            static_cast<unsigned long long>(reply.parse_ns),
            static_cast<unsigned long long>(reply.cache_ns),
            static_cast<unsigned long long>(reply.analysis_ns),
            static_cast<unsigned long long>(reply.render_ns));
    if (!reply.trace_id.empty())
        std::fprintf(stderr, "trace=%s\n", reply.trace_id.c_str());
    if (!reply.ok)
        fatal("%s", reply.error.c_str());
    std::fwrite(reply.payload.data(), 1, reply.payload.size(), stdout);
    return 0;
}

/**
 * Store maintenance: `hbbp-tool store gc|stat|verify`. gc is bounded
 * eviction; stat counts entries, bytes and pins; verify loads every
 * entry and checks each shard's payload against the checksum in its
 * name (exit 1 when any entry fails).
 */
int
cmdStore(const StoreOptions &opts)
{
    if (opts.store_dir.empty())
        fatal("store %s requires --store <dir>",
              opts.action.empty() ? "gc" : opts.action.c_str());
    if (opts.action == "gc") {
        if (opts.max_age_s < 0 && opts.max_bytes < 0)
            fatal("store gc requires --max-age-s and/or --max-bytes "
                  "(unbounded gc would evict nothing)");
        ProfileStore store(opts.store_dir);
        ProfileStore::GcResult res =
            store.gc({opts.max_age_s, opts.max_bytes});
        std::printf("store gc: scanned=%zu evicted=%zu "
                    "pinned_skipped=%zu bytes_before=%llu "
                    "bytes_after=%llu\n",
                    res.scanned, res.evicted, res.pinned_skipped,
                    static_cast<unsigned long long>(res.bytes_before),
                    static_cast<unsigned long long>(res.bytes_after));
        return 0;
    }
    if (opts.action == "stat") {
        ProfileStore store(opts.store_dir);
        ProfileStore::Stats st = store.stats();
        std::printf("store stat: key_entries=%zu shard_entries=%zu "
                    "total_bytes=%llu pinned=%zu pin_owners=%zu\n",
                    st.key_entries, st.shard_entries,
                    static_cast<unsigned long long>(st.total_bytes),
                    st.pinned, st.pin_owners);
        return 0;
    }
    if (opts.action == "verify") {
        ProfileStore store(opts.store_dir);
        ProfileStore::VerifyResult res = store.verify();
        std::printf("store verify: checked=%zu checksum_mismatches=%zu "
                    "%s\n",
                    res.checked, res.checksum_mismatches,
                    res.ok() ? "ok" : "NOT OK");
        return res.ok() ? 0 : 1;
    }
    fatal("unknown store action '%s' (expected: gc, stat, verify)",
          opts.action.c_str());
}

/** `name{labels} value` → series key + numeric value. */
bool
parseMetricLine(const std::string &line, std::string *key,
                double *value)
{
    if (line.empty() || line[0] == '#')
        return false;
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0)
        return false;
    const char *num = line.c_str() + sp + 1;
    char *end = nullptr;
    double v = std::strtod(num, &end);
    if (end == num || *end != '\0')
        return false;
    *key = line.substr(0, sp);
    *value = v;
    return true;
}

/**
 * Render a federated /metrics body as a fleet tree: this node's own
 * series first, then each child's (grouped by peer label), then the
 * subtree rollups — the one-command view of the whole fleet that a
 * single scrape of the root endpoint carries.
 */
void
printStatsTree(const std::string &from, const std::string &body)
{
    std::vector<std::string> local, rollup;
    std::map<std::string, std::vector<std::string>> peers;
    for (const std::string &line : split(body, '\n')) {
        std::string key;
        double value = 0;
        if (!parseMetricLine(line, &key, &value))
            continue;
        if (key.find("{agg=\"subtree\"}") != std::string::npos) {
            rollup.push_back(line);
            continue;
        }
        size_t p = key.find("peer=\"");
        if (p == std::string::npos) {
            local.push_back(line);
            continue;
        }
        size_t start = p + 6;
        size_t endq = key.find('"', start);
        peers[key.substr(start, endq - start)].push_back(line);
    }
    std::printf("fleet tree from %s\n", from.c_str());
    std::printf("node <local>\n");
    for (const std::string &line : local)
        std::printf("  %s\n", line.c_str());
    for (const auto &[peer, lines] : peers) {
        std::printf("peer %s\n", peer.c_str());
        for (const std::string &line : lines)
            std::printf("  %s\n", line.c_str());
    }
    if (!rollup.empty()) {
        std::printf("subtree rollup\n");
        for (const std::string &line : rollup)
            std::printf("  %s\n", line.c_str());
    }
}

/**
 * Print one --watch round: every series' current value, with the
 * delta and per-second rate since the previous scrape once there is
 * one. New series are marked instead of given a bogus full-value
 * delta.
 */
void
printStatsDeltas(const std::string &body, double dt_s,
                 std::map<std::string, double> *prev)
{
    std::map<std::string, double> cur;
    for (const std::string &line : split(body, '\n')) {
        std::string key;
        double value = 0;
        if (parseMetricLine(line, &key, &value))
            cur[key] = value;
    }
    for (const auto &[key, value] : cur) {
        if (prev->empty()) {
            std::printf("%s %g\n", key.c_str(), value);
        } else if (!prev->count(key)) {
            std::printf("%s %g (new)\n", key.c_str(), value);
        } else {
            double delta = value - (*prev)[key];
            std::printf("%s %g (%+g %.2f/s)\n", key.c_str(), value,
                        delta, dt_s > 0 ? delta / dt_s : 0.0);
        }
    }
    *prev = std::move(cur);
}

/**
 * Print metrics: scraped from a live daemon's --metrics-port endpoint
 * (Prometheus text passed through verbatim; --tree renders the
 * federated body as a fleet tree, --healthz fetches the health body
 * and exits non-zero when degraded, --watch re-scrapes every N
 * seconds printing deltas and rates), or — with no --from — this
 * process's own registry snapshot in the compact deterministic format
 * daemons dump on SIGUSR1.
 */
int
cmdStats(const StatsOptions &opts)
{
    if (opts.from.empty()) {
        std::fputs(telemetry::registry().renderSnapshot().c_str(),
                   stdout);
        return 0;
    }
    std::string host;
    uint16_t port = 0;
    parseHostPort(opts.from, "--from", &host, &port);
    const char *path = opts.healthz ? "/healthz" : "/metrics";

    std::map<std::string, double> prev;
    int64_t prev_ms = 0;
    int degraded = 0;
    for (size_t round = 0;; round++) {
        std::string body, why;
        if (!fetchMetricsText(host, port, &body, &why, path))
            fatal("fetching %s from %s: %s", path, opts.from.c_str(),
                  why.c_str());
        int64_t now_ms = steadyNowMs();
        if (round > 0)
            std::printf("-- +%.1fs\n", (now_ms - prev_ms) / 1e3);
        if (opts.healthz) {
            std::fputs(body.c_str(), stdout);
            degraded = startsWith(body, "status: live") ? 0 : 1;
        } else if (opts.tree) {
            printStatsTree(opts.from, body);
        } else if (opts.watch_s > 0) {
            printStatsDeltas(body, (now_ms - prev_ms) / 1e3, &prev);
        } else {
            std::fputs(body.c_str(), stdout);
        }
        std::fflush(stdout);
        prev_ms = now_ms;
        if (opts.watch_s <= 0 ||
            (opts.watch_count > 0 && round >= opts.watch_count))
            break;
        ::usleep(static_cast<useconds_t>(opts.watch_s * 1e6));
    }
    return degraded;
}

/**
 * Read a structured event log back: `hbbp-tool events --from FILE`
 * prints one human-readable line per record, filtered by stable code
 * and/or timestamp. The flight recorder's playback half.
 */
int
cmdEvents(const EventsOptions &opts)
{
    std::vector<events::Event> evs;
    std::string why;
    if (!events::loadEvents(opts.from, opts.code, opts.since_ms, &evs,
                            &why))
        fatal("%s", why.c_str());
    for (const events::Event &e : evs)
        std::printf("%s\n", e.render().c_str());
    return 0;
}

/** Rewrite a legacy or stale-checksum profile in the current format. */
int
cmdMigrate(const MigrateOptions &opts)
{
    const std::string &in = opts.input;
    std::string out = opts.profile_out.empty() ? in : opts.profile_out;
    uint32_t version = 0;
    ProfileData pd = ProfileData::loadAnyVersion(in, &version);
    // Atomic: with no -o this overwrites the input, which may be the
    // only copy of the legacy profile — a failed write must not
    // destroy it.
    uint64_t checksum = 0;
    pd.saveAtomically(out, &checksum);
    std::printf("migrated %s (format version %u, checksum %016llx) "
                "-> %s\n", in.c_str(), version,
                static_cast<unsigned long long>(checksum), out.c_str());
    return 0;
}

/**
 * The in-process analysis transport: the same AnalysisService
 * `aggregate --listen` exposes over the socket, fed by a
 * FixedProfileSource over the loaded (or freshly collected) profile. Errors the service
 * reports — unknown source, unknown pivot dimension, missing
 * function — become the same fatal() diagnostics the pre-service CLI
 * printed.
 */
QueryResult
serveLocalQuery(const std::string &verb,
                const std::string &workload_name,
                const std::string &profile_in,
                const AnalysisOptions &aopts)
{
    Workload w = requireWorkloadByName(workload_name);
    ProfileData pd;
    if (!profile_in.empty()) {
        pd = ProfileData::load(profile_in);
    } else {
        pd = Collector::collect(*w.program, MachineConfig{},
                                collectorConfigFor(w));
    }
    FixedProfileSource source(std::move(pd), w.name);
    AnalysisService service(source, makeWorkloadByName);

    QueryRequest req;
    req.verb = verb;
    req.params = aopts.toQueryParams();
    QueryResult result = service.serve(req);
    if (!result.error.empty())
        fatal("%s", result.error.c_str());
    return result;
}

int
cmdAnalyze(const AnalyzeOptions &opts, bool full_report)
{
    QueryResult result =
        serveLocalQuery(full_report ? "report" : "mix", opts.workload,
                        opts.profile_in, opts.analysis);
    // serve() validated the format parameter before producing a
    // non-error result.
    std::string out = result.render(
        *renderFormatFromName(opts.analysis.format));
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
}

int
cmdFdo(const FdoOptions &opts)
{
    QueryResult result = serveLocalQuery("fdo", opts.workload,
                                         opts.profile_in,
                                         opts.analysis);
    if (!opts.profile_out.empty()) {
        // The saved artifact is always the canonical text profile,
        // whatever --format renders on stdout.
        writeFileAtomically(opts.profile_out,
                            result.render(RenderFormat::Text));
        std::printf("fdo profile -> %s\n", opts.profile_out.c_str());
        return 0;
    }
    std::string out = result.render(
        *renderFormatFromName(opts.analysis.format));
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Normal, not Quiet: every warn() in the library marks an
    // exceptional condition a fleet operator needs to see (saturating
    // counter clamps, damaged journals); nothing warns on the happy
    // path, so normal runs stay as quiet as before.
    setLogLevel(LogLevel::Normal);
    if (argc >= 2 && (std::strcmp(argv[1], "version") == 0 ||
                      std::strcmp(argv[1], "--version") == 0)) {
        std::printf("hbbp-tool %s\n", kVersion);
        return 0;
    }
    if (argc < 2)
        usage();
    std::string command = argv[1];
    if (command == "list") {
        ArgParser p(argc, argv, 2);
        p.run();
        return cmdList();
    }
    if (command == "collect")
        return cmdCollect(CollectOptions::parse(argc, argv));
    if (command == "merge")
        return cmdMerge(MergeOptions::parse(argc, argv));
    if (command == "batch")
        return cmdBatch(BatchOptions::parse(argc, argv));
    if (command == "export")
        return cmdExport(ExportOptions::parse(argc, argv));
    if (command == "push")
        return cmdPush(PushOptions::parse(argc, argv));
    if (command == "aggregate")
        return cmdAggregate(AggregateOptions::parse(argc, argv));
    if (command == "relay")
        return cmdRelay(RelayCliOptions::parse(argc, argv));
    if (command == "query")
        return cmdQuery(QueryCliOptions::parse(argc, argv));
    if (command == "store")
        return cmdStore(StoreOptions::parse(argc, argv));
    if (command == "stats")
        return cmdStats(StatsOptions::parse(argc, argv));
    if (command == "events")
        return cmdEvents(EventsOptions::parse(argc, argv));
    if (command == "migrate")
        return cmdMigrate(MigrateOptions::parse(argc, argv));
    if (command == "analyze")
        return cmdAnalyze(AnalyzeOptions::parse(argc, argv),
                          /*full_report=*/false);
    if (command == "report")
        return cmdAnalyze(AnalyzeOptions::parse(argc, argv),
                          /*full_report=*/true);
    if (command == "fdo")
        return cmdFdo(FdoOptions::parse(argc, argv));
    usage();
}
