#include "pipeline.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "analysis/analyzer.hh"
#include "fleet/manifest.hh"
#include "support/logging.hh"

using namespace hbbp;

namespace perfbench {

namespace {

std::atomic<uint64_t> g_node_seq{0};
std::atomic<uint64_t> g_query_seq{0};

std::string
freshDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Spin for @p iters LCG steps; the result keeps the loop alive. */
uint64_t
spin(uint64_t iters)
{
    uint64_t x = 88172645463325252ULL;
    for (uint64_t i = 0; i < iters; i++)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

} // namespace

// ---------------------------------------------------------------------
// Report, calibration, small helpers.
// ---------------------------------------------------------------------

void
Report::check(const std::string &name, bool ok)
{
    checks.emplace_back(name, ok);
    if (!ok)
        std::fprintf(stderr, "perfbench: check failed: %s\n", name.c_str());
}

size_t
Report::failedChecks() const
{
    size_t n = 0;
    for (const auto &[name, ok] : checks)
        n += ok ? 0 : 1;
    return n;
}

Calibration
calibrate()
{
    Calibration c;
    c.nproc = std::max(1u, std::thread::hardware_concurrency());
    constexpr uint64_t kIters = 20'000'000;
    std::atomic<uint64_t> sink{0};

    int64_t t0 = trace::nowNs();
    sink += spin(kIters);
    int64_t t1 = trace::nowNs();
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < c.nproc; i++)
        threads.emplace_back([&] { sink += spin(kIters); });
    for (std::thread &t : threads)
        t.join();
    int64_t t2 = trace::nowNs();
    c.spin_1_ms = (t1 - t0) / 1e6;
    c.spin_n_ms = (t2 - t1) / 1e6;
    c.effective_cores = c.nproc * c.spin_1_ms / std::max(c.spin_n_ms, 1e-9);

    constexpr int kReads = 1'000'000;
    int64_t acc = 0;
    int64_t r0 = trace::nowNs();
    for (int i = 0; i < kReads; i++)
        acc += trace::nowNs();
    int64_t r1 = trace::nowNs();
    c.clock_read_ns = static_cast<double>(r1 - r0) / kReads;
    sink += static_cast<uint64_t>(acc & 1);
    return c;
}

WorkloadResolver
resolverFor(std::vector<Workload> workloads)
{
    return [ws = std::move(workloads)](const std::string &name)
               -> std::optional<Workload> {
        for (const Workload &w : ws)
            if (w.name == name)
                return w;
        return std::nullopt;
    };
}

CollectorConfig
shardConfig(const Workload &w, uint64_t seed, const std::string &host,
            uint32_t seq, uint64_t budget_divisor)
{
    CollectorConfig cc;
    cc.runtime_class = w.runtime_class;
    cc.max_instructions = w.max_instructions / budget_divisor;
    cc.seed = hostStreamSeed(w.exec_seed ^ (seed * 0x9e3779b97f4a7c15ULL),
                             host, seq);
    cc.pmu.seed = hostStreamSeed(
        cc.pmu.seed ^ 0x5851f42d4c957f2dULL ^ seed, host, seq);
    return cc;
}

std::string
requestBody(const std::string &verb, std::map<std::string, std::string> params)
{
    QueryRequest req;
    req.verb = verb;
    req.params = std::move(params);
    return req.renderText();
}

std::vector<std::string>
serveCycle(const std::string &host)
{
    return {requestBody("mix"), requestBody("mix", {{"format", "csv"}}),
            requestBody("report"), requestBody("fdo"),
            requestBody("mix", {{"host", host}})};
}

void
Means::add(const std::string &name, double value)
{
    auto &[sum, n] = sums_[name];
    sum += value;
    n++;
}

double
Means::mean(const std::string &name) const
{
    auto it = sums_.find(name);
    if (it == sums_.end() || it->second.second == 0)
        return 0.0;
    return it->second.first / static_cast<double>(it->second.second);
}

size_t
Means::count(const std::string &name) const
{
    auto it = sums_.find(name);
    return it == sums_.end() ? 0 : it->second.second;
}

void
removeTree(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------
// The node.
// ---------------------------------------------------------------------

Node::Node(const std::string &d, WorkloadResolver resolver)
    : dir(freshDir(d)),
      key_prefix("n" + std::to_string(++g_node_seq)),
      service(source, std::move(resolver)), store(dir + "/store"),
      pin(store, "perfbench-" + key_prefix),
      journal(dir + "/state.bin", kCompactEvery)
{
}

std::string
Node::linkKey(const std::string &host, uint32_t seq) const
{
    return key_prefix + "/" + host + "/" + std::to_string(seq);
}

void
Node::onAccept(const ShardManifest &m, const ProfileData &,
               const std::vector<std::string> &chunks)
{
    // The on_accept work of `aggregate --listen --state --store`:
    // pin, deposit the transport bytes, journal, unpin once durable.
    trace::Span accept("accept", linkKey(m.host, m.seq));
    {
        trace::Span s("store.pin");
        pin.pin(m.checksum);
    }
    {
        trace::Span s("store.deposit");
        store.depositBytesByChecksum(m.checksum, chunks.at(0));
    }
    {
        trace::Span s("journal.record");
        uintmax_t before = 0;
        std::error_code ec;
        if (trace::enabled()) {
            before = std::filesystem::file_size(journal.journalPath(), ec);
            if (ec)
                before = 0; // No journal file before the first record.
        }
        journal.record(agg, m, chunks);
        if (journal.pendingRecords() == 0) {
            s.rename("journal.compact");
        } else if (trace::enabled()) {
            uintmax_t after =
                std::filesystem::file_size(journal.journalPath(), ec);
            if (!ec && after > before) {
                journal_bytes += after - before;
                journal_appends++;
            }
        }
    }
    {
        trace::Span s("store.unpin");
        pin.unpin(m.checksum);
    }
}

std::string
Node::onQuery(const std::string &body)
{
    trace::Span span("service");
    uint64_t analyses = service.stats().analyses;
    uint64_t hits = service.stats().hits;
    std::string reply = endpoint.handle(body);
    if (service.stats().analyses != analyses) {
        if (service.stats().hits != hits)
            cached_reanalyses++;
        std::string why;
        std::optional<QueryRequest> req = QueryRequest::parseText(body, &why);
        QueryReply parsed;
        parseQueryReplyBody(reply, &parsed, &why);
        analyzed.push_back({service.epoch(),
                            req ? req->param("host") : std::string(),
                            parsed.analysis_ns});
    }
    if (trace::enabled()) {
        // Carry the span's key back in the reply's trace= header (the
        // endpoint sets none without a trace log), so the client's
        // query span can adopt this one as its child.
        std::string key = "q" + std::to_string(++g_query_seq);
        size_t end = reply.find("\n\n");
        if (end != std::string::npos)
            reply.insert(end + 1, "trace=" + key + "\n");
        span.setParentKey(key);
    }
    return reply;
}

void
Node::serve(ShardListener &listener, size_t expect,
            const std::atomic<bool> &abort)
{
    ListenOptions lo;
    lo.expect = expect;
    lo.idle_timeout_ms = -1;
    lo.on_accept = [this](const ShardManifest &m, const ProfileData &pd,
                          const std::vector<std::string> &chunks) {
        onAccept(m, pd, chunks);
    };
    lo.on_query = [this](const std::string &body) { return onQuery(body); };
    lo.should_stop = [this, &abort] {
        return endpoint.stopRequested() ||
               abort.load(std::memory_order_relaxed);
    };
    listener.serve(agg, lo);
}

void
Node::ingestLocal(const ShardManifest &m, const ProfileData &pd,
                  const std::string &bytes)
{
    std::string why;
    if (!agg.addShard(m, pd, &why))
        fatal("local ingest of %s/%u failed: %s", m.host.c_str(), m.seq,
              why.c_str());
    onAccept(m, pd, {bytes});
}

// ---------------------------------------------------------------------
// Load-generator helpers.
// ---------------------------------------------------------------------

PushOutcome
pushShard(SocketTransport &transport, ShardManifest m, const ProfileData &pd,
          const std::string &link_key, const char *op_name)
{
    PushOutcome out;
    out.start_ns = trace::nowNs();
    trace::Span op(op_name);
    std::vector<std::string> chunks(1);
    {
        trace::Span s("profile.serialize");
        chunks[0] = pd.serialize(&m.checksum);
    }
    SendResult res;
    {
        trace::Span s("transport.send");
        s.setKey(link_key);
        res = transport.sendShard(m, chunks);
    }
    out.end_ns = trace::nowNs();
    out.ok = res.ok && !res.duplicate;
    out.attempts = res.attempts;
    out.error = res.ok ? (res.duplicate ? "acked as duplicate" : "")
                       : res.error;
    return out;
}

QueryOutcome
runQuery(QueryClient &client, const std::string &body)
{
    QueryOutcome out;
    out.start_ns = trace::nowNs();
    trace::Span span("query");
    std::string why;
    bool sent = client.query(body, &out.reply, &why);
    out.end_ns = trace::nowNs();
    out.ok = sent && out.reply.ok;
    out.error = !sent ? why : out.reply.error;
    if (!out.reply.trace_id.empty())
        span.setKey(out.reply.trace_id);
    return out;
}

// ---------------------------------------------------------------------
// Decomposition replays.
// ---------------------------------------------------------------------

double
replayAnalysis(const Program &prog, const ProfileData &profile, Means &out,
               Report &report)
{
    AnalyzerOptions opts;
    opts.classifier = std::make_shared<CutoffClassifier>(18.0, true);

    int64_t t0 = trace::nowNs();
    BlockMap map(prog, opts.map);
    int64_t t1 = trace::nowNs();
    BbecEstimates est = BbecEstimator(opts.bbec).estimate(map, profile);
    int64_t t2 = trace::nowNs();
    std::vector<BlockFeatures> features =
        Analyzer::computeFeatures(map, est);
    size_t n = map.blocks().size(), lbr_blocks = 0;
    std::vector<double> fused(n, 0.0);
    for (size_t i = 0; i < n; i++) {
        BbecSource src = opts.classifier->choose(features[i]);
        lbr_blocks += src == BbecSource::Lbr ? 1 : 0;
        fused[i] = src == BbecSource::Ebs ? est.ebs[i] : est.lbr[i];
    }
    int64_t t3 = trace::nowNs();
    InstructionMix mix(map, fused);
    TextTable table = mix.pivotTable(MixQuery{});
    int64_t t4 = trace::nowNs();

    out.add("blockmap.build_ns", static_cast<double>(t1 - t0));
    out.add("blockmap.blocks", static_cast<double>(n));
    out.add("bbec.estimate_ns", static_cast<double>(t2 - t1));
    out.add("bbec.lbr_streams", static_cast<double>(est.lbr_streams_total));
    out.add("bbec.ns_per_stream",
            static_cast<double>(t2 - t1) /
                std::max<double>(1.0, est.lbr_streams_total));
    out.add("bbec.lbr_discard_ratio", est.discardFraction());
    out.add("bbec.ebs_unmapped_ratio",
            profile.ebs.empty()
                ? 0.0
                : static_cast<double>(est.ebs_samples_unmapped) /
                      static_cast<double>(profile.ebs.size()));
    out.add("bbec.biased_branches",
            static_cast<double>(est.biased_branches.size()));
    out.add("classify.ns", static_cast<double>(t3 - t2));
    out.add("classify.lbr_share",
            n ? static_cast<double>(lbr_blocks) / static_cast<double>(n)
              : 0.0);
    out.add("mix.ns", static_cast<double>(t4 - t3));
    double sum = static_cast<double>(t4 - t0);
    out.add("replay.analysis_ns", sum);

    AnalysisResult reference =
        Analyzer(opts).analyze(prog, profile);
    report.check("replayed stages equal Analyzer::analyze",
                 reference.hbbp == fused && table.rowCount() > 0);
    return sum;
}

std::unique_ptr<IncrementalAggregator>
replayFolds(const std::vector<ShardManifest> &manifests,
            const std::vector<ProfileData> &shards, bool rebuild_each,
            Means &out, Report &report)
{
    auto shadow = std::make_unique<IncrementalAggregator>();
    bool parsed_equal = true, folded = true;
    for (size_t i = 0; i < shards.size(); i++) {
        ShardManifest m = manifests[i];
        int64_t t0 = trace::nowNs();
        std::string bytes = shards[i].serialize(&m.checksum);
        int64_t t1 = trace::nowNs();
        std::string why;
        std::optional<ProfileData> parsed =
            ProfileData::parse(bytes, "replay", &why);
        int64_t t2 = trace::nowNs();
        out.add("profile.serialize_ns", static_cast<double>(t1 - t0));
        out.add("profile.parse_ns", static_cast<double>(t2 - t1));
        out.add("profile.bytes", static_cast<double>(bytes.size()));
        if (!parsed || !(*parsed == shards[i])) {
            parsed_equal = false;
            continue;
        }
        int64_t t3 = trace::nowNs();
        folded &= shadow->addShard(m, std::move(*parsed), &why);
        int64_t t4 = trace::nowNs();
        out.add("aggregate.fold_ns", static_cast<double>(t4 - t3));
        if (rebuild_each || i + 1 == shards.size()) {
            int64_t t5 = trace::nowNs();
            const ProfileData &agg = shadow->aggregate();
            int64_t t6 = trace::nowNs();
            out.add("aggregate.rebuild_ns", static_cast<double>(t6 - t5));
            (void)agg;
        }
    }
    report.check("replay parse(serialize(p)) == p", parsed_equal);
    report.check("replay folds accepted", folded);
    return shadow;
}

void
replayRender(const Workload &w, const ProfileData &profile, Means &out,
             Report &report)
{
    FixedProfileSource source(profile, w.name);
    AnalysisService service(source, resolverFor({w}));
    QueryRequest req;
    req.verb = "report";
    QueryResult result = service.serve(req);
    int64_t t0 = trace::nowNs();
    std::string text = result.render(RenderFormat::Text);
    int64_t t1 = trace::nowNs();
    out.add("render.ns", static_cast<double>(t1 - t0));
    out.add("render.bytes", static_cast<double>(text.size()));
    report.check("replay report renders", result.error.empty() &&
                                              !text.empty());
}

trace::Tree
replayServed(const Workload &w, const std::vector<ShardManifest> &manifests,
             const std::vector<ProfileData> &shards, const std::string &dir,
             Means &out, Report &report)
{
    trace::drain();
    trace::setEnabled(true);
    ShardListener listener(0);
    std::atomic<bool> abort{false};
    bool ok = true;
    double analysis_ns = 0.0;
    {
        Node node(dir, resolverFor({w}));
        std::thread server([&] { node.serve(listener, 0, abort); });
        {
            SocketTransportOptions so;
            so.port = listener.port();
            SocketTransport transport(so);
            for (size_t i = 0; i < shards.size(); i++) {
                PushOutcome p = pushShard(
                    transport, manifests[i], shards[i],
                    node.linkKey(manifests[i].host, manifests[i].seq),
                    "replay.push");
                ok &= p.ok;
                out.add("transport.attempts_per_shard", p.attempts);
            }
            QueryClient client("127.0.0.1", listener.port());
            for (const std::string &body : serveCycle(manifests[0].host)) {
                QueryOutcome q = runQuery(client, body);
                ok &= q.ok;
                out.add("query.reply_bytes",
                        static_cast<double>(q.reply.payload.size()));
                analysis_ns += static_cast<double>(q.reply.analysis_ns);
            }
            QueryOutcome stop = runQuery(client, requestBody("shutdown"));
            ok &= stop.ok;
        }
        server.join();
        {
            trace::Span s("journal.compact");
            node.journal.compact(node.agg);
        }
        const ServiceStats &ss = node.service.stats();
        out.add("service.analyses", static_cast<double>(ss.analyses));
        out.add("service.hit_ratio",
                ss.hits + ss.misses
                    ? static_cast<double>(ss.hits) / (ss.hits + ss.misses)
                    : 0.0);
        out.add("service.analysis_ns",
                analysis_ns / std::max<uint64_t>(ss.analyses, 1));
        if (node.journal_appends)
            out.add("journal.bytes_per_record",
                    static_cast<double>(node.journal_bytes) /
                        node.journal_appends);
        ProfileStore::Stats st = node.store.stats();
        if (st.shard_entries)
            out.add("store.bytes_per_entry",
                    static_cast<double>(st.total_bytes) / st.shard_entries);
        node.pin.release();
    }
    trace::setEnabled(false);
    removeTree(dir);
    report.check("served replay pushes and queries succeed", ok);
    return trace::buildTree(trace::drain());
}

// ---------------------------------------------------------------------
// Span-derived layer metrics.
// ---------------------------------------------------------------------

void
layersFromSpans(Report &report, const trace::Tree &live,
                const trace::Tree &replay)
{
    auto live_stats = trace::statsByName(live);
    auto replay_stats = trace::statsByName(replay);
    struct Row
    {
        const char *metric;
        const char *span;
        bool self;
    };
    static const Row rows[] = {
        {"transport.push_ns", "transport.send", false},
        {"transport.self_ns", "transport.send", true},
        {"journal.record_ns", "journal.record", false},
        {"journal.compact_ns", "journal.compact", false},
        {"store.pin_ns", "store.pin", false},
        {"store.deposit_ns", "store.deposit", false},
        {"query.roundtrip_ns", "query", false},
        {"query.self_ns", "query", true},
        {"service.serve_ns", "service", false},
        {"profile.serialize_ns", "profile.serialize", false},
    };
    for (const Row &r : rows) {
        auto it = live_stats.find(r.span);
        const char *source = "live spans";
        if (it == live_stats.end() || it->second.count == 0) {
            it = replay_stats.find(r.span);
            source = "served replay";
            if (it == replay_stats.end())
                continue;
        }
        const trace::NameStats &s = it->second;
        Metric m;
        m.value = r.self ? s.meanSelfNs() : s.meanNs();
        m.unit = "ns";
        m.n = s.count;
        m.note = std::string("mean over ") + r.span + " " + source;
        report.layer[r.metric] = m;
    }
}

void
writeSpans(const trace::Tree &tree, const std::string &path)
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return;
    for (size_t i = 0; i < tree.spans.size(); i++) {
        const trace::SpanRecord &s = tree.spans[i];
        long p = tree.parent[i];
        f << "{\"id\":" << s.id << ",\"parent\":"
          << (p >= 0 ? tree.spans[p].id : 0) << ",\"name\":\"" << s.name
          << "\",\"thread\":" << s.thread << ",\"start_ns\":" << s.start_ns
          << ",\"dur_ns\":" << s.duration() << ",\"self_ns\":"
          << tree.self_ns[i] << "}\n";
    }
}

} // namespace perfbench
