#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>
#include <tuple>

#include "fleet/merge.hh"
#include "support/logging.hh"
#include "tools/registry.hh"

using namespace hbbp;

namespace perfbench {

namespace {

/** Set-up repetitions whose median is setup_s. */
constexpr int kSetupReps = 5;

double
msBetween(int64_t from_ns, int64_t to_ns)
{
    return static_cast<double>(to_ns - from_ns) / 1e6;
}

void
sleepUntilNs(int64_t t_ns)
{
    int64_t now = trace::nowNs();
    if (t_ns > now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

/** Run @p make kSetupReps times; setup_s is the median duration. */
template <class State, class Make>
std::unique_ptr<State>
timedSetup(Report &report, Make make)
{
    std::vector<double> secs;
    std::unique_ptr<State> state;
    for (int i = 0; i < kSetupReps; i++) {
        state.reset();
        int64_t t0 = trace::nowNs();
        state = make();
        secs.push_back(static_cast<double>(trace::nowNs() - t0) / 1e9);
    }
    report.e2e["setup_s"] = {median(secs), "s", secs.size(),
                             "median of set-up repetitions"};
    return state;
}

/** Median and tail of @p s under @p p50_name / @p tail_name. */
void
putTiming(std::map<std::string, Metric> &out, const std::string &p50_name,
          const std::string &tail_name, const Summary &s,
          const std::string &what)
{
    out[p50_name] = {s.p50, "ms", s.n, "median " + what};
    if (!tail_name.empty())
        out[tail_name] = {s.tail.value, "ms", s.n,
                          s.tail.name() + " " + what + ", " +
                              std::to_string(s.tail.beyond) +
                              " samples beyond"};
}

/** Collect one shard, adding collect-layer numbers to @p out. */
ProfileData
collectTimed(const Workload &w, const CollectorConfig &cc, Means &out)
{
    int64_t t0 = trace::nowNs();
    ProfileData pd;
    {
        trace::Span s("collect");
        pd = Collector::collect(*w.program, MachineConfig{}, cc);
    }
    int64_t t1 = trace::nowNs();
    double secs = static_cast<double>(t1 - t0) / 1e9;
    out.add("collect.ns", static_cast<double>(t1 - t0));
    out.add("collect.samples",
            static_cast<double>(pd.ebs.size() + pd.lbr.size()));
    out.add("collect.sim_instr_per_s",
            static_cast<double>(pd.features.instructions) /
                std::max(secs, 1e-9));
    return pd;
}

ShardManifest
leafManifest(const Workload &w, const std::string &host, uint32_t seq)
{
    ShardManifest m;
    m.host = host;
    m.workload = w.name;
    m.seq = seq;
    return m;
}

/** Copy the replay means named in @p names into the layer metrics. */
void
putLayers(Report &report, const Means &means,
          std::initializer_list<std::pair<const char *, const char *>> names,
          const std::string &note)
{
    for (const auto &[name, unit] : names)
        if (means.count(name))
            report.layer[name] = {means.mean(name), unit, means.count(name),
                                  note};
}

/** The sub-layer replay metrics every workload reports. */
void
putReplayLayers(Report &report, const Means &m, const std::string &note)
{
    putLayers(report, m,
              {{"profile.parse_ns", "ns"},
               {"profile.bytes", "bytes"},
               {"aggregate.fold_ns", "ns"},
               {"aggregate.rebuild_ns", "ns"},
               {"blockmap.build_ns", "ns"},
               {"blockmap.blocks", "count"},
               {"bbec.estimate_ns", "ns"},
               {"bbec.ns_per_stream", "ns"},
               {"bbec.lbr_streams", "count"},
               {"bbec.lbr_discard_ratio", "ratio"},
               {"bbec.ebs_unmapped_ratio", "ratio"},
               {"bbec.biased_branches", "count"},
               {"classify.ns", "ns"},
               {"classify.lbr_share", "ratio"},
               {"mix.ns", "ns"},
               {"replay.analysis_ns", "ns"}},
              note);
}

/** Layer metrics a served replay supplies when the phase did not. */
void
putServedReplayLayers(Report &report, const Means &m)
{
    for (const auto &[name, unit] :
         std::initializer_list<std::pair<const char *, const char *>>{
             {"transport.attempts_per_shard", "count"},
             {"journal.bytes_per_record", "bytes"},
             {"store.bytes_per_entry", "bytes"},
             {"query.reply_bytes", "bytes"},
             {"service.analysis_ns", "ns"},
             {"service.hit_ratio", "ratio"},
             {"service.analyses", "count"},
             {"render.ns", "ns"},
             {"render.bytes", "bytes"},
             {"profile.serialize_ns", "ns"}})
        if (!report.layer.count(name) && m.count(name))
            report.layer[name] = {m.mean(name), unit, m.count(name),
                                  "served replay"};
}

void
putCollectLayers(Report &report, const Means &m, const std::string &note)
{
    putLayers(report, m,
              {{"collect.ns", "ns"},
               {"collect.sim_instr_per_s", "1/s"},
               {"collect.samples", "count"}},
              note);
}

/** What a phase's live nodes did, for the node-side layer metrics. */
struct NodeTotals
{
    double attempts = 0;  ///< Summed SendResult::attempts.
    size_t pushes = 0;
    uint64_t accepted = 0, rejected = 0;
    uint64_t journal_bytes = 0, journal_appends = 0;
    double store_bytes_per_entry = 0.0;

    /** Fold in one node's counters once its serving has ended. */
    void addNode(Node &node)
    {
        const AggregatorStats &as = node.agg.stats();
        accepted += as.accepted;
        rejected += as.duplicates + as.incompatible + as.malformed;
        journal_bytes += node.journal_bytes;
        journal_appends += node.journal_appends;
        ProfileStore::Stats ss = node.store.stats();
        if (ss.shard_entries)
            store_bytes_per_entry =
                static_cast<double>(ss.total_bytes) / ss.shard_entries;
    }
};

void
putNodeLayers(Report &report, const NodeTotals &t)
{
    report.layer["transport.attempts_per_shard"] = {
        t.pushes ? t.attempts / t.pushes : 0.0, "count", t.pushes,
        "live pushes"};
    report.layer["aggregate.reject_ratio"] = {
        static_cast<double>(t.rejected) /
            std::max<uint64_t>(t.accepted + t.rejected, 1),
        "ratio", t.accepted + t.rejected,
        "live nodes; any rejection also fails the run, so 0 when it passes"};
    if (t.journal_appends)
        report.layer["journal.bytes_per_record"] = {
            static_cast<double>(t.journal_bytes) / t.journal_appends, "bytes",
            t.journal_appends, "live journal appends"};
    report.layer["store.bytes_per_entry"] = {t.store_bytes_per_entry,
                                             "bytes", 0, "live store"};
}

void
putOverhead(Report &report, const AlternatingSamples &samples,
            const std::string &what)
{
    Overhead o = samples.overhead();
    report.layer["tracing.overhead_pct"] = {
        o.pct, "%", o.traced_n,
        "traced vs untraced median " + what + ", alternating units"};
    report.detail["tracing.aa_pct"] = {
        o.aa_pct, "%", o.untraced_n,
        "untraced B vs untraced A: the noise floor of tracing.overhead_pct"};
}

void
putAccounted(Report &report, const trace::Tree &tree, const char *op)
{
    double ratio = trace::accountedRatio(tree, op);
    report.detail[std::string("spans.accounted.") + op] = {
        ratio, "ratio", 0, "sum of self times / op duration"};
    report.check(std::string("span self times account for ") + op + " ops",
                 ratio > 0.999 && ratio < 1.001 && tree.unresolved == 0);
}

/**
 * Cycle hand-off between the main thread, which builds a fresh node per
 * cycle and serves it, and the load-generator threads, which run one
 * cycle's load against it each time they are released.
 */
struct CycleGate
{
    std::mutex mu;
    std::condition_variable cv;
    uint64_t generation = 0;
    bool stop = false;
    size_t done = 0;
    Node *node = nullptr;
    int64_t t0 = 0;
    uint32_t cycle = 0;

    /** Main thread: start cycle @p c against @p n at @p start_ns. */
    void release(Node &n, int64_t start_ns, uint32_t c)
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            node = &n;
            t0 = start_ns;
            cycle = c;
            done = 0;
            generation++;
        }
        cv.notify_all();
    }

    /** Main thread: wait until @p generators finished the cycle. */
    void waitDone(size_t generators)
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done == generators; });
    }

    /** Main thread: let the generators return. */
    void shutdown()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            stop = true;
        }
        cv.notify_all();
    }

    /** Generator thread: run @p body(node, t0, cycle) per cycle. */
    template <class Body>
    void run(Body body)
    {
        uint64_t seen = 0;
        for (;;) {
            Node *n = nullptr;
            int64_t start = 0;
            uint32_t c = 0;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return stop || generation != seen; });
                if (stop)
                    return;
                seen = generation;
                n = node;
                start = t0;
                c = cycle;
            }
            body(*n, start, c);
            {
                std::lock_guard<std::mutex> lock(mu);
                done++;
            }
            cv.notify_all();
        }
    }
};

// =====================================================================
// ingest
// =====================================================================

constexpr size_t kSenders = 2;
constexpr size_t kHostsPerSender = 5;
constexpr size_t kShardsPerSender = 30;
/** Shards per cycle: one compaction at 32, a journal tail at the end. */
constexpr size_t kCycleShards = kSenders * kShardsPerSender;

struct IngestSetup
{
    Workload w;
    WorkloadResolver resolver;
    std::vector<ShardManifest> manifests; ///< Sender-major.
    std::vector<ProfileData> shards;
    Means collect;
    std::unique_ptr<ShardListener> listener;
};

std::unique_ptr<IngestSetup>
ingestSetup(const RunArgs &args)
{
    auto st = std::make_unique<IngestSetup>();
    st->w = requireWorkloadByName("test40");
    st->resolver = resolverFor({st->w});
    for (size_t s = 0; s < kSenders; s++) {
        for (size_t i = 0; i < kShardsPerSender; i++) {
            std::string host = format("s%zu-h%zu", s, i % kHostsPerSender);
            uint32_t seq = static_cast<uint32_t>(i / kHostsPerSender);
            // Quarter-budget shards: a collector flushing four times
            // per full run.
            CollectorConfig cc = shardConfig(st->w, args.seed, host, seq, 4);
            st->shards.push_back(collectTimed(st->w, cc, st->collect));
            st->manifests.push_back(leafManifest(st->w, host, seq));
        }
    }
    st->listener = std::make_unique<ShardListener>(0);
    return st;
}

struct SenderLog
{
    std::vector<double> ack_ms;
    std::vector<uint32_t> cycle; ///< The cycle of each ack_ms sample.
    std::vector<int64_t> due_ns, start_ns;
    std::vector<int> attempts;
    uint64_t attempted = 0, failed = 0;
    std::string first_error;
};

struct IngestPhase
{
    Summary ack;
    double shards_per_s = 0.0;
    double measured_s = 0.0;
    size_t cycles = 0;
    uint64_t attempted = 0, failed = 0;
    Lateness late;
    NodeTotals nodes;
    /** Traced phase: acks of traced and untraced cycles. */
    AlternatingSamples alt;
    trace::Tree tree;
};

void
senderLoop(size_t s, IngestSetup &st, CycleGate &gate,
           std::atomic<bool> &abort, SenderLog &log)
{
    SocketTransportOptions so;
    so.port = st.listener->port();
    so.max_attempts = 2;
    so.io_timeout_ms = 10'000;
    SocketTransport transport(so);
    gate.run([&](Node &node, int64_t due, uint32_t cycle) {
        for (size_t i = 0; i < kShardsPerSender; i++) {
            if (abort.load())
                break;
            size_t idx = s * kShardsPerSender + i;
            const ShardManifest &m = st.manifests[idx];
            log.attempted++;
            PushOutcome out = pushShard(transport, m, st.shards[idx],
                                        node.linkKey(m.host, m.seq),
                                        "push");
            log.due_ns.push_back(due);
            log.start_ns.push_back(out.start_ns);
            log.ack_ms.push_back(msBetween(out.start_ns, out.end_ns));
            log.cycle.push_back(cycle);
            log.attempts.push_back(out.attempts);
            due = out.end_ns; // Closed loop: the next push is due now.
            if (!out.ok) {
                log.failed++;
                if (log.first_error.empty())
                    log.first_error = out.error;
                abort.store(true);
                break;
            }
        }
    });
}

/** The cycle correctness checks; false entries fail the run. */
struct IngestChecks
{
    bool root_equals_merge = true;
    bool restore_equals = true;
    bool store_once = true;
    bool all_accepted = true;
};

void
verifyCycle(Node &node, const IngestSetup &st, IngestChecks &c)
{
    const AggregatorStats &as = node.agg.stats();
    if (as.accepted == 0)
        return;

    // Root aggregate == a flat mergeProfiles() in canonical order.
    std::vector<size_t> order(st.shards.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const ShardManifest &x = st.manifests[a], &y = st.manifests[b];
        return x.host != y.host ? x.host < y.host : x.seq < y.seq;
    });
    std::vector<ProfileData> ordered;
    ordered.reserve(order.size());
    for (size_t i : order)
        ordered.push_back(st.shards[i]);
    const ProfileData &root = node.agg.aggregate();
    c.root_equals_merge &= mergeProfiles(ordered) == root;
    ordered.clear();

    // Checkpoint + journal replay into a fresh aggregator.
    IncrementalAggregator restored;
    StateJournal journal(node.journal.checkpointPath(), kCompactEvery);
    c.restore_equals &= journal.restore(restored) &&
                        restored.shardCount() == as.accepted &&
                        restored.aggregate() == root;

    // Every checksum deposited exactly once.
    std::vector<uint64_t> sums;
    for (const ProfileData &pd : st.shards)
        sums.push_back(pd.payloadChecksum());
    std::sort(sums.begin(), sums.end());
    bool distinct = std::adjacent_find(sums.begin(), sums.end()) ==
                    sums.end();
    bool present = true;
    for (uint64_t sum : sums)
        present &= node.store.containsChecksum(sum);
    ProfileStore::Stats ss = node.store.stats();
    c.store_once &= distinct && present &&
                    node.store.entryCount() == sums.size() &&
                    ss.shard_entries == sums.size() &&
                    node.store.verify().ok();
}

IngestPhase
ingestPhase(IngestSetup &st, const RunArgs &args, bool traced,
            IngestChecks &checks)
{
    IngestPhase ph;
    CycleGate gate;
    std::atomic<bool> abort{false};
    std::vector<SenderLog> logs(kSenders);
    std::vector<std::thread> senders;
    for (size_t s = 0; s < kSenders; s++)
        senders.emplace_back([&, s] {
            senderLoop(s, st, gate, abort, logs[s]);
        });

    int64_t measured_ns = 0;
    std::string dir = args.work_dir + (traced ? "/ingest-traced"
                                              : "/ingest");
    // A traced phase alternates traced and untraced cycles and ends on
    // a whole number of four-cycle groups (see AlternatingSamples).
    auto more = [&] {
        return measured_ns < int64_t(args.seconds) * 1'000'000'000LL ||
               (traced && ph.cycles % 4 != 0);
    };
    for (size_t cycle = 0; more(); cycle++) {
        Node node(dir + "/c" + std::to_string(cycle), st.resolver);
        trace::setEnabled(traced && AlternatingSamples::tracedUnit(cycle));
        int64_t t0 = trace::nowNs();
        gate.release(node, t0, static_cast<uint32_t>(cycle));
        node.serve(*st.listener, kCycleShards, abort);
        gate.waitDone(kSenders);
        measured_ns += trace::nowNs() - t0;
        ph.cycles++;
        trace::setEnabled(false);
        ph.nodes.addNode(node);
        checks.all_accepted &= node.agg.stats().accepted == kCycleShards;
        // Full checks on every fourth cycle and the last one keep the
        // untimed share of a run small.
        if (cycle % 4 == 0 || abort.load() || !more())
            verifyCycle(node, st, checks);
        node.pin.release();
        removeTree(node.dir);
        if (abort.load())
            break;
    }
    trace::setEnabled(false);
    gate.shutdown();
    for (std::thread &t : senders)
        t.join();
    removeTree(dir);

    std::vector<double> acks;
    std::vector<int64_t> due, start;
    for (const SenderLog &l : logs) {
        acks.insert(acks.end(), l.ack_ms.begin(), l.ack_ms.end());
        due.insert(due.end(), l.due_ns.begin(), l.due_ns.end());
        start.insert(start.end(), l.start_ns.begin(), l.start_ns.end());
        if (traced)
            for (size_t i = 0; i < l.ack_ms.size(); i++)
                ph.alt.add(l.cycle[i], l.ack_ms[i]);
        for (int a : l.attempts)
            ph.nodes.attempts += a;
        ph.nodes.pushes += l.attempts.size();
        ph.attempted += l.attempted;
        ph.failed += l.failed;
        if (!l.first_error.empty())
            std::fprintf(stderr, "perfbench: push failed: %s\n",
                         l.first_error.c_str());
    }
    ph.ack = summarize(acks);
    ph.measured_s = static_cast<double>(measured_ns) / 1e9;
    ph.shards_per_s = static_cast<double>(ph.attempted - ph.failed) /
                      std::max(ph.measured_s, 1e-9);
    ph.late = lateness(due, start);
    if (traced)
        ph.tree = trace::buildTree(trace::drain());
    else
        trace::drain();
    return ph;
}

} // namespace

void
runIngest(const RunArgs &args, Report &report)
{
    std::unique_ptr<IngestSetup> st = timedSetup<IngestSetup>(
        report, [&] { return ingestSetup(args); });

    IngestChecks checks;
    IngestPhase ph = ingestPhase(*st, args, false, checks);
    report.attempted += ph.attempted;
    report.failed += ph.failed;
    report.e2e["ops_per_s"] = {ph.shards_per_s, "1/s", ph.ack.n,
                               "acked shards per measured second"};
    putTiming(report.e2e, "op_p50_ms", "op_tail_ms", ph.ack,
              "ack (serialize start to sendShard ok)");
    report.e2e["ack_p50_ms"] = report.e2e["op_p50_ms"];
    report.e2e["peak_rss_mb"] = {peakRssMb(), "MiB", 0, "getrusage max RSS"};
    report.detail["shards_per_s"] = report.e2e["ops_per_s"];
    putTiming(report.detail, "ack_p50_ms", "ack_tail_ms", ph.ack,
              "ack (serialize start to sendShard ok)");
    report.detail["cycles"] = {static_cast<double>(ph.cycles), "count", 0,
                               "fresh node per 60 shards"};

    if (args.trace) {
        IngestPhase tp = ingestPhase(*st, args, true, checks);
        report.attempted += tp.attempted;
        report.failed += tp.failed;

        Means replay;
        std::unique_ptr<IncrementalAggregator> shadow =
            replayFolds(st->manifests, st->shards, false, replay, report);
        const ProfileData &agg = shadow->aggregate();
        replayAnalysis(*st->w.program, agg, replay, report);
        replayRender(st->w, agg, replay, report);
        Means served;
        std::vector<ShardManifest> few(st->manifests.begin(),
                                       st->manifests.begin() + 4);
        std::vector<ProfileData> few_pd(st->shards.begin(),
                                        st->shards.begin() + 4);
        trace::Tree served_tree = replayServed(
            st->w, few, few_pd, args.work_dir + "/ingest-replay", served,
            report);

        layersFromSpans(report, tp.tree, served_tree);
        putReplayLayers(report, replay, "decomposition replay");
        putCollectLayers(report, st->collect, "set-up pre-collection");
        putNodeLayers(report, tp.nodes);
        report.layer["render.ns"] = {replay.mean("render.ns"), "ns", 1,
                                     "replay render of the cycle aggregate"};
        report.layer["render.bytes"] = {replay.mean("render.bytes"), "bytes",
                                        1, "replay render"};
        putServedReplayLayers(report, served);
        report.layer["generator.late_ms"] = {
            tp.late.mean_ms, "ms", tp.late.n,
            "closed loop: push start after previous ack"};
        putOverhead(report, tp.alt, "ack");
        putAccounted(report, tp.tree, "push");
        writeSpans(tp.tree, args.work_dir + "/spans-ingest.jsonl");
    }

    report.check("root aggregate equals mergeProfiles", checks.root_equals_merge);
    report.check("journal restore yields the same aggregate",
                 checks.restore_equals);
    report.check("store holds each checksum exactly once", checks.store_once);
    report.check("every pushed shard accepted", checks.all_accepted);
}

// =====================================================================
// serve
// =====================================================================

namespace {

constexpr size_t kWarmShards = 4;
/**
 * Pushes per cycle. Each cycle serves a fresh node pre-warmed with the
 * same shards, so cold analyses run on aggregates of 5 to 24 shards
 * whatever --seconds is. Without the reset the aggregate, the cold
 * analyses and the RSS grow with the run length.
 */
constexpr size_t kCyclePushes = 20;
/**
 * 4 shards/s: the fastest of the rates tried (2, 4, 8, 16/s) at which
 * the pusher stays on schedule and the poll thread keeps most of its
 * time for reads (see perfbench/README.md).
 */
constexpr int64_t kPushPeriodNs = 250'000'000;
constexpr size_t kClients = 2;

struct ServeSetup
{
    Workload w;
    WorkloadResolver resolver;
    std::vector<ShardManifest> warm_m, push_m;
    std::vector<ProfileData> warm, pushes;
    Means collect;
    std::unique_ptr<ShardListener> listener;
    std::string slice_host;
};

std::unique_ptr<ServeSetup>
serveSetup(const RunArgs &args)
{
    auto st = std::make_unique<ServeSetup>();
    st->w = requireWorkloadByName("kernelbench");
    st->resolver = resolverFor({st->w});
    for (size_t i = 0; i < kWarmShards; i++) {
        std::string host = format("w%zu", i);
        st->warm.push_back(collectTimed(
            st->w, shardConfig(st->w, args.seed, host, 0, 4), st->collect));
        st->warm_m.push_back(leafManifest(st->w, host, 0));
    }
    for (size_t k = 0; k < kCyclePushes; k++) {
        std::string host = format("p%zu", k % 4);
        uint32_t seq = static_cast<uint32_t>(k / 4);
        st->pushes.push_back(collectTimed(
            st->w, shardConfig(st->w, args.seed, host, seq, 4),
            st->collect));
        st->push_m.push_back(leafManifest(st->w, host, seq));
    }
    st->slice_host = st->warm_m[args.seed % kWarmShards].host;
    st->listener = std::make_unique<ShardListener>(0);
    return st;
}

/**
 * What a serve client keeps: every latency, but only the first reply at
 * each new epoch (all freshness needs), so memory does not grow with
 * the query rate.
 */
struct ClientLog
{
    std::vector<double> latency_ms;
    std::vector<uint32_t> latency_cycle; ///< The cycle of each latency.
    uint64_t attempted = 0, failed = 0;
    double render_ns = 0.0, reply_bytes = 0.0;
    /** (cycle, epoch, end_ns) of the first reply at each epoch. */
    std::vector<std::tuple<uint32_t, uint64_t, int64_t>> epoch_firsts;
};

/** One open-loop push. */
struct PushSample
{
    int64_t due_ns = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /** The epoch its arrival makes (the node is fresh every cycle). */
    uint64_t epoch = 0;
    uint32_t cycle = 0;
    int attempts = 0;
    bool ok = false;
};

struct ServePhase
{
    Summary query, ack, fresh;
    double queries_per_s = 0.0;
    size_t cycles = 0;
    uint64_t attempted = 0, failed = 0;
    Lateness late;
    NodeTotals nodes;
    double render_ns = 0.0, reply_bytes = 0.0;
    uint64_t hits = 0, misses = 0, analyses = 0;
    std::vector<Node::Analyzed> analyzed;
    /** Traced phase: query latencies of traced and untraced cycles. */
    AlternatingSamples alt;
    bool served_equals_offline = false;
    bool cached_never_reanalyzed = true;
    trace::Tree tree;
};

/** Served mix/report of the live node == an offline service's. */
bool
servedEqualsOffline(const ServeSetup &st, Node &node,
                    const std::string &served_mix,
                    const std::string &served_report)
{
    FixedProfileSource source(node.agg.aggregate(), st.w.name);
    AnalysisService offline(source, st.resolver);
    QueryRequest req;
    req.verb = "mix";
    std::string mix = offline.serve(req).render(RenderFormat::Text);
    req.verb = "report";
    std::string rep = offline.serve(req).render(RenderFormat::Text);
    return !served_mix.empty() && served_mix == mix && served_report == rep;
}

ServePhase
servePhase(ServeSetup &st, const RunArgs &args, bool traced)
{
    ServePhase ph;
    std::string dir = args.work_dir + (traced ? "/serve-traced" : "/serve");
    const int64_t cycle_ns = int64_t(kCyclePushes) * kPushPeriodNs;

    CycleGate gate;
    std::vector<ClientLog> logs(kClients);
    std::vector<PushSample> pushes;
    std::vector<std::thread> generators;
    for (size_t c = 0; c < kClients; c++)
        generators.emplace_back([&, c] {
            std::vector<std::string> verbs = serveCycle(st.slice_host);
            ClientLog &log = logs[c];
            log.latency_ms.reserve(1 << 20);
            log.latency_cycle.reserve(1 << 20);
            size_t i = c * 2;
            gate.run([&](Node &, int64_t t0, uint32_t cycle) {
                // Closed loop: each query is sent when the previous
                // reply lands.
                QueryClient client("127.0.0.1", st.listener->port(),
                                   10'000);
                sleepUntilNs(t0);
                uint64_t epoch = 0;
                while (trace::nowNs() < t0 + cycle_ns) {
                    QueryOutcome q =
                        runQuery(client, verbs[i++ % verbs.size()]);
                    log.attempted++;
                    if (!q.ok) {
                        log.failed++;
                        continue;
                    }
                    log.latency_ms.push_back(msBetween(q.start_ns, q.end_ns));
                    log.latency_cycle.push_back(cycle);
                    log.render_ns += static_cast<double>(q.reply.render_ns);
                    log.reply_bytes +=
                        static_cast<double>(q.reply.payload.size());
                    if (q.reply.epoch != epoch) {
                        epoch = q.reply.epoch;
                        log.epoch_firsts.emplace_back(cycle, epoch, q.end_ns);
                    }
                }
            });
        });
    generators.emplace_back([&] {
        SocketTransportOptions so;
        so.port = st.listener->port();
        so.max_attempts = 2;
        so.io_timeout_ms = 10'000;
        SocketTransport transport(so);
        gate.run([&](Node &node, int64_t t0, uint32_t cycle) {
            // Open loop: push k is due at t0 + k * period whether or
            // not the previous one was acked.
            for (size_t k = 0; k < st.pushes.size(); k++) {
                int64_t due = t0 + int64_t(k) * kPushPeriodNs;
                sleepUntilNs(due);
                const ShardManifest &m = st.push_m[k];
                PushOutcome out = pushShard(transport, m, st.pushes[k],
                                            node.linkKey(m.host, m.seq),
                                            "push");
                pushes.push_back({due, out.start_ns, out.end_ns,
                                  kWarmShards + k + 1, cycle, out.attempts,
                                  out.ok});
                if (!out.ok)
                    std::fprintf(stderr, "perfbench: push failed: %s\n",
                                 out.error.c_str());
            }
        });
    });

    int64_t measured_ns = 0;
    // A traced phase alternates traced and untraced cycles and ends on
    // a whole number of four-cycle groups (see AlternatingSamples).
    auto more = [&] {
        return measured_ns < int64_t(args.seconds) * 1'000'000'000LL ||
               (traced && ph.cycles % 4 != 0);
    };
    for (uint32_t cycle = 0; more(); cycle++) {
        Node node(dir + "/c" + std::to_string(cycle), st.resolver);
        for (size_t i = 0; i < st.warm.size(); i++) {
            ShardManifest m = st.warm_m[i];
            std::string bytes = st.warm[i].serialize(&m.checksum);
            node.ingestLocal(m, st.warm[i], bytes);
        }
        std::atomic<bool> stop_node{false};
        std::thread server(
            [&] { node.serve(*st.listener, 0, stop_node); });
        trace::setEnabled(traced && AlternatingSamples::tracedUnit(cycle));
        int64_t t0 = trace::nowNs() + 5'000'000;
        gate.release(node, t0, cycle);
        gate.waitDone(kClients + 1);
        trace::setEnabled(false);
        measured_ns += trace::nowNs() - t0;
        ph.cycles++;

        bool last = !more();
        std::string served_mix, served_report;
        if (last) {
            QueryClient client("127.0.0.1", st.listener->port(), 10'000);
            QueryOutcome mix = runQuery(client, requestBody("mix"));
            QueryOutcome rep = runQuery(client, requestBody("report"));
            served_mix = mix.ok ? mix.reply.payload : "";
            served_report = rep.ok ? rep.reply.payload : "";
        }
        stop_node.store(true);
        server.join();
        if (last)
            ph.served_equals_offline =
                servedEqualsOffline(st, node, served_mix, served_report);
        ph.cached_never_reanalyzed &= node.cached_reanalyses == 0;
        const ServiceStats &ss = node.service.stats();
        ph.hits += ss.hits;
        ph.misses += ss.misses;
        ph.analyses += ss.analyses;
        ph.analyzed.insert(ph.analyzed.end(), node.analyzed.begin(),
                           node.analyzed.end());
        ph.nodes.addNode(node);
        node.pin.release();
        removeTree(node.dir);
    }
    gate.shutdown();
    for (std::thread &t : generators)
        t.join();
    removeTree(dir);

    // Query latencies, freshness and the generator's lateness.
    std::vector<double> q_ms;
    double render_ns = 0, reply_bytes = 0;
    for (const ClientLog &log : logs) {
        q_ms.insert(q_ms.end(), log.latency_ms.begin(),
                    log.latency_ms.end());
        if (traced)
            for (size_t i = 0; i < log.latency_ms.size(); i++)
                ph.alt.add(log.latency_cycle[i], log.latency_ms[i]);
        ph.attempted += log.attempted;
        ph.failed += log.failed;
        render_ns += log.render_ns;
        reply_bytes += log.reply_bytes;
    }
    std::vector<double> ack_ms, fresh_ms;
    std::vector<int64_t> due, start;
    for (const PushSample &p : pushes) {
        ph.attempted++;
        ph.nodes.pushes++;
        ph.nodes.attempts += p.attempts;
        due.push_back(p.due_ns);
        start.push_back(p.start_ns);
        if (!p.ok) {
            ph.failed++;
            continue;
        }
        ack_ms.push_back(msBetween(p.due_ns, p.end_ns));
        // The earliest reply, from either client, that includes it.
        int64_t first = INT64_MAX;
        for (const ClientLog &log : logs)
            for (const auto &[cycle, epoch, end] : log.epoch_firsts)
                if (cycle == p.cycle && epoch >= p.epoch) {
                    first = std::min(first, end);
                    break;
                }
        if (first != INT64_MAX)
            fresh_ms.push_back(msBetween(p.due_ns, first));
    }
    ph.query = summarize(q_ms);
    ph.ack = summarize(ack_ms);
    ph.fresh = summarize(fresh_ms);
    ph.queries_per_s = static_cast<double>(q_ms.size()) /
                       std::max(static_cast<double>(measured_ns) / 1e9, 1e-9);
    ph.late = lateness(due, start);
    ph.render_ns = q_ms.empty() ? 0.0 : render_ns / q_ms.size();
    ph.reply_bytes = q_ms.empty() ? 0.0 : reply_bytes / q_ms.size();
    if (traced)
        ph.tree = trace::buildTree(trace::drain());
    else
        trace::drain();
    return ph;
}

/**
 * Replay the analyses of every epoch of a cycle (the full aggregate and
 * the queried host slice at each) and set service.analysis_ns beside
 * the replayed stage sum over the analyzer runs of the same epochs.
 */
void
replayServeAnalyses(const ServeSetup &st, const ServePhase &ph, Means &out,
                    Report &report)
{
    IncrementalAggregator shadow;
    auto fold = [&](const ShardManifest &m0, const ProfileData &pd) {
        ShardManifest m = m0;
        m.checksum = pd.payloadChecksum();
        shadow.addShard(m, pd);
    };
    for (size_t i = 0; i < st.warm.size(); i++)
        fold(st.warm_m[i], st.warm[i]);
    size_t epochs = st.pushes.size() + 1;
    double service_sum = 0, replay_sum = 0;
    size_t matched = 0;
    for (size_t k = 0; k < epochs; k++) {
        if (k > 0)
            fold(st.push_m[k - 1], st.pushes[k - 1]);
        for (const std::string &host : {std::string(), st.slice_host}) {
            const ProfileData *pd = host.empty() ? &shadow.aggregate()
                                                 : shadow.hostPartial(host);
            if (!pd)
                continue;
            double replayed = replayAnalysis(*st.w.program, *pd, out, report);
            for (const Node::Analyzed &a : ph.analyzed)
                if (a.epoch == shadow.epoch() && a.host == host) {
                    service_sum += static_cast<double>(a.analysis_ns);
                    replay_sum += replayed;
                    matched++;
                }
        }
    }
    report.layer["service.analysis_ns"] = {
        matched ? service_sum / matched : 0.0, "ns", matched,
        "reply timing= analysis of analyzer-running queries"};
    report.detail["replay.analysis_ns.matched"] = {
        matched ? replay_sum / matched : 0.0, "ns", matched,
        "replayed stage sum on the same epochs as service.analysis_ns"};
}

} // namespace

void
runServe(const RunArgs &args, Report &report)
{
    std::unique_ptr<ServeSetup> st = timedSetup<ServeSetup>(
        report, [&] { return serveSetup(args); });

    ServePhase ph = servePhase(*st, args, false);
    report.attempted += ph.attempted;
    report.failed += ph.failed;
    report.e2e["ops_per_s"] = {ph.queries_per_s, "1/s", ph.query.n,
                               "answered queries per second"};
    putTiming(report.e2e, "op_p50_ms", "op_tail_ms", ph.query,
              "query round trip");
    putTiming(report.e2e, "ack_p50_ms", "", ph.ack,
              "push ack from its due time");
    report.e2e["peak_rss_mb"] = {peakRssMb(), "MiB", 0, "getrusage max RSS"};
    report.detail["queries_per_s"] = report.e2e["ops_per_s"];
    putTiming(report.detail, "query_p50_ms", "query_tail_ms", ph.query,
              "query round trip");
    putTiming(report.detail, "ack_p50_ms", "ack_tail_ms", ph.ack,
              "push ack from its due time");
    putTiming(report.detail, "fresh_p50_ms", "", ph.fresh,
              "push due time to first reply at its epoch");
    report.detail["generator.late_max_ms"] = {ph.late.max_ms, "ms",
                                              ph.late.n, "open-loop pusher"};
    report.detail["cycles"] = {static_cast<double>(ph.cycles), "count", 0,
                               "fresh pre-warmed node per 20 pushes"};
    bool served_ok = ph.served_equals_offline;
    bool cached_ok = ph.cached_never_reanalyzed;

    if (args.trace) {
        ServePhase tp = servePhase(*st, args, true);
        report.attempted += tp.attempted;
        report.failed += tp.failed;
        served_ok &= tp.served_equals_offline;
        cached_ok &= tp.cached_never_reanalyzed;

        Means replay;
        std::vector<ShardManifest> all_m = st->warm_m;
        all_m.insert(all_m.end(), st->push_m.begin(), st->push_m.end());
        std::vector<ProfileData> all = st->warm;
        all.insert(all.end(), st->pushes.begin(), st->pushes.end());
        replayFolds(all_m, all, true, replay, report);
        replayServeAnalyses(*st, tp, replay, report);
        Means served;
        size_t few = std::min<size_t>(4, st->pushes.size());
        trace::Tree served_tree = replayServed(
            st->w,
            std::vector<ShardManifest>(st->push_m.begin(),
                                       st->push_m.begin() + few),
            std::vector<ProfileData>(st->pushes.begin(),
                                     st->pushes.begin() + few),
            args.work_dir + "/serve-replay", served, report);

        layersFromSpans(report, tp.tree, served_tree);
        putReplayLayers(report, replay, "decomposition replay");
        putCollectLayers(report, st->collect, "set-up pre-collection");
        putNodeLayers(report, tp.nodes);
        report.layer["render.ns"] = {tp.render_ns, "ns", tp.query.n,
                                     "reply timing= render, mean"};
        report.layer["render.bytes"] = {tp.reply_bytes, "bytes", tp.query.n,
                                        "reply payload, mean"};
        report.layer["query.reply_bytes"] = report.layer["render.bytes"];
        report.layer["service.hit_ratio"] = {
            tp.hits + tp.misses
                ? static_cast<double>(tp.hits) / (tp.hits + tp.misses)
                : 0.0,
            "ratio", tp.hits + tp.misses, "result cache, live nodes"};
        report.layer["service.analyses"] = {
            static_cast<double>(tp.analyses) / std::max<size_t>(tp.cycles, 1),
            "count", tp.cycles, "analyzer runs per cycle, live"};
        report.layer["generator.late_ms"] = {
            tp.late.mean_ms, "ms", tp.late.n,
            "open-loop pusher: send start after due time"};
        putServedReplayLayers(report, served);
        putOverhead(report, tp.alt, "query round trip");
        putAccounted(report, tp.tree, "push");
        putAccounted(report, tp.tree, "query");
        writeSpans(tp.tree, args.work_dir + "/spans-serve.jsonl");
    }

    report.check("served mix/report equal an offline AnalysisService",
                 served_ok);
    report.check("cached repeats never move ServiceStats::analyses",
                 cached_ok);
}

// =====================================================================
// offline
// =====================================================================

namespace {

const char *const kOfflinePrograms[] = {"test40", "kernelbench", "403.gcc"};

struct OfflineSetup
{
    std::vector<Workload> ws;
    WorkloadResolver resolver;
    std::string dir;
};

struct RoundResult
{
    double collect_ms = 0.0; ///< collect + saveAtomically, all programs.
    double analyze_ms = 0.0; ///< load + serve(report) + render.
    bool ok = true;
    bool round_trip = true;
    std::vector<ProfileData> profiles;
    int64_t start_ns = 0, end_ns = 0;
};

/** One `collect -o` + `report -i` pass over every offline program. */
RoundResult
offlineRound(const OfflineSetup &st, uint64_t seed, uint32_t round,
             Means &collect, ServiceStats &services)
{
    RoundResult r;
    r.start_ns = trace::nowNs();
    trace::Span op("round");
    for (const Workload &w : st.ws) {
        std::string path = st.dir + "/" + w.name + ".hbbp";
        int64_t t0 = trace::nowNs();
        ProfileData pd = collectTimed(
            w, shardConfig(w, seed, "offline", round, 1), collect);
        {
            trace::Span s("profile.save");
            pd.saveAtomically(path);
        }
        int64_t t1 = trace::nowNs();
        ProfileData loaded;
        {
            trace::Span s("profile.load");
            loaded = ProfileData::load(path);
        }
        FixedProfileSource source(std::move(loaded), w.name);
        AnalysisService service(source, st.resolver);
        QueryRequest req;
        req.verb = "report";
        QueryResult result;
        {
            trace::Span s("service");
            result = service.serve(req);
        }
        std::string text;
        {
            trace::Span s("render");
            text = result.render(RenderFormat::Text);
        }
        int64_t t2 = trace::nowNs();
        services.hits += service.stats().hits;
        services.misses += service.stats().misses;
        services.analyses += service.stats().analyses;
        r.collect_ms += msBetween(t0, t1);
        r.analyze_ms += msBetween(t1, t2);
        collect.add("render.bytes", static_cast<double>(text.size()));
        r.ok &= result.error.empty() && !text.empty();
        r.round_trip &= *source.profile() == pd;
        r.profiles.push_back(std::move(pd));
    }
    r.end_ns = trace::nowNs();
    return r;
}

std::unique_ptr<OfflineSetup>
offlineSetup(const RunArgs &args)
{
    auto st = std::make_unique<OfflineSetup>();
    for (const char *name : kOfflinePrograms)
        st->ws.push_back(requireWorkloadByName(name));
    st->resolver = resolverFor(st->ws);
    st->dir = args.work_dir + "/offline";
    removeTree(st->dir);
    std::filesystem::create_directories(st->dir);
    // One warm-up round, so lazy initialisation and cold caches are
    // paid here rather than by the first measured round.
    Means unused;
    ServiceStats unused_stats;
    offlineRound(*st, args.seed, UINT32_MAX, unused, unused_stats);
    return st;
}

struct OfflinePhase
{
    Summary collect, analyze;
    double rounds_per_s = 0.0;
    uint64_t attempted = 0, failed = 0;
    bool round_trip = true;
    Lateness late;
    /** Collect-layer numbers and report sizes of the live rounds. */
    Means live;
    ServiceStats services;
    /** Traced phase: analyze_ms of traced and untraced rounds. */
    AlternatingSamples alt;
    /** The first round's profiles: the same for a given seed, so the
     * replay's estimator-health counts repeat exactly. */
    std::vector<ProfileData> first;
    trace::Tree tree;
};

OfflinePhase
offlinePhase(const OfflineSetup &st, const RunArgs &args, bool traced)
{
    OfflinePhase ph;
    std::vector<double> collect_ms, analyze_ms;
    std::vector<int64_t> due, start;
    const int64_t t0 = trace::nowNs();
    const int64_t t_end = t0 + int64_t(args.seconds) * 1'000'000'000LL;
    int64_t prev_end = t0;
    // A traced phase alternates traced and untraced rounds, each pair on
    // the same round seed, and ends on a whole number of four-round
    // groups (see AlternatingSamples).
    uint32_t unit = 0;
    while (trace::nowNs() < t_end || (traced && unit % 4 != 0)) {
        uint32_t u = unit++;
        trace::setEnabled(traced && AlternatingSamples::tracedUnit(u));
        RoundResult r = offlineRound(st, args.seed, traced ? u / 2 : u,
                                     ph.live, ph.services);
        trace::setEnabled(false);
        ph.attempted++;
        due.push_back(prev_end);
        start.push_back(r.start_ns);
        prev_end = r.end_ns;
        ph.round_trip &= r.round_trip;
        if (!r.ok) {
            ph.failed++;
            continue;
        }
        collect_ms.push_back(r.collect_ms);
        analyze_ms.push_back(r.analyze_ms);
        if (traced)
            ph.alt.add(u, r.analyze_ms);
        if (ph.first.empty())
            ph.first = std::move(r.profiles);
    }
    ph.rounds_per_s = static_cast<double>(collect_ms.size()) /
                      std::max(msBetween(t0, prev_end) / 1e3, 1e-9);
    ph.collect = summarize(collect_ms);
    ph.analyze = summarize(analyze_ms);
    ph.late = lateness(due, start);
    if (traced)
        ph.tree = trace::buildTree(trace::drain());
    else
        trace::drain();
    return ph;
}

} // namespace

void
runOffline(const RunArgs &args, Report &report)
{
    std::unique_ptr<OfflineSetup> st = timedSetup<OfflineSetup>(
        report, [&] { return offlineSetup(args); });

    OfflinePhase ph = offlinePhase(*st, args, false);
    report.attempted += ph.attempted;
    report.failed += ph.failed;
    bool round_trip = ph.round_trip;
    report.e2e["ops_per_s"] = {ph.rounds_per_s, "1/s", ph.analyze.n,
                               "rounds (3 programs) per second"};
    putTiming(report.e2e, "op_p50_ms", "op_tail_ms", ph.analyze,
              "analyze per round (load + report + render)");
    putTiming(report.e2e, "ack_p50_ms", "", ph.collect,
              "collect per round (collect + saveAtomically)");
    report.e2e["peak_rss_mb"] = {peakRssMb(), "MiB", 0, "getrusage max RSS"};
    putTiming(report.detail, "collect_ms", "collect_tail_ms", ph.collect,
              "collect + saveAtomically per round");
    putTiming(report.detail, "analyze_ms", "analyze_tail_ms", ph.analyze,
              "load + report + render per round");

    if (args.trace) {
        OfflinePhase tp = offlinePhase(*st, args, true);
        report.attempted += tp.attempted;
        report.failed += tp.failed;
        round_trip &= tp.round_trip;

        Means replay, served;
        std::vector<trace::SpanRecord> served_spans;
        for (size_t j = 0; j < st->ws.size() && j < tp.first.size(); j++) {
            const Workload &w = st->ws[j];
            std::vector<ShardManifest> m{leafManifest(w, "offline", 0)};
            std::vector<ProfileData> one{tp.first[j]};
            replayFolds(m, one, false, replay, report);
            replayAnalysis(*w.program, one[0], replay, report);
            trace::Tree t = replayServed(
                w, m, one, args.work_dir + "/offline-replay", served,
                report);
            served_spans.insert(served_spans.end(), t.spans.begin(),
                                t.spans.end());
        }
        layersFromSpans(report, tp.tree,
                        trace::buildTree(std::move(served_spans)));
        putReplayLayers(report, replay,
                        "decomposition replay, mean per program");
        putCollectLayers(report, tp.live,
                         "live collections, mean per program");
        auto live = trace::statsByName(tp.tree);
        report.layer["render.ns"] = {live["render"].meanNs(), "ns",
                                     live["render"].count, "live spans"};
        report.layer["render.bytes"] = {
            tp.live.mean("render.bytes"), "bytes",
            tp.live.count("render.bytes"), "live reports"};
        report.layer["service.analyses"] = {
            static_cast<double>(tp.services.analyses) /
                std::max<uint64_t>(tp.attempted, 1),
            "count", tp.attempted, "analyzer runs per round, live"};
        uint64_t lookups = tp.services.hits + tp.services.misses;
        report.layer["service.hit_ratio"] = {
            static_cast<double>(tp.services.hits) /
                std::max<uint64_t>(lookups, 1),
            "ratio", lookups,
            "live services; a fresh service per step, so always 0 here"};
        report.layer["aggregate.reject_ratio"] = {
            0.0, "ratio", 0, "no aggregator in the loop: always 0 here"};
        putServedReplayLayers(report, served);
        report.layer["generator.late_ms"] = {
            tp.late.mean_ms, "ms", tp.late.n,
            "closed loop: round start after previous round"};
        putOverhead(report, tp.alt, "analyze per round");
        putAccounted(report, tp.tree, "round");
        writeSpans(tp.tree, args.work_dir + "/spans-offline.jsonl");
    }
    report.check("load(saveAtomically(p)) == p", round_trip);
    removeTree(st->dir);
}

} // namespace perfbench
