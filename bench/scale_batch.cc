/**
 * @file
 * Fleet batch scaling benchmark.
 *
 * Measures the two fleet hot paths so future PRs can track scaling
 * regressions:
 *
 *  - batch throughput: workloads/sec for the same workload list at
 *    jobs = 1, 2, 4, 8 (collection + analysis fan-out on the pool);
 *  - merge throughput: samples/sec for folding shard profiles into one
 *    aggregate.
 *
 * Output is machine-readable JSON on stdout (one object), so CI can
 * archive and diff runs. Pass --human for the table view instead, and
 * --quick for a CI-sized run (smaller workload list, fewer job
 * counts).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "bench/foldbench.hh"
#include "fleet/batch.hh"
#include "fleet/merge.hh"
#include "fleet/shard.hh"

using namespace hbbp;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    using namespace std::chrono;
    return duration_cast<duration<double>>(steady_clock::now() - start)
        .count();
}

/** One batch timing sample. */
struct BatchPoint
{
    unsigned jobs = 0;
    double seconds = 0.0;
    double workloads_per_sec = 0.0;
    double speedup = 0.0; ///< vs jobs=1.
};

/** Merge timing sample. */
struct MergePoint
{
    size_t shards = 0;
    uint64_t samples = 0;
    double seconds = 0.0;
    double samples_per_sec = 0.0;
};

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

    // A mixed list: branchy, kernel-heavy and vector-heavy codes, twice
    // over so there is enough fan-out to keep 8 workers busy (--quick
    // keeps one rep and stops at 4 jobs for CI smoke runs).
    std::vector<std::string> workloads;
    for (int rep = 0; rep < (quick ? 1 : 2); rep++)
        for (const char *w :
             {"test40", "kernelbench", "fitter_sse", "fitter_avx_fix",
              "clforward_before", "clforward_after"})
            workloads.push_back(w);

    std::vector<unsigned> job_counts =
        quick ? std::vector<unsigned>{1, 4}
              : std::vector<unsigned>{1, 2, 4, 8};
    std::vector<BatchPoint> batch_points;
    double base_seconds = 0.0;
    for (unsigned jobs : job_counts) {
        BatchConfig bc;
        bc.shards = 2;
        bc.jobs = jobs;
        auto start = std::chrono::steady_clock::now();
        BatchResult res = runBatch(workloads, bc);
        BatchPoint p;
        p.jobs = jobs;
        p.seconds = secondsSince(start);
        p.workloads_per_sec = res.entries.size() / p.seconds;
        if (jobs == 1)
            base_seconds = p.seconds;
        p.speedup = base_seconds / p.seconds;
        batch_points.push_back(p);
    }

    // Merge throughput: fold 16 shards of one big collection (8 shards
    // of a regular-sized one under --quick).
    Workload w = requireWorkloadByName("test40");
    CollectorConfig cc = collectorConfigFor(w);
    cc.max_instructions = w.max_instructions * (quick ? 1 : 4);
    ShardPlan plan;
    plan.shards = quick ? 8 : 16;
    plan.jobs = ThreadPool::defaultThreadCount();
    std::vector<ProfileData> shards =
        collectShards(*w.program, MachineConfig{}, cc, plan);

    MergePoint mp;
    mp.shards = shards.size();
    auto start = std::chrono::steady_clock::now();
    ProfileData merged = mergeProfiles(shards);
    mp.seconds = secondsSince(start);
    mp.samples = merged.ebs.size() + merged.lbr.size();
    mp.samples_per_sec = mp.seconds > 0 ? mp.samples / mp.seconds : 0.0;

    // Fold math on the same shard set (see foldbench.hh).
    bench::FoldBench fb =
        bench::runFoldBench(shards, 4096, quick ? 500 : 2000);

    if (human) {
        bench::headline("Fleet batch scaling",
                        "fleet extension (no paper analogue)");
        TextTable table({"jobs", "seconds", "workloads/s", "speedup"});
        for (size_t col = 0; col < 4; col++)
            table.setAlign(col, Align::Right);
        for (const BatchPoint &p : batch_points)
            table.addRow({format("%u", p.jobs),
                          format("%.3f", p.seconds),
                          format("%.1f", p.workloads_per_sec),
                          format("%.2fx", p.speedup)});
        std::printf("%s\n", table.render().c_str());
        std::printf("merge: %zu shards, %llu samples in %.4fs "
                    "(%.0f samples/sec)\n", mp.shards,
                    static_cast<unsigned long long>(mp.samples),
                    mp.seconds, mp.samples_per_sec);
        bench::printFoldBench(fb);
        return 0;
    }

    std::printf("{\n  \"bench\": \"scale_batch\",\n");
    std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
    std::printf("  %s,\n", bench::foldBenchJson(fb).c_str());
    std::printf("  \"workloads\": %zu,\n", workloads.size());
    std::printf("  \"shards_per_workload\": 2,\n");
    std::printf("  \"batch\": [\n");
    for (size_t i = 0; i < batch_points.size(); i++) {
        const BatchPoint &p = batch_points[i];
        std::printf("    {\"jobs\": %u, \"seconds\": %.6f, "
                    "\"workloads_per_sec\": %.3f, \"speedup\": %.3f}%s\n",
                    p.jobs, p.seconds, p.workloads_per_sec, p.speedup,
                    i + 1 < batch_points.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"merge\": {\"shards\": %zu, \"samples\": %llu, "
                "\"seconds\": %.6f, \"samples_per_sec\": %.0f}\n",
                mp.shards, static_cast<unsigned long long>(mp.samples),
                mp.seconds, mp.samples_per_sec);
    std::printf("}\n");
    return 0;
}
