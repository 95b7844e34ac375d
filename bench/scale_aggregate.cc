/**
 * @file
 * Distributed aggregation scaling benchmark.
 *
 * Measures the incremental aggregator against the naive baseline it
 * replaces: re-aggregating a drop directory from scratch every time a
 * shard arrives. With S shards, the incremental path reads and folds
 * each shard once (O(S) work overall, plus one canonical rebuild when
 * the aggregate is requested); the batch-rescan path reloads and
 * re-merges everything on each arrival (O(S^2)). The gap is the point
 * of partial-aggregate caching, and this bench tracks it as shard
 * counts grow.
 *
 * Output is machine-readable JSON on stdout (one object), so CI can
 * archive and diff runs. Pass --human for the table view, --quick for
 * a CI-sized run.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "bench/foldbench.hh"
#include "fleet/aggregate.hh"
#include "fleet/manifest.hh"
#include "fleet/merge.hh"
#include "fleet/shard.hh"
#include "support/thread_pool.hh"

using namespace hbbp;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    using namespace std::chrono;
    return duration_cast<duration<double>>(steady_clock::now() - start)
        .count();
}

/** One aggregation timing point. */
struct AggPoint
{
    size_t shards = 0;
    uint64_t samples = 0;
    double incremental_seconds = 0.0;
    double batch_rescan_seconds = 0.0;
    double speedup = 0.0;
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

    // Simulated hosts export shards of one fleet-wide collection; the
    // shard counts sweep how far behind a naive re-aggregator falls.
    std::vector<size_t> shard_counts =
        quick ? std::vector<size_t>{4, 8}
              : std::vector<size_t>{4, 8, 16, 32};
    Workload w = requireWorkloadByName("test40");
    CollectorConfig cc = collectorConfigFor(w);
    if (quick)
        cc.max_instructions = w.max_instructions / 4;

    std::string dir =
        (std::filesystem::temp_directory_path() / "hbbp_scale_aggregate")
            .string();

    std::vector<AggPoint> points;
    std::vector<ProfileData> fold_shards; // Largest round, for foldbench.
    for (size_t n_shards : shard_counts) {
        std::filesystem::remove_all(dir);

        ShardPlan plan;
        plan.shards = static_cast<uint32_t>(n_shards);
        plan.jobs = ThreadPool::defaultThreadCount();
        std::vector<ProfileData> shards =
            collectShards(*w.program, MachineConfig{}, cc, plan);

        // One shard per simulated host, exported up front: both modes
        // then consume the same on-disk drop directory.
        std::vector<std::string> manifests;
        for (size_t i = 0; i < shards.size(); i++)
            manifests.push_back(exportShard(
                shards[i], format("host%03zu", i), w.name,
                /*seq=*/0, /*options_hash=*/0, dir));

        AggPoint p;
        p.shards = n_shards;

        // Incremental: fold each arrival once, rebuild on demand.
        auto start = std::chrono::steady_clock::now();
        IncrementalAggregator agg;
        for (const std::string &m : manifests)
            agg.importFile(m);
        const ProfileData &incremental = agg.aggregate();
        p.incremental_seconds = secondsSince(start);
        p.samples = incremental.ebs.size() + incremental.lbr.size();

        // Batch rescan: every arrival reloads and re-merges the whole
        // directory so far — the no-cache baseline.
        start = std::chrono::steady_clock::now();
        ProfileData batch;
        for (size_t arrived = 1; arrived <= manifests.size();
             arrived++) {
            std::vector<ProfileData> all;
            for (size_t i = 0; i < arrived; i++)
                all.push_back(
                    importShard(manifests[i], nullptr)->profile);
            batch = mergeProfiles(all);
        }
        p.batch_rescan_seconds = secondsSince(start);

        if (!(batch == incremental))
            fatal("incremental and batch aggregates disagree at %zu "
                  "shards", n_shards);
        p.speedup = p.incremental_seconds > 0
                        ? p.batch_rescan_seconds / p.incremental_seconds
                        : 0.0;
        points.push_back(p);
        fold_shards = std::move(shards);
    }
    std::filesystem::remove_all(dir);

    // Fold math on the largest shard set (foldbench.hh).
    bench::FoldBench fb =
        bench::runFoldBench(fold_shards, 4096, quick ? 500 : 2000);

    if (human) {
        bench::headline("Distributed aggregation scaling",
                        "fleet extension (no paper analogue)");
        TextTable table({"shards", "samples", "incremental s",
                         "batch-rescan s", "speedup"});
        for (size_t col = 0; col < 5; col++)
            table.setAlign(col, Align::Right);
        for (const AggPoint &p : points)
            table.addRow({format("%zu", p.shards),
                          format("%llu", static_cast<unsigned long long>(
                                             p.samples)),
                          format("%.4f", p.incremental_seconds),
                          format("%.4f", p.batch_rescan_seconds),
                          format("%.1fx", p.speedup)});
        std::printf("%s\n", table.render().c_str());
        bench::printFoldBench(fb);
        return 0;
    }

    std::printf("{\n  \"bench\": \"scale_aggregate\",\n");
    std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
    std::printf("  %s,\n", bench::foldBenchJson(fb).c_str());
    std::printf("  \"points\": [\n");
    for (size_t i = 0; i < points.size(); i++) {
        const AggPoint &p = points[i];
        std::printf("    {\"shards\": %zu, \"samples\": %llu, "
                    "\"incremental_seconds\": %.6f, "
                    "\"batch_rescan_seconds\": %.6f, "
                    "\"speedup\": %.3f}%s\n",
                    p.shards,
                    static_cast<unsigned long long>(p.samples),
                    p.incremental_seconds, p.batch_rescan_seconds,
                    p.speedup, i + 1 < points.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
}
