/**
 * @file
 * The three workloads. Each fills the report's end-to-end metrics
 * from an untraced measured phase and, on a traced run, its per-layer
 * metrics from a second, traced phase plus the decomposition replays.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>

#include "pipeline.hh"

namespace perfbench {

struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /** Scratch directory for journals, stores and saved profiles. */
    std::string work_dir;
};

/** Two closed-loop senders pushing unique test40 shards. */
void runIngest(const RunArgs &args, Report &report);

/** Open-loop kernelbench pushes beside two closed-loop query clients. */
void runServe(const RunArgs &args, Report &report);

/** collect -o then report -i, over test40, kernelbench and 403.gcc. */
void runOffline(const RunArgs &args, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
