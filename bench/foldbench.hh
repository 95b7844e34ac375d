/**
 * @file
 * Shared fold measurement for the scale_* benches.
 *
 * Every scale bench embeds one "fold" section in its JSON output:
 *
 *  - kernel_ns_per_fold: nanoseconds for one kernel pass (sum + dot +
 *    saxpy + saturating-u64 accumulate) over kernel_span elements —
 *    the pure vectorops signal;
 *  - fold_seconds / shards_per_s: wall time of one mergeProfiles()
 *    call folding the bench's shard set into one aggregate — the
 *    end-to-end number, dominated by sample concatenation.
 *
 * scripts/check_bench.py gates kernel_ns_per_fold of a fresh run
 * against the committed BENCH_scale_*.json baselines.
 */

#ifndef HBBP_BENCH_FOLDBENCH_HH
#define HBBP_BENCH_FOLDBENCH_HH

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "fleet/merge.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/vectorops.hh"

namespace hbbp::bench {

/** The fold section of a scale bench. */
struct FoldBench
{
    size_t kernel_span = 0;
    size_t shards = 0;
    double kernel_ns_per_fold = 0.0;
    double fold_seconds = 0.0;
    double shards_per_s = 0.0;
};

namespace detail {

inline double
foldSecondsSince(std::chrono::steady_clock::time_point start)
{
    using namespace std::chrono;
    return duration_cast<duration<double>>(steady_clock::now() - start)
        .count();
}

/** One fold pass over the kernel spans; returns a value the optimizer
 *  must keep (the kernels are out of line in vectorops.cc, but cheap
 *  insurance is cheap). */
inline double
kernelFoldPass(std::vector<double> &x, const std::vector<double> &y,
               std::vector<uint64_t> &acc,
               const std::vector<uint64_t> &inc)
{
    double s = vecops::sum(x.data(), x.size());
    s += vecops::dot(x.data(), y.data(), x.size());
    vecops::saxpy(x.data(), 1.0 / 1048576.0, y.data(), x.size());
    vecops::accumulateSatU64(acc.data(), inc.data(), acc.size());
    return s;
}

} // namespace detail

/**
 * Time @p kernel_reps kernel passes over spans of @p kernel_span
 * doubles/u64s, and one mergeProfiles() fold of @p shards.
 */
inline FoldBench
runFoldBench(const std::vector<ProfileData> &shards,
             size_t kernel_span = 4096, int kernel_reps = 2000)
{
    FoldBench fb;
    fb.kernel_span = kernel_span;
    fb.shards = shards.size();

    // Deterministic kernel operands: values around 1.0 so repeated
    // saxpy passes neither overflow nor denormalize.
    std::vector<double> x(kernel_span), y(kernel_span);
    std::vector<uint64_t> acc(kernel_span), inc(kernel_span);
    for (size_t i = 0; i < kernel_span; i++) {
        x[i] = 1.0 + static_cast<double>(i % 97) / 97.0;
        y[i] = 1.0 - static_cast<double>(i % 89) / 178.0;
        acc[i] = i;
        inc[i] = i * 3 + 1;
    }

    // Kernel timing: one warmup pass, then the measured reps.
    double sink = detail::kernelFoldPass(x, y, acc, inc);
    auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kernel_reps; rep++)
        sink += detail::kernelFoldPass(x, y, acc, inc);
    fb.kernel_ns_per_fold =
        detail::foldSecondsSince(start) * 1e9 / kernel_reps;
    if (sink == 0.12345) // Keep the fold results observable.
        warn("fold bench sink: %f", sink);

    // End-to-end fold of the bench's shards.
    start = std::chrono::steady_clock::now();
    ProfileData folded = mergeProfiles(shards);
    fb.fold_seconds = detail::foldSecondsSince(start);
    fb.shards_per_s = fb.fold_seconds > 0
                          ? static_cast<double>(shards.size()) /
                                fb.fold_seconds
                          : 0.0;
    return fb;
}

/** Render the fold section as JSON (no trailing newline/comma). */
inline std::string
foldBenchJson(const FoldBench &fb)
{
    std::string out;
    out += "\"fold\": {\n";
    out += format("    \"kernel_span\": %zu,\n", fb.kernel_span);
    out += format("    \"shards\": %zu,\n", fb.shards);
    out += format("    \"kernel_ns_per_fold\": %.1f,\n",
                  fb.kernel_ns_per_fold);
    out += format("    \"fold_seconds\": %.6f,\n", fb.fold_seconds);
    out += format("    \"shards_per_s\": %.1f\n", fb.shards_per_s);
    out += "  }";
    return out;
}

/** One human-readable line for the --human views. */
inline void
printFoldBench(const FoldBench &fb)
{
    std::printf("fold: %.0f ns/kernel pass, %.0f shards/s\n",
                fb.kernel_ns_per_fold, fb.shards_per_s);
}

} // namespace hbbp::bench

#endif // HBBP_BENCH_FOLDBENCH_HH
