/**
 * @file
 * The end-to-end tool: run a workload, collect, analyze, compare.
 *
 * This is the equivalent of the paper's Section V tool: the collector
 * produces a profile from one (simulated) execution; the analyzer turns
 * it into instruction mixes; and — because the simulator is
 * deterministic for a fixed seed — a second run of the same workload,
 * read through two Instrumenter views (all rings, and user mode only as
 * SDE/PIN see it), provides the ground truth that the paper obtains
 * from SDE/PIN. The second run must retire as many instructions as the
 * first, or Profiler::run panics.
 */

#ifndef HBBP_TOOLS_PROFILER_HH
#define HBBP_TOOLS_PROFILER_HH

#include <unordered_map>

#include "analysis/analyzer.hh"
#include "analysis/error.hh"
#include "collect/collector.hh"
#include "instr/instrumenter.hh"
#include "instr/overhead.hh"
#include "sim/engine.hh"
#include "workloads/workload.hh"

namespace hbbp {

/** Output of one profiled run (collection + reference). */
struct ProfiledRun
{
    ProfileData profile;             ///< The collector's output.
    ExecStats stats;                 ///< Clean-run statistics.
    /** SDE/PIN-equivalent reference (user-mode blocks only). */
    Counter<Mnemonic> true_user_mnemonics;
    /** Full reference including kernel blocks (simulator privilege). */
    Counter<Mnemonic> true_all_mnemonics;
    /** Exact BBECs keyed by block start address (all rings). */
    std::unordered_map<uint64_t, uint64_t> true_bbec_by_addr;
};

/** Per-method accuracy summary against the user-mode reference. */
struct AccuracySummary
{
    double hbbp = 0.0; ///< Average weighted error of HBBP.
    double ebs = 0.0;  ///< Average weighted error of EBS alone.
    double lbr = 0.0;  ///< Average weighted error of LBR alone.
};

/** One-stop profiling facade. */
class Profiler
{
  public:
    /**
     * @param machine   machine timing model
     * @param collector collection configuration (periods are selected
     *                  per workload runtime class)
     * @param analyzer  analysis options (classifier, bias knobs, kernel
     *                  map patching)
     */
    Profiler(MachineConfig machine = {}, CollectorConfig collector = {},
             AnalyzerOptions analyzer = {});

    /** Collect a profile and the ground-truth reference for @p w. */
    ProfiledRun run(const Workload &w) const;

    /** Analyze a previously collected profile of @p w. */
    AnalysisResult analyze(const Workload &w,
                           const ProfileData &profile) const;

    /**
     * Compare HBBP/EBS/LBR mixes against the reference, restricted to
     * user-mode instructions (as the paper does — PIN cannot see ring 0).
     */
    AccuracySummary accuracy(const ProfiledRun &run,
                             const AnalysisResult &analysis) const;

    /** User-mode-only mnemonic counts of a mix. */
    static Counter<Mnemonic> userMnemonics(const InstructionMix &mix);

    /** Machine configuration. */
    const MachineConfig &machine() const { return machine_; }

    /** Collector configuration. */
    const CollectorConfig &collectorConfig() const { return collector_; }

    /** Analyzer options. */
    const AnalyzerOptions &analyzerOptions() const { return analyzer_; }

  private:
    MachineConfig machine_;
    CollectorConfig collector_;
    AnalyzerOptions analyzer_;
};

} // namespace hbbp

#endif // HBBP_TOOLS_PROFILER_HH
