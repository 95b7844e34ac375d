/**
 * @file
 * The collector: one workload execution, two simultaneous collections.
 *
 * Mirrors Section V.A of the paper. The workload is run once; two PMU
 * counters collect in LBR mode simultaneously — INST_RETIRED:PREC_DIST
 * feeding the EBS data source and BR_INST_RETIRED:NEAR_TAKEN feeding the
 * LBR data source. Sampling periods are chosen from the workload's
 * runtime class (Table 4), scaled down for simulation. The output is a
 * ProfileData, our perf.data equivalent, including module map records.
 *
 * The engine hands the PMU, its one observer, one executed basic block
 * at a time, with the block's taken branch, and the PMU looks at single
 * instructions only in the few blocks where a PMI falls due or its EBS
 * counter overflows (see pmu.hh). The SIMD instruction count the
 * overhead model needs comes after the run, from an Instrumenter view
 * over the engine's block counts.
 */

#ifndef HBBP_COLLECT_COLLECTOR_HH
#define HBBP_COLLECT_COLLECTOR_HH

#include <cstdint>

#include "collect/profile.hh"
#include "pmu/pmu.hh"
#include "program/program.hh"
#include "sim/engine.hh"

namespace hbbp {

/** Collector configuration. */
struct CollectorConfig
{
    /**
     * Runtime class used for period selection. The collector cannot know
     * the runtime up front (the paper's tool asks the user or estimates);
     * workloads provide it.
     */
    RuntimeClass runtime_class = RuntimeClass::Seconds;

    /** Divisor applied to paper periods for simulation. */
    uint64_t period_scale = 100'000;

    /** Instruction budget for the simulated run. */
    uint64_t max_instructions = UINT64_MAX;

    /** PMU microarchitectural parameters (periods are overwritten). */
    PmuConfig pmu;

    /** Execution seed (branch behaviours). */
    uint64_t seed = 1;
};

/** Runs a program under the dual PMU collection. */
class Collector
{
  public:
    /**
     * Execute @p prog on @p machine under the configured collection.
     *
     * @return the collected profile; ProfileData::features holds the
     *         clean-run features (the PMU does not perturb the clock).
     */
    static ProfileData collect(const Program &prog,
                               const MachineConfig &machine,
                               const CollectorConfig &config);
};

/** Derive RunFeatures from engine statistics and exact SIMD counts. */
RunFeatures makeRunFeatures(const ExecStats &stats,
                            uint64_t simd_instructions);

} // namespace hbbp

#endif // HBBP_COLLECT_COLLECTOR_HH
