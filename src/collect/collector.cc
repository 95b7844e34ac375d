#include "collect/collector.hh"

#include "instr/instrumenter.hh"
#include "support/logging.hh"

namespace hbbp {

RunFeatures
makeRunFeatures(const ExecStats &stats, uint64_t simd_instructions)
{
    RunFeatures f;
    f.cycles = stats.cycles;
    f.instructions = stats.instructions;
    f.block_entries = stats.block_entries;
    f.taken_branches = stats.taken_branches;
    f.simd_instructions = simd_instructions;
    return f;
}

ProfileData
Collector::collect(const Program &prog, const MachineConfig &machine,
                   const CollectorConfig &config)
{
    ProfileData pd;
    pd.runtime_class = config.runtime_class;
    pd.paper_periods = paperPeriods(config.runtime_class);
    pd.sim_periods = scaledPeriods(config.runtime_class,
                                   config.period_scale);

    PmuConfig pmu_config = config.pmu;
    pmu_config.ebs_period = pd.sim_periods.ebs;
    pmu_config.lbr_period = pd.sim_periods.lbr;
    DualCollectionPmu pmu(pmu_config);

    ExecutionEngine engine(prog, machine, config.seed);
    engine.addObserver(&pmu);
    ExecStats stats = engine.run(config.max_instructions);

    // The overhead model's SIMD count is read from the engine's block
    // counts after the run; it is not part of the collection.
    Instrumenter counts(engine, /*include_kernel=*/true);
    pd.features = makeRunFeatures(stats, counts.simdInstructions());
    pd.pmi_count = pmu.pmiCount();
    pd.ebs = pmu.takeEbsSamples();
    pd.lbr = pmu.takeLbrSamples();

    for (const Module &mod : prog.modules()) {
        MmapRecord rec;
        rec.name = mod.name;
        rec.base = mod.base;
        rec.size = mod.size;
        rec.kernel = mod.isKernel();
        pd.mmaps.push_back(std::move(rec));
    }
    return pd;
}

} // namespace hbbp
