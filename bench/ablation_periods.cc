/**
 * @file
 * Ablation: accuracy and collection overhead vs sampling period
 * (Section V.A notes the periods influence both). Denser sampling
 * buys accuracy at the cost of PMI overhead; the Table 4 defaults sit
 * on the flat part of the accuracy curve.
 */

#include "bench/common.hh"

using namespace hbbp;
using namespace hbbp::bench;

int
main()
{
    setLogLevel(LogLevel::Quiet);
    headline("Ablation: accuracy vs sampling period",
             "denser sampling improves accuracy with diminishing "
             "returns while PMI overhead grows linearly");

    Workload w = makeTest40();
    CollectionCostModel cost;

    TextTable table({"period divisor", "EBS period", "LBR period",
                     "HBBP err", "LBR err", "EBS err",
                     "overhead @paper"});
    for (size_t c = 1; c < 7; c++)
        table.setAlign(c, Align::Right);

    // Sweep the simulated periods; overhead is reported for the
    // equivalent paper-scale periods (paper period / divisor relative
    // to the Table 4 default).
    SamplingPeriods paper = paperPeriods(w.runtime_class);
    for (uint64_t divisor : {1ULL, 2ULL, 4ULL, 8ULL, 16ULL, 64ULL}) {
        // Sparser than the default when divisor is 1 would mean the
        // Table 4 scaling; here we start at the default and densify.
        SamplingPeriods sim{
            nextPrime(std::max<uint64_t>(997 / divisor, 13)),
            nextPrime(std::max<uint64_t>(97 / divisor, 7))};

        PmuConfig pmu_config;
        pmu_config.ebs_period = sim.ebs;
        pmu_config.lbr_period = sim.lbr;
        DualCollectionPmu pmu(pmu_config);
        ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
        engine.addObserver(&pmu);
        ExecStats stats = engine.run(w.max_instructions);

        ProfileData pd;
        pd.runtime_class = w.runtime_class;
        pd.paper_periods = paper;
        pd.sim_periods = sim;
        pd.ebs = pmu.takeEbsSamples();
        pd.lbr = pmu.takeLbrSamples();
        pd.features = makeRunFeatures(stats, 0);

        Profiler profiler;
        AnalysisResult res = profiler.analyze(w, pd);

        // Ground truth, from the same run.
        Counter<Mnemonic> ref = Instrumenter(engine, true).mnemonicCounts();
        double eh = avgWeightedError(
            ref, res.hbbpMix().mnemonicCounts());
        double el = avgWeightedError(ref, res.lbrMix().mnemonicCounts());
        double ee = avgWeightedError(ref, res.ebsMix().mnemonicCounts());

        // Equivalent paper-scale overhead when the Table 4 periods are
        // divided by the same factor.
        double ovh = cost.overheadFraction(
            pd.features, std::max<uint64_t>(paper.ebs / divisor, 1),
            std::max<uint64_t>(paper.lbr / divisor, 1));
        table.addRow({format("%llux denser",
                             static_cast<unsigned long long>(divisor)),
                      withSeparators(sim.ebs), withSeparators(sim.lbr),
                      percentStr(eh, 2), percentStr(el, 2),
                      percentStr(ee, 2), percentStr(ovh, 2)});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
