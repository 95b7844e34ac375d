#include "tools/profiler.hh"

#include "support/logging.hh"

namespace hbbp {

Profiler::Profiler(MachineConfig machine, CollectorConfig collector,
                   AnalyzerOptions analyzer)
    : machine_(machine), collector_(std::move(collector)),
      analyzer_(std::move(analyzer))
{
}

ProfiledRun
Profiler::run(const Workload &w) const
{
    if (!w.program)
        fatal("Profiler::run: workload '%s' has no program",
              w.name.c_str());

    ProfiledRun out;

    // Run 1: the collection run (PMU attached, non-invasive).
    CollectorConfig cc = collector_;
    cc.runtime_class = w.runtime_class;
    cc.max_instructions = w.max_instructions;
    cc.seed = w.exec_seed;
    out.profile = Collector::collect(*w.program, machine_, cc);

    // Run 2: the reference run, read through the Instrumenter views
    // below. Determinism for a fixed seed guarantees it observes the
    // same execution.
    ExecutionEngine engine(*w.program, machine_, w.exec_seed);
    out.stats = engine.run(w.max_instructions);

    if (out.stats.instructions != out.profile.features.instructions)
        panic("Profiler::run: reference run diverged from collection run "
              "(%llu vs %llu instructions) — non-deterministic workload?",
              static_cast<unsigned long long>(out.stats.instructions),
              static_cast<unsigned long long>(
                  out.profile.features.instructions));

    Instrumenter all(engine, /*include_kernel=*/true);
    out.true_bbec_by_addr = all.bbecByAddr();
    out.true_all_mnemonics = all.mnemonicCounts();
    // PIN/SDE view: user-mode blocks only.
    out.true_user_mnemonics = Instrumenter(engine).mnemonicCounts();
    return out;
}

AnalysisResult
Profiler::analyze(const Workload &w, const ProfileData &profile) const
{
    Analyzer analyzer(analyzer_);
    return analyzer.analyze(*w.program, profile);
}

Counter<Mnemonic>
Profiler::userMnemonics(const InstructionMix &mix)
{
    return mix.mnemonicCounts([](const MixContext &ctx) {
        return ctx.ring == Ring::User;
    });
}

AccuracySummary
Profiler::accuracy(const ProfiledRun &run,
                   const AnalysisResult &analysis) const
{
    AccuracySummary summary;
    const Counter<Mnemonic> &ref = run.true_user_mnemonics;
    summary.hbbp = avgWeightedError(ref, userMnemonics(analysis.hbbpMix()));
    summary.ebs = avgWeightedError(ref, userMnemonics(analysis.ebsMix()));
    summary.lbr = avgWeightedError(ref, userMnemonics(analysis.lbrMix()));
    return summary;
}

} // namespace hbbp
