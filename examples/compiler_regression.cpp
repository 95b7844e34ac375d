/**
 * @file
 * Compiler-regression hunt: the Fitter AVX diagnosis from Section
 * VIII.C.
 *
 * A new compiler made the AVX build 20x slower. The first suspicion —
 * bad AVX code generation or SSE-AVX transition penalties — is
 * disproved in minutes with an instruction mix: the number of packed
 * AVX instructions is unsuspicious, but CALL counts exploded, tracing
 * the problem to lost inlining.
 */

#include <cstdio>

#include "hbbp/hbbp.hh"

using namespace hbbp;

namespace {

struct MixFacts
{
    double avx = 0;
    double calls = 0;
    double x87 = 0;
    double us_per_track = 0;
};

MixFacts
measure(FitterVariant variant)
{
    Workload w = makeFitter(variant);
    Profiler profiler;
    ProfiledRun run = profiler.run(w);
    AnalysisResult res = profiler.analyze(w, run.profile);

    // Track count for time-per-track.
    ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
    ExecStats stats = engine.run(w.max_instructions);
    Instrumenter instr(engine, true);
    uint64_t tracks = fitterTrackCount(*w.program, instr.bbecs());

    MixFacts facts;
    Counter<Mnemonic> counts = res.hbbpMix().mnemonicCounts();
    for (const auto &[m, c] : counts.items()) {
        if (info(m).ext == IsaExt::Avx || info(m).ext == IsaExt::Avx2)
            facts.avx += c;
        if (info(m).ext == IsaExt::X87)
            facts.x87 += c;
        if (info(m).category == Category::Call ||
            info(m).category == Category::IndirectCall)
            facts.calls += c;
    }
    // Normalize per track so builds are comparable.
    double per_track = 1.0 / static_cast<double>(tracks);
    facts.avx *= per_track;
    facts.calls *= per_track;
    facts.x87 *= per_track;
    facts.us_per_track =
        MachineConfig{}.cyclesToSeconds(stats.cycles) * 1e6 /
        static_cast<double>(tracks);
    return facts;
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Quiet);

    std::printf("symptom: the new compiler's AVX build misses its "
                "latency budget.\n\n");
    MixFacts bad = measure(FitterVariant::AvxBroken);
    MixFacts good = measure(FitterVariant::AvxFix);

    TextTable table({"metric (per track)", "suspect build",
                     "previous build", "ratio"});
    for (size_t c = 1; c < 4; c++)
        table.setAlign(c, Align::Right);
    auto row = [&](const char *name, double b, double g,
                   const char *fmt) {
        table.addRow({name, format(fmt, b), format(fmt, g),
                      format("%.1fx", g > 0 ? b / g : 0)});
    };
    row("AVX instructions", bad.avx, good.avx, "%.1f");
    row("x87 instructions", bad.x87, good.x87, "%.1f");
    row("CALLs", bad.calls, good.calls, "%.2f");
    row("time/track [us]", bad.us_per_track, good.us_per_track, "%.2f");
    std::printf("%s\n", table.render().c_str());

    std::printf("diagnosis:\n");
    if (bad.avx < 1.5 * good.avx)
        std::printf(" - packed AVX counts are unsuspicious: the "
                    "vectorizer did its job.\n");
    if (bad.calls > 10 * good.calls)
        std::printf(" - CALLs exploded %.0fx: helpers are no longer "
                    "inlined.\n", bad.calls / good.calls);
    if (bad.x87 > 3 * good.x87)
        std::printf(" - the un-inlined helpers fall back to scalar "
                    "x87 code.\n");
    std::printf("=> an inlining regression in the new compiler, not "
                "an AVX code generation problem (matches the paper's "
                "conclusion).\n");
    return 0;
}
