/**
 * @file
 * Reproduces Table 6: expected vs measured instruction counts for the
 * Fitter benchmark across its x87 / SSE / AVX (broken) / AVX fix
 * builds — the compiler-regression diagnosis story. The broken AVX
 * build shows an explosion of CALLs (and scalar x87 fallback work)
 * while the packed AVX count stays roughly unchanged, pointing at a
 * lost-inlining regression rather than bad vector codegen.
 *
 * "Expected" is the SDE reference of the healthy build (what earlier
 * compilations established); "Measured" is HBBP on the actual build.
 * Counts are in millions at simulation scale.
 */

#include "bench/common.hh"

using namespace hbbp;
using namespace hbbp::bench;

namespace {

struct VariantResult
{
    double x87 = 0, sse = 0, avx = 0, calls = 0;
    double time_per_track_us = 0;
    double avg_w_err = 0;
};

double
isaCount(const Counter<Mnemonic> &counts, IsaExt ext)
{
    double n = 0;
    for (const auto &[m, c] : counts.items())
        if (info(m).ext == ext)
            n += c;
    return n;
}

VariantResult
fromCounts(const Counter<Mnemonic> &counts, double seconds_per_track)
{
    VariantResult r;
    r.x87 = isaCount(counts, IsaExt::X87);
    r.sse = isaCount(counts, IsaExt::Sse);
    r.avx = isaCount(counts, IsaExt::Avx) + isaCount(counts, IsaExt::Avx2);
    r.calls = counts.get(Mnemonic::CALL) + counts.get(Mnemonic::CALL_IND);
    r.time_per_track_us = seconds_per_track * 1e6;
    return r;
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Quiet);
    headline("Table 6: Fitter expected vs measured per build",
             "broken AVX: CALLs explode ~62x and x87 ~9x while AVX "
             "counts stay put -> inlining regression, not AVX codegen");

    Profiler profiler;
    const FitterVariant variants[] = {
        FitterVariant::X87, FitterVariant::Sse, FitterVariant::AvxBroken,
        FitterVariant::AvxFix};

    std::vector<VariantResult> expected, measured;
    for (FitterVariant v : variants) {
        // "Expected": the SDE reference of the healthy equivalent.
        FitterVariant healthy =
            v == FitterVariant::AvxBroken ? FitterVariant::AvxFix : v;
        Workload ref_w = makeFitter(healthy);
        Profiler ref_profiler;
        ProfiledRun ref_run = ref_profiler.run(ref_w);
        ExecutionEngine ref_engine(*ref_w.program, MachineConfig{},
                                   ref_w.exec_seed);
        ExecStats ref_stats = ref_engine.run(ref_w.max_instructions);
        Instrumenter ref_instr(ref_engine, true);
        uint64_t ref_tracks =
            fitterTrackCount(*ref_w.program, ref_instr.bbecs());
        expected.push_back(fromCounts(
            ref_run.true_user_mnemonics,
            MachineConfig{}.cyclesToSeconds(ref_stats.cycles) /
                static_cast<double>(ref_tracks)));

        // "Measured": HBBP on the actual build. Counts are normalized
        // to the same amount of work (tracks) as the healthy build's
        // run, since the broken build gets through far fewer tracks in
        // the same instruction budget.
        Workload w = makeFitter(v);
        Analyzed a = analyzeWorkload(profiler, w);
        ExecutionEngine engine(*w.program, MachineConfig{}, w.exec_seed);
        ExecStats stats = engine.run(w.max_instructions);
        Instrumenter instr(engine, true);
        uint64_t tracks = fitterTrackCount(*w.program, instr.bbecs());
        Counter<Mnemonic> counts =
            Profiler::userMnemonics(a.analysis.hbbpMix());
        counts.scale(static_cast<double>(ref_tracks) /
                     static_cast<double>(tracks));
        VariantResult m = fromCounts(
            counts, MachineConfig{}.cyclesToSeconds(stats.cycles) /
                        static_cast<double>(tracks));
        m.avg_w_err = a.accuracy.hbbp;
        measured.push_back(m);
    }

    std::vector<std::string> headers{""};
    for (FitterVariant v : variants)
        headers.emplace_back(name(v));
    TextTable table(headers);
    for (size_t c = 1; c < headers.size(); c++)
        table.setAlign(c, Align::Right);

    auto add_section = [&](const char *label,
                           const std::vector<VariantResult> &rs) {
        auto row = [&](const char *nm, auto getter, bool is_time) {
            std::vector<std::string> cells{nm};
            for (const VariantResult &r : rs)
                cells.push_back(is_time
                                    ? format("%.2fus", getter(r))
                                    : millions(getter(r)));
            table.addRow(std::move(cells));
        };
        table.addRow({std::string("[") + label + "]", "", "", "", ""});
        row("x87 inst", [](const VariantResult &r) { return r.x87; },
            false);
        row("SSE inst", [](const VariantResult &r) { return r.sse; },
            false);
        row("AVX inst", [](const VariantResult &r) { return r.avx; },
            false);
        row("CALLs", [](const VariantResult &r) { return r.calls; },
            false);
        row("Time/track",
            [](const VariantResult &r) { return r.time_per_track_us; },
            true);
    };
    add_section("Expected", expected);
    table.addSeparator();
    add_section("Measured", measured);
    table.addSeparator();
    std::vector<std::string> err_row{"AvgW Err"};
    for (const VariantResult &r : measured)
        err_row.push_back(percentStr(r.avg_w_err, 2));
    table.addRow(std::move(err_row));

    std::printf("%s\n", table.render().c_str());
    std::printf("broken-vs-fix ratios: CALLs %.1fx, x87 %.1fx, "
                "AVX %.2fx, time/track %.1fx\n",
                measured[2].calls / measured[3].calls,
                measured[2].x87 / measured[3].x87,
                measured[2].avx / measured[3].avx,
                measured[2].time_per_track_us /
                    measured[3].time_per_track_us);
    return 0;
}
