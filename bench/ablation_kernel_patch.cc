/**
 * @file
 * Ablation: the kernel self-modifying-code fix (Section III.C). The
 * analyzer's default view disassembles the static kernel image, whose
 * tracepoint JMPs the live kernel has patched to NOPs; LBR streams
 * then look like execution "ignores" unconditional branches and get
 * discarded. Patching the static image with the live .text (the
 * paper's remedy) restores accuracy.
 */

#include "bench/common.hh"

using namespace hbbp;
using namespace hbbp::bench;

int
main()
{
    setLogLevel(LogLevel::Quiet);
    headline("Ablation: kernel live-text patching on/off",
             "stale static disassembly distorts kernel-side LBR; the "
             "live-text patch fixes it");

    Workload w = makeKernelBench();

    Profiler collector;
    ProfiledRun run = collector.run(w);

    TextTable table({"analyzer view", "streams discarded",
                     "all-ring HBBP err", "kernel HBBP err"});
    for (size_t c = 1; c < 4; c++)
        table.setAlign(c, Align::Right);

    for (bool patch : {false, true}) {
        AnalyzerOptions aopts;
        aopts.map.patch_kernel_text = patch;
        Profiler analyzer(MachineConfig{}, CollectorConfig{}, aopts);
        AnalysisResult res = analyzer.analyze(w, run.profile);

        double err_all = avgWeightedError(
            run.true_all_mnemonics, res.hbbpMix().mnemonicCounts());

        // Kernel-only comparison.
        Counter<Mnemonic> true_kernel;
        {
            const Program &p = *w.program;
            ExecutionEngine engine(p, MachineConfig{}, w.exec_seed);
            engine.run(w.max_instructions);
            Instrumenter instr(engine, true);
            for (const BasicBlock &blk : p.blocks()) {
                const Function &fn = p.function(blk.func);
                if (!p.module(fn.module).isKernel())
                    continue;
                for (const Instruction &i : blk.instrs)
                    true_kernel.add(
                        i.mnemonic,
                        static_cast<double>(instr.bbec(blk.id)));
            }
        }
        Counter<Mnemonic> hbbp_kernel = res.hbbpMix().mnemonicCounts(
            [](const MixContext &ctx) {
                return ctx.ring == Ring::Kernel;
            });
        double err_kernel = avgWeightedError(true_kernel, hbbp_kernel);

        table.addRow({patch ? "live text (fix)" : "static text (stale)",
                      percentStr(res.estimates.discardFraction(), 2),
                      percentStr(err_all, 2),
                      percentStr(err_kernel, 2)});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
