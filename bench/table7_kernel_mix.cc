/**
 * @file
 * Reproduces Table 7: the synthetic kernel benchmark. The same
 * prime-search code runs as a user-space function (hello_u) and as a
 * kernel module (hello_k) triggered by reads; SDE can only see the
 * user side, HBBP profiles both, and the three columns agree.
 */

#include "bench/common.hh"

using namespace hbbp;
using namespace hbbp::bench;

int
main()
{
    setLogLevel(LogLevel::Quiet);
    headline("Table 7: instructions in the kernel sample",
             "SDE(hello_u) ~= HBBP(hello_u) ~= HBBP(hello_k); EBS "
             "errors reach 15%, LBR/HBBP stay around 1%");

    // The kernel analyzer applies the live-text patching fix
    // (Section III.C) to handle the module's NOP'd tracepoints.
    Profiler profiler(MachineConfig{}, CollectorConfig{},
                      AnalyzerOptions::kernelPatched());
    Workload w = makeKernelBench();
    Analyzed a = analyzeWorkload(profiler, w);

    auto in_function = [&](const char *fn) {
        std::string fname = fn;
        return [&map = a.analysis.map, fname](const MixContext &ctx) {
            return map.functionName(*ctx.block) == fname;
        };
    };

    // References from one run: software instrumentation sees the
    // user side only; the simulator sees both rings.
    const Program &p = *w.program;
    ExecutionEngine engine(p, MachineConfig{}, w.exec_seed);
    engine.run(w.max_instructions);
    Instrumenter sde(engine);
    Instrumenter simulator(engine, /*include_kernel=*/true);

    // Reference: the user-side function from software instrumentation.
    Counter<Mnemonic> sde_user;
    for (const BasicBlock &blk : p.blocks()) {
        if (p.function(blk.func).name != kKernelBenchUserFunc)
            continue;
        for (const Instruction &i : blk.instrs)
            sde_user.add(i.mnemonic, static_cast<double>(sde.bbec(blk.id)));
    }

    InstructionMix hbbp_mix = a.analysis.hbbpMix();
    Counter<Mnemonic> hbbp_user =
        hbbp_mix.mnemonicCounts(in_function(kKernelBenchUserFunc));
    Counter<Mnemonic> hbbp_kernel =
        hbbp_mix.mnemonicCounts(in_function(kKernelBenchKernelFunc));

    TextTable table({"Function", "hello_u (SDE)", "hello_k (HBBP)",
                     "hello_u (HBBP)"});
    for (size_t c = 1; c < 4; c++)
        table.setAlign(c, Align::Right);
    double tot_sde = 0, tot_hk = 0, tot_hu = 0;
    for (const auto &[m, ref] : sde_user.sorted()) {
        if (ref < 1000)
            continue;
        table.addRow({info(m).name, millions(ref),
                      millions(hbbp_kernel.get(m)),
                      millions(hbbp_user.get(m))});
        tot_sde += ref;
        tot_hk += hbbp_kernel.get(m);
        tot_hu += hbbp_user.get(m);
    }
    table.addSeparator();
    table.addRow({"Total", millions(tot_sde), millions(tot_hk),
                  millions(tot_hu)});
    std::printf("%s\n(counts in millions at simulation scale)\n\n",
                table.render().c_str());

    // Method comparison on the user side, as reported in the text.
    double hbbp_err = avgWeightedError(sde_user, hbbp_user);
    Counter<Mnemonic> ebs_user =
        a.analysis.ebsMix().mnemonicCounts(
            in_function(kKernelBenchUserFunc));
    Counter<Mnemonic> lbr_user =
        a.analysis.lbrMix().mnemonicCounts(
            in_function(kKernelBenchUserFunc));
    std::printf("hello_u errors vs SDE: HBBP %s, LBR %s, EBS %s\n",
                percentStr(hbbp_err, 2).c_str(),
                percentStr(avgWeightedError(sde_user, lbr_user), 2)
                    .c_str(),
                percentStr(avgWeightedError(sde_user, ebs_user), 2)
                    .c_str());

    // Kernel-side agreement: HBBP(hello_k) vs the simulator's exact
    // kernel reference (which stands in for ground truth SDE cannot
    // provide).
    Counter<Mnemonic> true_kernel;
    for (const BasicBlock &blk : p.blocks()) {
        if (p.function(blk.func).name != kKernelBenchKernelFunc)
            continue;
        for (const Instruction &i : blk.instrs)
            true_kernel.add(i.mnemonic,
                            static_cast<double>(simulator.bbec(blk.id)));
    }
    std::printf("hello_k HBBP error vs simulator ground truth: %s\n",
                percentStr(avgWeightedError(true_kernel, hbbp_kernel), 2)
                    .c_str());
    return 0;
}
