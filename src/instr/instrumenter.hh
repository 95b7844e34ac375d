/**
 * @file
 * Software instrumentation: the ground-truth view of a run.
 *
 * Stands in for Intel SDE / PIN. The execution engine counts every
 * block's executions; an Instrumenter is built over an engine after its
 * run and derives exact basic block execution counts and per-mnemonic
 * instruction counts from them. Like the real tools it sees user-mode
 * code only by default — kernel blocks are invisible to it, which is
 * one of HBBP's selling points — and the simulator's privilege to count
 * ring 0 too is a constructor flag.
 */

#ifndef HBBP_INSTR_INSTRUMENTER_HH
#define HBBP_INSTR_INSTRUMENTER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "program/program.hh"
#include "sim/engine.hh"
#include "support/histogram.hh"

namespace hbbp {

/** Exact BBEC / instruction mix reference over one engine run. */
class Instrumenter
{
  public:
    /**
     * @param engine         engine whose last run to read (its program
     *                       must outlive the view)
     * @param include_kernel count ring-0 blocks too (OFF by default to
     *                       match PIN/SDE; the kernel-mix experiment
     *                       enables it to obtain a kernel reference)
     */
    explicit Instrumenter(const ExecutionEngine &engine,
                          bool include_kernel = false);

    /** Exact execution count of program block @p id. */
    uint64_t bbec(BlockId id) const { return bbec_[id]; }

    /** Exact BBECs for all program blocks. */
    const std::vector<uint64_t> &bbecs() const { return bbec_; }

    /** Exact BBECs keyed by block start address. */
    std::unordered_map<uint64_t, uint64_t> bbecByAddr() const;

    /**
     * Exact per-mnemonic execution counts, derived by multiplying each
     * block's static mnemonic vector by its BBEC.
     */
    Counter<Mnemonic> mnemonicCounts() const;

    /** Total instructions executed in counted blocks. */
    uint64_t totalInstructions() const;

    /**
     * Executed SSE, AVX and AVX2 instructions in counted blocks: the
     * SIMD count of RunFeatures, which the overhead models read.
     */
    uint64_t simdInstructions() const;

  private:
    const Program &prog_;
    std::vector<uint64_t> bbec_;
};

} // namespace hbbp

#endif // HBBP_INSTR_INSTRUMENTER_HH
