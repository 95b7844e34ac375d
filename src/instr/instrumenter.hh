/**
 * @file
 * Software instrumentation: the ground-truth observer.
 *
 * Stands in for Intel SDE / PIN. Counts exact basic block execution
 * counts and derives exact per-mnemonic instruction counts. Like the
 * real tools it observes user-mode code only — kernel blocks are
 * invisible to it, which is one of HBBP's selling points.
 */

#ifndef HBBP_INSTR_INSTRUMENTER_HH
#define HBBP_INSTR_INSTRUMENTER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "program/program.hh"
#include "sim/observer.hh"
#include "support/histogram.hh"

namespace hbbp {

/** Exact BBEC / instruction mix reference collector (user mode only). */
class Instrumenter : public ExecObserver
{
  public:
    /**
     * @param prog           program being profiled
     * @param include_kernel count ring-0 blocks too (OFF by default to
     *                       match PIN/SDE; the kernel-mix experiment
     *                       enables it to obtain a kernel reference)
     */
    explicit Instrumenter(const Program &prog,
                          bool include_kernel = false);

    void onBlock(const BlockRetire &blk) override;

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

  private:
    const Program &prog_;
    bool include_kernel_;
    std::vector<uint64_t> bbec_;
};

} // namespace hbbp

#endif // HBBP_INSTR_INSTRUMENTER_HH
