/**
 * @file
 * Execution observation interface.
 *
 * Observers attach to the ExecutionEngine and receive one event per
 * executed basic block. The basic block is the unit of retirement: a
 * BlockRetire carries the block, its ring, the cycle it began retiring
 * and the cumulative retire costs of its instructions, from which an
 * observer that needs per-instruction timing (the PMU, when a PMI falls
 * due inside the block) recovers every instruction's retire cycles. It
 * also carries the taken control transfer that ends the block, if any:
 * the engine resolves the successor before it notifies. The PMU
 * (sampling) is the one observer the collector attaches; it does not
 * perturb execution, which models the paper's claim that PMU collection
 * does not disturb the execution path. The ground truth needs no
 * observer: the engine counts block executions itself, and the
 * Instrumenter reads those counts after the run. Instrumentation
 * overhead is modelled analytically in src/instr instead of by slowing
 * down the simulation.
 */

#ifndef HBBP_SIM_OBSERVER_HH
#define HBBP_SIM_OBSERVER_HH

#include <cstddef>
#include <cstdint>

#include "program/block.hh"
#include "program/program.hh"

namespace hbbp {

/**
 * One executed basic block. Its instructions retire back to back:
 * instruction i over the cycles from instrStart(i) to instrEnd(i).
 * retire_cost holds size() + 1 cumulative costs, the first 0 and the
 * last the whole block's; the engine computes them once per program.
 * When the block ends in an architecturally taken control transfer,
 * @c taken is set: the LBR hardware sees it as a branch from the
 * block's last instruction to @c taken_target, retiring at cycleEnd()
 * in the block's ring.
 */
struct BlockRetire
{
    const BasicBlock *block = nullptr;
    Ring ring = Ring::User;
    uint64_t cycle_start = 0; ///< Cycle the first instruction begins.
    const uint64_t *retire_cost = nullptr;
    bool taken = false;        ///< The block's terminator was taken.
    uint64_t taken_target = 0; ///< Address control arrived at.

    /** Number of instructions in the block. */
    size_t size() const { return block->instrs.size(); }

    /** Cycle instruction @p i begins retiring. */
    uint64_t
    instrStart(size_t i) const
    {
        return cycle_start + retire_cost[i];
    }

    /** Cycle instruction @p i completes retirement. */
    uint64_t instrEnd(size_t i) const { return instrStart(i + 1); }

    /** Cycle the block's last instruction completes retirement. */
    uint64_t cycleEnd() const { return instrStart(size()); }
};

/** Receives execution events from the engine. */
class ExecObserver
{
  public:
    virtual ~ExecObserver() = default;

    /** A basic block executed; its instructions all retired. */
    virtual void onBlock(const BlockRetire &blk) = 0;
};

} // namespace hbbp

#endif // HBBP_SIM_OBSERVER_HH
