/**
 * @file
 * Execution observation interface.
 *
 * Observers attach to the ExecutionEngine and receive one event per
 * executed basic block, one per taken control transfer and one at the
 * end of the run. The basic block is the unit of retirement: a
 * BlockRetire carries the block, its ring, the cycle it began retiring
 * and the cumulative retire costs of its instructions, from which an
 * observer that needs per-instruction timing (the PMU, when a PMI falls
 * due inside the block) recovers every instruction's retire cycles. The
 * software instrumenter (ground truth) and the PMU (sampling) are both
 * observers; neither perturbs execution, which models the paper's claim
 * that PMU collection does not disturb the execution path.
 * Instrumentation overhead is modelled analytically in src/instr
 * instead of by slowing down the simulation.
 */

#ifndef HBBP_SIM_OBSERVER_HH
#define HBBP_SIM_OBSERVER_HH

#include <cstddef>
#include <cstdint>

#include "program/block.hh"
#include "program/program.hh"

namespace hbbp {

/** A taken control transfer, as the LBR hardware would see it. */
struct TakenBranch
{
    uint64_t source = 0; ///< Address of the branch instruction.
    uint64_t target = 0; ///< Address control arrived at.
    uint64_t cycle = 0;  ///< Retirement cycle of the branch.
    Ring ring = Ring::User;
};

/**
 * One executed basic block. Its instructions retire back to back:
 * instruction i over the cycles from instrStart(i) to instrEnd(i).
 * retire_cost holds size() + 1 cumulative costs, the first 0 and the
 * last the whole block's; the engine computes them once per program.
 */
struct BlockRetire
{
    const BasicBlock *block = nullptr;
    Ring ring = Ring::User;
    uint64_t cycle_start = 0; ///< Cycle the first instruction begins.
    const uint64_t *retire_cost = nullptr;

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
    virtual void
    onBlock(const BlockRetire &blk)
    {
        (void)blk;
    }

    /**
     * A control transfer was architecturally taken: the block that
     * ends in it has just been passed to onBlock.
     */
    virtual void
    onTakenBranch(const TakenBranch &branch)
    {
        (void)branch;
    }

    /** Execution finished (program exit or budget reached). */
    virtual void
    onFinish(uint64_t final_cycle)
    {
        (void)final_cycle;
    }
};

} // namespace hbbp

#endif // HBBP_SIM_OBSERVER_HH
