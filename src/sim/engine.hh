/**
 * @file
 * The execution engine.
 *
 * Interprets a Program: walks basic blocks, resolves terminators through
 * their declared behaviours, maintains the call stack and privilege ring,
 * advances the cycle clock per the MachineConfig, and feeds events to the
 * attached observers. The basic block is the unit of retirement: the
 * engine computes every block's cumulative per-instruction retire costs
 * once, when it is constructed, then advances the clock a whole block at
 * a time. It resolves each executed block's successor first and hands
 * the block, with its taken transfer, to the observers as one
 * BlockRetire. It also counts every block's executions: blockCounts()
 * is the run's exact ground truth (the Instrumenter is a view over it),
 * and the block and per-ring instruction totals in ExecStats are
 * derived from it. Execution is fully deterministic for a given Program
 * and seed.
 */

#ifndef HBBP_SIM_ENGINE_HH
#define HBBP_SIM_ENGINE_HH

#include <cstdint>
#include <vector>

#include "program/program.hh"
#include "sim/machine.hh"
#include "sim/observer.hh"
#include "support/rng.hh"

namespace hbbp {

/** Aggregate execution statistics. */
struct ExecStats
{
    uint64_t instructions = 0;   ///< Total retired instructions.
    uint64_t cycles = 0;         ///< Final cycle count.
    uint64_t taken_branches = 0; ///< Taken control transfers.
    uint64_t user_instructions = 0;   ///< Retired in ring-3 blocks.
    uint64_t kernel_instructions = 0; ///< Retired in ring-0 blocks.
    uint64_t block_entries = 0;       ///< Basic block executions.

    /** Instructions per cycle. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                        static_cast<double>(cycles) : 0.0;
    }
};

/** Runs a Program and notifies observers; see file comment. */
class ExecutionEngine
{
  public:
    /**
     * @param prog    program to run (must outlive the engine)
     * @param config  machine timing parameters
     * @param seed    seed for all stochastic branch behaviours
     */
    ExecutionEngine(const Program &prog, const MachineConfig &config,
                    uint64_t seed = 1);

    /** Attach an observer (not owned; must outlive run()). */
    void addObserver(ExecObserver *observer);

    /**
     * Run from the entry function until program exit or until
     * @p max_instructions retire, whichever comes first.
     */
    ExecStats run(uint64_t max_instructions = UINT64_MAX);

    /** Statistics of the last run. */
    const ExecStats &stats() const { return stats_; }

    /** Executions of every program block in the last run, by BlockId. */
    const std::vector<uint64_t> &blockCounts() const { return block_counts_; }

    /** The program being run. */
    const Program &program() const { return prog_; }

    /** Machine configuration in use. */
    const MachineConfig &machine() const { return config_; }

  private:
    /** Resolve a conditional branch outcome for @p blk. */
    bool condTaken(const BasicBlock &blk);

    /** Pick an indirect target id from @p blk's behaviour. */
    uint32_t pickTarget(const BasicBlock &blk);

    const Program &prog_;
    MachineConfig config_;
    Rng rng_;
    std::vector<ExecObserver *> observers_;

    /** Per-block behaviour state (loop counters / pattern positions). */
    std::vector<uint64_t> behavior_state_;

    /** Per-block ring, precomputed from the owning module. */
    std::vector<Ring> block_ring_;

    /**
     * Cumulative retire costs of every block's instructions, one run of
     * size() + 1 values per block (see BlockRetire), at the offset
     * cost_offset_[block].
     */
    std::vector<uint64_t> retire_cost_;
    std::vector<size_t> cost_offset_;

    std::vector<uint64_t> block_counts_;
    ExecStats stats_;
};

} // namespace hbbp

#endif // HBBP_SIM_ENGINE_HH
