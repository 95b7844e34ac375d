#include "sim/engine.hh"

#include "support/logging.hh"

namespace hbbp {

ExecutionEngine::ExecutionEngine(const Program &prog,
                                 const MachineConfig &config, uint64_t seed)
    : prog_(prog), config_(config), rng_(seed),
      block_counts_(prog.blocks().size(), 0)
{
    behavior_state_.assign(prog.blocks().size(), 0);
    block_ring_.reserve(prog.blocks().size());
    cost_offset_.reserve(prog.blocks().size());
    for (const BasicBlock &blk : prog.blocks()) {
        const Function &fn = prog.function(blk.func);
        block_ring_.push_back(prog.module(fn.module).ring);
        cost_offset_.push_back(retire_cost_.size());
        uint64_t cost = 0;
        retire_cost_.push_back(cost);
        for (const Instruction &instr : blk.instrs) {
            cost += config_.retireCost(instr);
            retire_cost_.push_back(cost);
        }
    }
}

void
ExecutionEngine::addObserver(ExecObserver *observer)
{
    if (!observer)
        panic("ExecutionEngine::addObserver: null observer");
    observers_.push_back(observer);
}

bool
ExecutionEngine::condTaken(const BasicBlock &blk)
{
    const Behavior &bh = prog_.behavior(blk.behavior);
    uint64_t &state = behavior_state_[blk.id];
    switch (bh.kind) {
      case Behavior::Kind::LoopCount: {
        // A backedge: taken (count-1) times, then falls out once.
        state++;
        if (state >= bh.loop_count) {
            state = 0;
            return false;
        }
        return true;
      }
      case Behavior::Kind::TakenProb:
        return rng_.chance(bh.taken_prob);
      case Behavior::Kind::Pattern: {
        bool taken = bh.pattern[state % bh.pattern.size()];
        state++;
        return taken;
      }
      default:
        panic("ExecutionEngine: block %u conditional branch with "
              "behaviour kind %d", blk.id, static_cast<int>(bh.kind));
    }
}

uint32_t
ExecutionEngine::pickTarget(const BasicBlock &blk)
{
    const Behavior &bh = prog_.behavior(blk.behavior);
    if (bh.kind != Behavior::Kind::Targets)
        panic("ExecutionEngine: block %u indirect terminator without "
              "Targets behaviour", blk.id);
    double total = 0.0;
    for (const auto &[tgt, w] : bh.targets)
        total += w;
    double pick = rng_.nextDouble() * total;
    for (const auto &[tgt, w] : bh.targets) {
        pick -= w;
        if (pick <= 0.0)
            return tgt;
    }
    return bh.targets.back().first;
}

ExecStats
ExecutionEngine::run(uint64_t max_instructions)
{
    stats_ = ExecStats{};
    block_counts_.assign(prog_.blocks().size(), 0);
    uint64_t cycle = 0;

    std::vector<BlockId> call_stack;
    call_stack.reserve(256);

    const Function &entry_fn = prog_.function(prog_.entryFunction());
    BlockId cur = entry_fn.entry;

    while (cur != kNoBlock) {
        const BasicBlock &blk = prog_.block(cur);
        block_counts_[cur]++;
        stats_.instructions += blk.instrs.size();

        // Resolve the successor first, so that the block reaches the
        // observers together with its taken transfer. Every transfer
        // but a fall-through, a not-taken branch and the end of the
        // program is taken.
        BlockId next = kNoBlock;
        bool taken = true;
        switch (blk.term) {
          case TermKind::FallThrough:
            next = blk.fall_target;
            taken = false;
            break;
          case TermKind::Jump:
            next = blk.taken_target;
            break;
          case TermKind::CondBranch:
            taken = condTaken(blk);
            next = taken ? blk.taken_target : blk.fall_target;
            break;
          case TermKind::IndirectJump:
            next = pickTarget(blk);
            break;
          case TermKind::Call:
          case TermKind::Syscall:
            call_stack.push_back(blk.fall_target);
            next = prog_.function(blk.callee).entry;
            break;
          case TermKind::IndirectCall:
            call_stack.push_back(blk.fall_target);
            next = prog_.function(pickTarget(blk)).entry;
            break;
          case TermKind::Return:
            taken = !call_stack.empty();
            if (taken) {
                next = call_stack.back();
                call_stack.pop_back();
            }
            break;
          case TermKind::Exit:
            taken = false;
            break;
        }

        BlockRetire retired{&blk, block_ring_[cur], cycle,
                            &retire_cost_[cost_offset_[cur]], taken,
                            taken ? prog_.block(next).start : 0};
        if (taken)
            stats_.taken_branches++;
        for (ExecObserver *obs : observers_)
            obs->onBlock(retired);
        cycle = retired.cycleEnd();
        cur = stats_.instructions >= max_instructions ? kNoBlock : next;
    }

    stats_.cycles = cycle;
    for (BlockId id = 0; id < block_counts_.size(); id++) {
        uint64_t n = block_counts_[id];
        uint64_t instructions = n * prog_.block(id).instrs.size();
        stats_.block_entries += n;
        if (block_ring_[id] == Ring::User)
            stats_.user_instructions += instructions;
        else
            stats_.kernel_instructions += instructions;
    }
    return stats_;
}

} // namespace hbbp
