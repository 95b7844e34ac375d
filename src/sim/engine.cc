#include "sim/engine.hh"

#include "support/logging.hh"

namespace hbbp {

ExecutionEngine::ExecutionEngine(const Program &prog,
                                 const MachineConfig &config, uint64_t seed)
    : prog_(prog), config_(config), rng_(seed)
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

void
ExecutionEngine::notifyTaken(uint64_t source, uint64_t target, Ring ring)
{
    stats_.taken_branches++;
    TakenBranch tb{source, target, cycle_, ring};
    for (ExecObserver *obs : observers_)
        obs->onTakenBranch(tb);
}

ExecStats
ExecutionEngine::run(uint64_t max_instructions)
{
    stats_ = ExecStats{};
    cycle_ = 0;

    std::vector<BlockId> call_stack;
    call_stack.reserve(256);

    const Function &entry_fn = prog_.function(prog_.entryFunction());
    BlockId cur = entry_fn.entry;

    bool running = true;
    while (running && cur != kNoBlock) {
        const BasicBlock &blk = prog_.block(cur);
        Ring ring = block_ring_[cur];
        stats_.block_entries++;

        BlockRetire retired{&blk, ring, cycle_,
                            &retire_cost_[cost_offset_[cur]]};
        for (ExecObserver *obs : observers_)
            obs->onBlock(retired);
        cycle_ = retired.cycleEnd();
        stats_.instructions += blk.instrs.size();
        if (ring == Ring::User)
            stats_.user_instructions += blk.instrs.size();
        else
            stats_.kernel_instructions += blk.instrs.size();
        if (stats_.instructions >= max_instructions)
            running = false;

        const Instruction *ctrl = blk.instrs.empty()
            ? nullptr : &blk.instrs.back();

        switch (blk.term) {
          case TermKind::FallThrough:
            cur = blk.fall_target;
            break;
          case TermKind::Jump: {
            const BasicBlock &tgt = prog_.block(blk.taken_target);
            notifyTaken(ctrl->addr, tgt.start, ring);
            cur = blk.taken_target;
            break;
          }
          case TermKind::CondBranch: {
            if (condTaken(blk)) {
                const BasicBlock &tgt = prog_.block(blk.taken_target);
                notifyTaken(ctrl->addr, tgt.start, ring);
                cur = blk.taken_target;
            } else {
                cur = blk.fall_target;
            }
            break;
          }
          case TermKind::IndirectJump: {
            BlockId tgt_id = pickTarget(blk);
            const BasicBlock &tgt = prog_.block(tgt_id);
            notifyTaken(ctrl->addr, tgt.start, ring);
            cur = tgt_id;
            break;
          }
          case TermKind::Call: {
            const Function &callee = prog_.function(blk.callee);
            const BasicBlock &tgt = prog_.block(callee.entry);
            call_stack.push_back(blk.fall_target);
            notifyTaken(ctrl->addr, tgt.start, ring);
            cur = callee.entry;
            break;
          }
          case TermKind::IndirectCall: {
            FuncId callee_id = pickTarget(blk);
            const Function &callee = prog_.function(callee_id);
            const BasicBlock &tgt = prog_.block(callee.entry);
            call_stack.push_back(blk.fall_target);
            notifyTaken(ctrl->addr, tgt.start, ring);
            cur = callee.entry;
            break;
          }
          case TermKind::Syscall: {
            const Function &handler = prog_.function(blk.callee);
            const BasicBlock &tgt = prog_.block(handler.entry);
            call_stack.push_back(blk.fall_target);
            notifyTaken(ctrl->addr, tgt.start, ring);
            cur = handler.entry;
            break;
          }
          case TermKind::Return: {
            if (call_stack.empty()) {
                running = false;
                cur = kNoBlock;
                break;
            }
            BlockId resume = call_stack.back();
            call_stack.pop_back();
            const BasicBlock &tgt = prog_.block(resume);
            notifyTaken(ctrl->addr, tgt.start, ring);
            cur = resume;
            break;
          }
          case TermKind::Exit:
            running = false;
            cur = kNoBlock;
            break;
        }
    }

    stats_.cycles = cycle_;
    for (ExecObserver *obs : observers_)
        obs->onFinish(cycle_);
    return stats_;
}

} // namespace hbbp
