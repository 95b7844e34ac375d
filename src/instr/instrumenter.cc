#include "instr/instrumenter.hh"

namespace hbbp {

Instrumenter::Instrumenter(const Program &prog, bool include_kernel)
    : prog_(prog), include_kernel_(include_kernel),
      bbec_(prog.blocks().size(), 0)
{
}

void
Instrumenter::onBlock(const BlockRetire &blk)
{
    if (blk.ring == Ring::Kernel && !include_kernel_)
        return;
    bbec_[blk.block->id]++;
}

std::unordered_map<uint64_t, uint64_t>
Instrumenter::bbecByAddr() const
{
    std::unordered_map<uint64_t, uint64_t> out;
    out.reserve(bbec_.size());
    for (const BasicBlock &blk : prog_.blocks())
        out.emplace(blk.start, bbec_[blk.id]);
    return out;
}

Counter<Mnemonic>
Instrumenter::mnemonicCounts() const
{
    Counter<Mnemonic> counts;
    for (const BasicBlock &blk : prog_.blocks()) {
        uint64_t n = bbec_[blk.id];
        if (n == 0)
            continue;
        for (const Instruction &instr : blk.instrs)
            counts.add(instr.mnemonic, static_cast<double>(n));
    }
    return counts;
}

uint64_t
Instrumenter::totalInstructions() const
{
    uint64_t total = 0;
    for (const BasicBlock &blk : prog_.blocks())
        total += bbec_[blk.id] * blk.instrs.size();
    return total;
}

} // namespace hbbp
