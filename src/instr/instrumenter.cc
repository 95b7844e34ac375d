#include "instr/instrumenter.hh"

namespace hbbp {

Instrumenter::Instrumenter(const ExecutionEngine &engine,
                           bool include_kernel)
    : prog_(engine.program()), bbec_(engine.blockCounts())
{
    if (include_kernel)
        return;
    for (const BasicBlock &blk : prog_.blocks())
        if (prog_.module(prog_.function(blk.func).module).isKernel())
            bbec_[blk.id] = 0;
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

uint64_t
Instrumenter::simdInstructions() const
{
    uint64_t simd = 0;
    for (const BasicBlock &blk : prog_.blocks()) {
        for (const Instruction &instr : blk.instrs) {
            IsaExt ext = info(instr.mnemonic).ext;
            if (ext == IsaExt::Sse || ext == IsaExt::Avx ||
                ext == IsaExt::Avx2)
                simd += bbec_[blk.id];
        }
    }
    return simd;
}

} // namespace hbbp
