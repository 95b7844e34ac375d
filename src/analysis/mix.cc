#include "analysis/mix.hh"

#include <algorithm>
#include <map>

#include "support/logging.hh"
#include "support/strings.hh"
#include "support/vectorops.hh"

namespace hbbp {

const char *
name(MixDim dim)
{
    switch (dim) {
      case MixDim::Module: return "module";
      case MixDim::Function: return "function";
      case MixDim::Block: return "block";
      case MixDim::Mnemonic: return "mnemonic";
      case MixDim::Isa: return "isa";
      case MixDim::Category: return "category";
      case MixDim::Packing: return "packing";
      case MixDim::Width: return "width";
      case MixDim::Ring: return "ring";
      case MixDim::MemAccess: return "mem";
      default: panic("name: bad MixDim %d", static_cast<int>(dim));
    }
}

std::string
MixContext::dimValue(MixDim dim) const
{
    switch (dim) {
      case MixDim::Module:
        return map->moduleName(*block);
      case MixDim::Function:
        return map->functionName(*block);
      case MixDim::Block:
        return hexAddr(block->start);
      case MixDim::Mnemonic:
        return instr->info().name;
      case MixDim::Isa:
        return name(instr->info().ext);
      case MixDim::Category:
        return name(instr->info().category);
      case MixDim::Packing:
        return name(instr->info().packing);
      case MixDim::Width:
        return std::to_string(instr->info().width_bits);
      case MixDim::Ring:
        return ring == Ring::Kernel ? "KERNEL" : "USER";
      case MixDim::MemAccess:
        if (instr->mem_read && instr->mem_write)
            return "LOAD_STORE";
        if (instr->mem_read)
            return "LOAD";
        if (instr->mem_write)
            return "STORE";
        return "NONE";
      default:
        panic("MixContext::dimValue: bad MixDim %d",
              static_cast<int>(dim));
    }
}

InstructionMix::InstructionMix(const BlockMap &map,
                               std::vector<double> bbec)
    : map_(map), bbec_(std::move(bbec))
{
    if (bbec_.size() != map.blocks().size())
        panic("InstructionMix: %zu counts for %zu blocks", bbec_.size(),
              map.blocks().size());
    block_sizes_.reserve(bbec_.size());
    for (size_t i = 0; i < bbec_.size(); i++)
        block_sizes_.push_back(static_cast<double>(
            map_.block(static_cast<uint32_t>(i)).size()));
}

void
InstructionMix::forEach(
    const std::function<void(const MixContext &, double)> &fn) const
{
    for (size_t i = 0; i < bbec_.size(); i++) {
        double count = bbec_[i];
        if (count <= 0.0)
            continue;
        const MapBlock &blk = map_.block(static_cast<uint32_t>(i));
        Ring ring = map_.program().module(blk.module).ring;
        MixContext ctx;
        ctx.map = &map_;
        ctx.block = &blk;
        ctx.ring = ring;
        for (const Instruction &instr : blk.instrs) {
            ctx.instr = &instr;
            fn(ctx, count);
        }
    }
}

double
InstructionMix::totalInstructions() const
{
    // bbec · block_sizes through the bit-stable 8-lane kernel: the
    // same bits on every build.
    return vecops::dot(bbec_.data(), block_sizes_.data(), bbec_.size());
}

Counter<Mnemonic>
InstructionMix::mnemonicCounts() const
{
    return mnemonicCounts(nullptr);
}

Counter<Mnemonic>
InstructionMix::mnemonicCounts(
    const std::function<bool(const MixContext &)> &filter) const
{
    Counter<Mnemonic> counts;
    forEach([&](const MixContext &ctx, double count) {
        if (filter && !filter(ctx))
            return;
        counts.add(ctx.instr->mnemonic, count);
    });
    return counts;
}

std::vector<PivotRow>
InstructionMix::pivot(const MixQuery &query) const
{
    std::map<std::vector<std::string>, double> groups;
    forEach([&](const MixContext &ctx, double count) {
        if (query.filter && !query.filter(ctx))
            return;
        std::vector<std::string> key;
        key.reserve(query.group_by.size());
        for (MixDim dim : query.group_by)
            key.push_back(ctx.dimValue(dim));
        groups[std::move(key)] += count;
    });

    std::vector<PivotRow> rows;
    rows.reserve(groups.size());
    for (auto &[key, count] : groups)
        rows.push_back({key, count});
    std::sort(rows.begin(), rows.end(),
              [](const PivotRow &a, const PivotRow &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.key < b.key;
              });
    if (query.top_n && rows.size() > query.top_n)
        rows.resize(query.top_n);
    return rows;
}

TextTable
InstructionMix::pivotTable(const MixQuery &query) const
{
    std::vector<std::string> headers;
    for (MixDim dim : query.group_by)
        headers.emplace_back(name(dim));
    headers.emplace_back("count");
    TextTable table(headers);
    table.setAlign(headers.size() - 1, Align::Right);

    double total = 0.0;
    std::vector<PivotRow> rows = pivot(query);
    for (const PivotRow &row : rows)
        total += row.count;
    for (const PivotRow &row : rows) {
        std::vector<std::string> cells = row.key;
        cells.push_back(withSeparators(
            static_cast<uint64_t>(row.count + 0.5)));
        table.addRow(std::move(cells));
    }
    (void)total;
    return table;
}

Counter<std::string>
InstructionMix::taxonomyCounts(const Taxonomy &taxonomy) const
{
    Counter<std::string> counts;
    forEach([&](const MixContext &ctx, double count) {
        for (const std::string &group :
             taxonomy.groupsOf(ctx.instr->mnemonic))
            counts.add(group, count);
    });
    return counts;
}

} // namespace hbbp
