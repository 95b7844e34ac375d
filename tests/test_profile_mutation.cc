/**
 * @file
 * Seeded, structure-aware mutation tests for the version-4 profile
 * parser. Canonical payloads from real collections and from a random
 * profile with a wide branch table are mutated a few thousand times —
 * byte flips, truncations, padded varints, duplicated, swapped and
 * dropped table entries, out-of-range ids — and restamped with a valid
 * header checksum so every mutant reaches the body parser. Each one
 * must be rejected with a diagnostic or parse to a profile whose
 * serialize() reproduces the mutant exactly: never a crash, never a
 * fatal(), never a second spelling of one profile.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/bytes.hh"
#include "tests/helpers.hh"

namespace hbbp {
namespace {

constexpr size_t kHeaderBytes = 28;

/** A profile collected from @p w with a test-sized budget. */
ProfileData
collectSmall(Workload w)
{
    CollectorConfig cc;
    cc.runtime_class = w.runtime_class;
    cc.max_instructions = 400'000;
    cc.seed = w.exec_seed;
    return Collector::collect(*w.program, MachineConfig{}, cc);
}

/** A random profile whose LBR stacks draw on 400 distinct branches. */
ProfileData
wideBranchProfile()
{
    Rng rng(0x5eed);
    ProfileData pd;
    pd.sim_periods = {1009, 101};
    pd.paper_periods = {100'000'007, 10'000'019};
    pd.mmaps.push_back({"wide.bin", 0x400000, 0x100000, false});
    std::vector<LbrEntry> pool;
    for (uint64_t i = 0; i < 400; i++) {
        uint64_t source = 0x400000 + rng.nextBelow(0x100000);
        pool.push_back({source, source - 0x800 + rng.nextBelow(0x1000)});
    }
    for (int i = 0; i < 300; i++) {
        LbrStackSample s;
        for (int j = 0; j < 16; j++)
            s.entries.push_back(pool[rng.nextBelow(pool.size())]);
        s.cycle = 1000 * i + rng.nextBelow(1000);
        s.ring = rng.chance(0.1) ? Ring::Kernel : Ring::User;
        s.eventing_ip = 0x400000 + rng.nextBelow(0x100000);
        pd.lbr.push_back(std::move(s));
    }
    for (int i = 0; i < 200; i++)
        pd.ebs.push_back({0x400000 + rng.nextBelow(0x100000),
                          rng.next() >> 20,
                          rng.chance(0.1) ? Ring::Kernel : Ring::User});
    return pd;
}

/** Where the fields of a canonical version-4 payload sit. */
struct Layout
{
    struct Field
    {
        size_t off = 0;
        size_t len = 0;
    };
    /** A varint holding a table id (address ids carry a ring bit). */
    struct IdRef
    {
        Field at;
        bool branch = false;
    };

    Field addr_table;   ///< Count varint through the last entry.
    Field branch_table; ///< Likewise.
    std::vector<uint64_t> addrs;
    std::vector<std::pair<uint64_t, uint64_t>> branches;
    std::vector<Field> varints; ///< Every varint after the module map.
    std::vector<IdRef> ids;
};

/** Bytes of the fixed fields and module map that open a payload. */
size_t
headBytes(const ProfileData &pd)
{
    size_t n = 4 * 8 + 1 + 5 * 8 + 8 + 4;
    for (const MmapRecord &m : pd.mmaps)
        n += 4 + m.name.size() + 8 + 8 + 1;
    return n;
}

/** Map the fields of canonical @p payload, whose head is @p head. */
Layout
mapLayout(const std::string &payload, size_t head)
{
    Layout l;
    size_t off = head;
    auto varint = [&] {
        size_t start = off;
        uint64_t v = 0;
        for (int shift = 0;; shift += 7) {
            uint8_t b = static_cast<uint8_t>(payload.at(off++));
            v |= static_cast<uint64_t>(b & 0x7f) << shift;
            if (b < 0x80)
                break;
        }
        l.varints.push_back({start, off - start});
        return v;
    };
    auto id = [&](bool branch) {
        size_t start = off;
        varint();
        l.ids.push_back({{start, off - start}, branch});
    };

    l.addr_table.off = off;
    uint64_t prev = 0;
    for (uint64_t i = 0, n = varint(); i < n; i++)
        l.addrs.push_back(prev += varint());
    l.addr_table.len = off - l.addr_table.off;
    l.branch_table.off = off;
    prev = 0;
    for (uint64_t i = 0, n = varint(); i < n; i++) {
        uint64_t source = prev += varint();
        l.branches.emplace_back(source, source + unzigzag(varint()));
    }
    l.branch_table.len = off - l.branch_table.off;
    for (uint64_t i = 0, n = varint(); i < n; i++) {
        id(false);
        varint(); // Cycle delta.
    }
    for (uint64_t i = 0, n = varint(); i < n; i++) {
        uint8_t depth = static_cast<uint8_t>(payload.at(off++));
        for (uint8_t j = 0; j < depth; j++)
            id(true);
        varint(); // Cycle delta.
        id(false);
    }
    EXPECT_EQ(off, payload.size());
    return l;
}

std::string
encodeAddrTable(const std::vector<uint64_t> &addrs)
{
    ByteWriter w;
    w.varint(addrs.size());
    uint64_t prev = 0;
    for (uint64_t a : addrs) {
        w.varint(a - prev);
        prev = a;
    }
    return w.take();
}

std::string
encodeBranchTable(const std::vector<std::pair<uint64_t, uint64_t>> &bs)
{
    ByteWriter w;
    w.varint(bs.size());
    uint64_t prev = 0;
    for (const auto &[source, target] : bs) {
        w.varint(source - prev);
        w.varint(zigzag(target - source));
        prev = source;
    }
    return w.take();
}

std::string
varintBytes(uint64_t v)
{
    ByteWriter w;
    w.varint(v);
    return w.take();
}

enum Kind
{
    FlipByte,
    Truncate,
    WidenVarint,
    DuplicateEntry,
    SwapEntries,
    DropEntry,
    IdOutOfRange,
    kKinds
};

const char *const kKindNames[kKinds] = {
    "flip byte",       "truncate",     "widen varint", "duplicate entry",
    "swap entries",    "drop entry",   "id out of range"};

/**
 * Mutate @p payload (mapped by @p l) one way of @p kind. Returns false
 * when the input offers nothing to mutate that way. *@p must_reject is
 * set for mutations no canonical payload can survive.
 */
bool
mutate(std::string &payload, const Layout &l, Kind kind, Rng &rng,
       bool *must_reject)
{
    *must_reject = false;
    bool use_branches =
        l.addrs.empty() || (!l.branches.empty() && rng.chance(0.5));
    const Layout::Field &table =
        use_branches ? l.branch_table : l.addr_table;
    size_t table_size = use_branches ? l.branches.size() : l.addrs.size();
    auto editTable = [&](auto edit) {
        std::string encoded;
        if (use_branches) {
            auto entries = l.branches;
            edit(entries);
            encoded = encodeBranchTable(entries);
        } else {
            auto entries = l.addrs;
            edit(entries);
            encoded = encodeAddrTable(entries);
        }
        payload.replace(table.off, table.len, encoded);
    };

    switch (kind) {
      case FlipByte: {
        size_t at = rng.nextBelow(payload.size());
        payload[at] = static_cast<char>(payload[at] ^
                                        (1 + rng.nextBelow(255)));
        return true;
      }
      case Truncate:
        payload.resize(rng.nextBelow(payload.size()));
        return true;
      case WidenVarint: {
        const Layout::Field &f =
            l.varints[rng.nextBelow(l.varints.size())];
        payload[f.off + f.len - 1] =
            static_cast<char>(payload[f.off + f.len - 1] | 0x80);
        payload.insert(f.off + f.len, 1, '\0');
        *must_reject = true;
        return true;
      }
      case DuplicateEntry: {
        if (table_size == 0)
            return false;
        size_t i = rng.nextBelow(table_size);
        editTable([&](auto &e) { e.insert(e.begin() + i, e[i]); });
        *must_reject = true;
        return true;
      }
      case SwapEntries: {
        if (table_size < 2)
            return false;
        size_t i = rng.nextBelow(table_size - 1);
        size_t j = i + 1 + rng.nextBelow(table_size - i - 1);
        editTable([&](auto &e) { std::swap(e[i], e[j]); });
        *must_reject = true;
        return true;
      }
      case DropEntry: {
        if (table_size == 0)
            return false;
        size_t i = rng.nextBelow(table_size);
        editTable([&](auto &e) { e.erase(e.begin() + i); });
        return true;
      }
      case IdOutOfRange: {
        const Layout::IdRef &ref = l.ids[rng.nextBelow(l.ids.size())];
        uint64_t size = ref.branch ? l.branches.size() : l.addrs.size();
        uint64_t id = size + rng.nextBelow(1000);
        if (!ref.branch) // Keep the ring bit riding in the low bit.
            id = id << 1 | (static_cast<uint8_t>(payload[ref.at.off]) & 1);
        payload.replace(ref.at.off, ref.at.len, varintBytes(id));
        *must_reject = true;
        return true;
      }
      default:
        return false;
    }
}

/** @p payload behind a version-4 header with its checksum restamped. */
std::string
withHeader(const std::string &payload)
{
    ByteWriter w;
    w.u64(0x48424250'50524f46ULL); // "HBBPPROF"
    w.u32(4);
    w.u64(payload.size());
    w.u64(fnv1a(payload));
    return w.take() + payload;
}

TEST(ProfileMutation, MutantsAreRejectedOrRoundTripExactly)
{
    struct Input
    {
        const char *name;
        ProfileData pd;
    };
    std::vector<Input> inputs;
    inputs.push_back({"test40", collectSmall(makeTest40())});
    inputs.push_back({"kernelbench", collectSmall(makeKernelBench())});
    inputs.push_back({"wide branches", wideBranchProfile()});

    constexpr int kMutantsPerInput = 1200;
    size_t tried[kKinds] = {}, accepted[kKinds] = {};
    for (const Input &in : inputs) {
        SCOPED_TRACE(in.name);
        std::string bytes = in.pd.serialize();
        std::string why;
        std::optional<ProfileData> canonical =
            ProfileData::parse(bytes, in.name, &why);
        ASSERT_TRUE(canonical.has_value()) << why;
        ASSERT_EQ(*canonical, in.pd);
        std::string payload = bytes.substr(kHeaderBytes);
        Layout layout = mapLayout(payload, headBytes(in.pd));
        ASSERT_FALSE(layout.ids.empty());
        if (std::string(in.name) == "wide branches") {
            // Ids past 127 take two varint bytes.
            ASSERT_GE(layout.branches.size(), 300u);
        }

        Rng rng(fnv1a(in.name, std::strlen(in.name)));
        for (int i = 0; i < kMutantsPerInput; i++) {
            Kind kind = static_cast<Kind>(rng.nextBelow(kKinds));
            std::string mutant = payload;
            bool must_reject = false;
            if (!mutate(mutant, layout, kind, rng, &must_reject) ||
                mutant == payload)
                continue;
            tried[kind]++;
            std::string framed = withHeader(mutant);
            std::optional<ProfileData> pd =
                ProfileData::parse(framed, "mutant", &why);
            if (!pd) {
                EXPECT_FALSE(why.empty()) << kKindNames[kind];
                continue;
            }
            accepted[kind]++;
            EXPECT_FALSE(must_reject)
                << kKindNames[kind] << " mutant #" << i << " parsed";
            EXPECT_EQ(pd->serialize(), framed)
                << kKindNames[kind] << " mutant #" << i
                << " parsed but does not re-serialize to its own bytes";
        }
    }
    // Every mutation kind ran, so none of the checks above is vacuous.
    for (int k = 0; k < kKinds; k++) {
        EXPECT_GT(tried[k], 100u) << kKindNames[k];
        std::printf("%-16s %5zu mutants, %4zu parsed\n", kKindNames[k],
                    tried[k], accepted[k]);
    }
}

} // namespace
} // namespace hbbp
