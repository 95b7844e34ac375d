#include "collect/profile.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "support/bytes.hh"
#include "support/dictionary.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace hbbp {

namespace {

constexpr uint64_t kMagic = 0x48424250'50524f46ULL; // "HBBPPROF"
/** Current format: the dictionary-coded payload (see writeBody()). */
constexpr uint32_t kVersion = 4;
/** Fixed-width payload behind the same header: read, never written. */
constexpr uint32_t kFixedWidthVersion = 3;
/** Legacy pre-checksum header over the fixed-width payload. */
constexpr uint32_t kLegacyVersion = 2;
/** Magic, version, payload length, payload checksum. */
constexpr size_t kHeaderBytes = 28;

/** Cast a byte to an enum after range-checking it. */
template <typename E>
E
checkedEnum(uint8_t raw, uint8_t max, const char *what,
            const std::string &path)
{
    if (raw > max)
        throw ByteParseError(format(
            "invalid %s value %u in '%s' (corrupt profile?)", what,
            raw, path.c_str()));
    return static_cast<E>(raw);
}

/** Every payload version opens with the periods, features and modules. */
void
writeHead(ByteWriter &w, const ProfileData &pd)
{
    w.u64(pd.sim_periods.ebs);
    w.u64(pd.sim_periods.lbr);
    w.u64(pd.paper_periods.ebs);
    w.u64(pd.paper_periods.lbr);
    w.u8(static_cast<uint8_t>(pd.runtime_class));

    w.u64(pd.features.cycles);
    w.u64(pd.features.instructions);
    w.u64(pd.features.block_entries);
    w.u64(pd.features.taken_branches);
    w.u64(pd.features.simd_instructions);
    w.u64(pd.pmi_count);

    w.u32(static_cast<uint32_t>(pd.mmaps.size()));
    for (const MmapRecord &m : pd.mmaps) {
        w.str(m.name);
        w.u64(m.base);
        w.u64(m.size);
        w.u8(m.kernel ? 1 : 0);
    }
}

/**
 * writeHead()'s inverse. A @p canonical (version-4) payload must spell
 * the module kernel flag as 0 or 1; version 3 read any non-zero byte
 * as true.
 */
void
readHead(ByteReader &r, ProfileData &pd, const std::string &path,
         bool canonical)
{
    pd.sim_periods.ebs = r.u64();
    pd.sim_periods.lbr = r.u64();
    pd.paper_periods.ebs = r.u64();
    pd.paper_periods.lbr = r.u64();
    pd.runtime_class = checkedEnum<RuntimeClass>(
        r.u8(), static_cast<uint8_t>(RuntimeClass::MinutesMany),
        "runtime class", path);

    pd.features.cycles = r.u64();
    pd.features.instructions = r.u64();
    pd.features.block_entries = r.u64();
    pd.features.taken_branches = r.u64();
    pd.features.simd_instructions = r.u64();
    pd.pmi_count = r.u64();

    // Minimum on-disk size of a module: 4-byte name length + 8 + 8 + 1.
    uint32_t n_mmaps = static_cast<uint32_t>(
        r.count(r.u32(), 21, "module map"));
    pd.mmaps.reserve(n_mmaps);
    for (uint32_t i = 0; i < n_mmaps; i++) {
        MmapRecord m;
        m.name = r.str();
        m.base = r.u64();
        m.size = r.u64();
        uint8_t kernel = r.u8();
        m.kernel = canonical ? checkedEnum<bool>(kernel, 1,
                                                 "module kernel flag",
                                                 path)
                             : kernel != 0;
        pd.mmaps.push_back(std::move(m));
    }
}

/** The version-2/3 payload: every sample field at its full width. */
ProfileData
parseFixedWidthBody(std::string_view body, const std::string &path)
{
    ByteReader r(body, path, "profile");
    ProfileData pd;
    readHead(r, pd, path, /*canonical=*/false);

    // Minimum on-disk sizes: EBS sample = 8 + 8 + 1; LBR sample =
    // 1-byte depth + 8 + 1 + 8.
    uint64_t n_ebs = r.count(r.u64(), 17, "EBS sample");
    pd.ebs.reserve(n_ebs);
    for (uint64_t i = 0; i < n_ebs; i++) {
        EbsSample s;
        s.ip = r.u64();
        s.cycle = r.u64();
        s.ring = checkedEnum<Ring>(
            r.u8(), static_cast<uint8_t>(Ring::Kernel), "ring", path);
        pd.ebs.push_back(s);
    }

    uint64_t n_lbr = r.count(r.u64(), 18, "LBR stack");
    pd.lbr.reserve(n_lbr);
    for (uint64_t i = 0; i < n_lbr; i++) {
        LbrStackSample s;
        uint8_t depth = r.u8();
        s.entries.reserve(depth);
        for (uint8_t j = 0; j < depth; j++) {
            LbrEntry e;
            e.source = r.u64();
            e.target = r.u64();
            s.entries.push_back(e);
        }
        s.cycle = r.u64();
        s.ring = checkedEnum<Ring>(
            r.u8(), static_cast<uint8_t>(Ring::Kernel), "ring", path);
        s.eventing_ip = r.u64();
        pd.lbr.push_back(std::move(s));
    }
    r.expectEof();
    return pd;
}

using Branch = std::pair<uint64_t, uint64_t>; ///< (source, target).

inline uint64_t
ringBit(Ring ring)
{
    return ring == Ring::Kernel ? 1 : 0;
}

/**
 * The version-4 payload. After writeHead():
 *
 *   varint n, then n ascending addresses (EBS IPs and LBR eventing
 *     IPs) as varint deltas, the first from 0 and the rest >= 1;
 *   varint n, then n ascending (source, target) branches, each as a
 *     varint source delta (from the previous source, the first from
 *     0) and a zigzag-varint target - source;
 *   varint n, then n EBS samples: varint(address id << 1 | ring), then
 *     a zigzag-varint cycle delta from the previous EBS sample;
 *   varint n, then n LBR samples: u8 depth, depth varint branch ids, a
 *     zigzag-varint cycle delta from the previous LBR sample, then
 *     varint(eventing address id << 1 | ring).
 *
 * The tables hold exactly the referenced keys, sorted, and every
 * varint is minimal, so equal profiles always encode to equal bytes —
 * what checksum dedup and content addressing stand on.
 */
void
writeBody(ByteWriter &w, const ProfileData &pd)
{
    size_t n_entries = 0;
    for (const LbrStackSample &s : pd.lbr)
        n_entries += s.entries.size();
    w.reserve(128 + 32 * pd.mmaps.size() + 4 * pd.ebs.size() +
              8 * pd.lbr.size() + 2 * n_entries);
    writeHead(w, pd);

    Dictionary<uint64_t> addrs;
    Dictionary<Branch> branches;
    std::vector<uint32_t> ebs_ids(pd.ebs.size());
    std::vector<uint32_t> eventing_ids(pd.lbr.size());
    std::vector<uint32_t> entry_ids(n_entries);
    for (size_t i = 0; i < pd.ebs.size(); i++)
        ebs_ids[i] = addrs.intern(pd.ebs[i].ip);
    for (size_t i = 0, k = 0; i < pd.lbr.size(); i++) {
        eventing_ids[i] = addrs.intern(pd.lbr[i].eventing_ip);
        for (const LbrEntry &e : pd.lbr[i].entries)
            entry_ids[k++] = branches.intern({e.source, e.target});
    }

    std::vector<uint64_t> addr_table = addrs.sorted();
    w.varint(addr_table.size());
    uint64_t prev = 0;
    for (uint64_t a : addr_table) {
        w.varint(a - prev);
        prev = a;
    }
    std::vector<Branch> branch_table = branches.sorted();
    w.varint(branch_table.size());
    prev = 0;
    for (const auto &[source, target] : branch_table) {
        w.varint(source - prev);
        w.varint(zigzag(target - source));
        prev = source;
    }

    w.varint(pd.ebs.size());
    uint64_t cycle = 0;
    for (size_t i = 0; i < pd.ebs.size(); i++) {
        const EbsSample &s = pd.ebs[i];
        w.varint(uint64_t{addrs.rank(ebs_ids[i])} << 1 | ringBit(s.ring));
        w.varint(zigzag(s.cycle - cycle));
        cycle = s.cycle;
    }

    w.varint(pd.lbr.size());
    cycle = 0;
    for (size_t i = 0, k = 0; i < pd.lbr.size(); i++) {
        const LbrStackSample &s = pd.lbr[i];
        w.u8(static_cast<uint8_t>(s.entries.size()));
        for (size_t j = 0; j < s.entries.size(); j++)
            w.varint(branches.rank(entry_ids[k++]));
        w.varint(zigzag(s.cycle - cycle));
        cycle = s.cycle;
        w.varint(uint64_t{addrs.rank(eventing_ids[i])} << 1 |
                 ringBit(s.ring));
    }
}

[[noreturn]] void
notCanonical(const char *what, const std::string &path)
{
    throw ByteParseError(
        format("%s in '%s' (corrupt profile?)", what, path.c_str()));
}

/** Range-check an id read from the payload against its table. */
size_t
checkedId(uint64_t id, size_t table_size, const char *table,
          const std::string &path)
{
    if (id >= table_size)
        throw ByteParseError(format(
            "%s id %llu out of range (the table has %zu entries) in "
            "'%s' (corrupt profile?)",
            table, static_cast<unsigned long long>(id), table_size,
            path.c_str()));
    return static_cast<size_t>(id);
}

/**
 * writeBody()'s inverse, and its canonical-form check: anything
 * writeBody() cannot have produced — an unsorted, duplicate or
 * unreferenced table entry, a padded varint, an out-of-range id,
 * trailing bytes — throws, so every accepted payload re-serializes to
 * exactly its own bytes.
 */
ProfileData
parseBody(std::string_view body, const std::string &path)
{
    ByteReader r(body, path, "profile");
    ProfileData pd;
    readHead(r, pd, path, /*canonical=*/true);

    // Minimum encoded sizes: address = 1 byte; branch = 2; EBS sample
    // = 2; LBR sample = depth + cycle delta + eventing IP = 3.
    std::vector<uint64_t> addrs(static_cast<size_t>(
        r.count(r.varint(), 1, "address table")));
    uint64_t prev = 0;
    for (size_t i = 0; i < addrs.size(); i++) {
        uint64_t delta = r.varint();
        if (i > 0 && delta == 0)
            notCanonical("duplicate address table entry", path);
        if (delta > std::numeric_limits<uint64_t>::max() - prev)
            notCanonical("address table is not ascending", path);
        prev += delta;
        addrs[i] = prev;
    }
    std::vector<LbrEntry> branches(static_cast<size_t>(
        r.count(r.varint(), 2, "branch table")));
    prev = 0;
    for (size_t i = 0; i < branches.size(); i++) {
        uint64_t delta = r.varint();
        if (delta > std::numeric_limits<uint64_t>::max() - prev)
            notCanonical("branch table is not ascending", path);
        LbrEntry &e = branches[i];
        e.source = prev + delta;
        e.target = e.source + unzigzag(r.varint());
        if (i > 0 && delta == 0 && e.target <= branches[i - 1].target)
            notCanonical(e.target == branches[i - 1].target
                             ? "duplicate branch table entry"
                             : "branch table is not ascending",
                         path);
        prev = e.source;
    }
    std::vector<uint8_t> addr_used(addrs.size());
    std::vector<uint8_t> branch_used(branches.size());

    pd.ebs.resize(static_cast<size_t>(
        r.count(r.varint(), 2, "EBS sample")));
    uint64_t cycle = 0;
    for (EbsSample &s : pd.ebs) {
        uint64_t code = r.varint();
        size_t id = checkedId(code >> 1, addrs.size(), "address", path);
        addr_used[id] = 1;
        s.ip = addrs[id];
        s.ring = (code & 1) ? Ring::Kernel : Ring::User;
        cycle += unzigzag(r.varint());
        s.cycle = cycle;
    }

    pd.lbr.resize(static_cast<size_t>(
        r.count(r.varint(), 3, "LBR stack")));
    cycle = 0;
    for (LbrStackSample &s : pd.lbr) {
        s.entries.resize(r.u8());
        for (LbrEntry &e : s.entries) {
            size_t id =
                checkedId(r.varint(), branches.size(), "branch", path);
            branch_used[id] = 1;
            e = branches[id];
        }
        cycle += unzigzag(r.varint());
        s.cycle = cycle;
        uint64_t code = r.varint();
        size_t id = checkedId(code >> 1, addrs.size(), "address", path);
        addr_used[id] = 1;
        s.eventing_ip = addrs[id];
        s.ring = (code & 1) ? Ring::Kernel : Ring::User;
    }
    r.expectEof();

    if (std::find(addr_used.begin(), addr_used.end(), 0) !=
        addr_used.end())
        notCanonical("unreferenced address table entry", path);
    if (std::find(branch_used.begin(), branch_used.end(), 0) !=
        branch_used.end())
        notCanonical("unreferenced branch table entry", path);
    return pd;
}

/** The header fields and payload of a serialized profile. */
struct ProbedProfile
{
    uint32_t version = 0;
    uint64_t checksum = 0; ///< Derived from the payload for legacy files.
    /** A view into the probed bytes — the caller keeps them alive. */
    std::string_view body;
};

/** Parse a probed payload with the body parser its version names. */
ProfileData
parseProbed(const ProbedProfile &p, const std::string &context)
{
    return p.version == kVersion ? parseBody(p.body, context)
                                 : parseFixedWidthBody(p.body, context);
}

/**
 * Validate serialized profile @p bytes down to a verified payload;
 * @p context names the source in diagnostics. Versions 3 and 4 are
 * always read; with @p allow_legacy the version-2 (pre-checksum)
 * format and stale checksums are accepted too — the migration path.
 * Returns std::nullopt with *@p why set on any failure.
 */
std::optional<ProbedProfile>
probeBytes(std::string_view bytes, const std::string &context,
           bool allow_legacy, std::string *why)
{
    why->clear();
    auto fail = [&](std::string reason) {
        *why = std::move(reason);
        return std::nullopt;
    };
    if (bytes.size() < 12)
        return fail(format("short read from '%s' (corrupt profile?)",
                           context.c_str()));
    ProbedProfile p;
    uint64_t magic;
    std::memcpy(&magic, bytes.data(), sizeof(magic));
    if (magic != kMagic)
        return fail(format("'%s' is not an HBBP profile", context.c_str()));
    std::memcpy(&p.version, bytes.data() + 8, sizeof(p.version));

    if (p.version == kLegacyVersion) {
        p.body = bytes.substr(12);
        p.checksum = fnv1a(p.body);
        if (!allow_legacy)
            return fail(format(
                "'%s' is profile format version %u, which predates "
                "payload checksums — re-collect it or run `hbbp-tool "
                "migrate` to upgrade it",
                context.c_str(), p.version));
        return p;
    }
    if (p.version != kVersion && p.version != kFixedWidthVersion)
        return fail(format(
            "'%s' has unsupported profile version %u (this build reads "
            "versions %u to %u) — re-collect it or run `hbbp-tool "
            "migrate` from a matching build",
            context.c_str(), p.version, kLegacyVersion, kVersion));

    if (bytes.size() < kHeaderBytes)
        return fail(format("short read from '%s' (corrupt profile?)",
                           context.c_str()));
    uint64_t payload_len, stored;
    std::memcpy(&payload_len, bytes.data() + 12, sizeof(payload_len));
    std::memcpy(&stored, bytes.data() + 20, sizeof(stored));
    uint64_t have = bytes.size() - kHeaderBytes;
    if (have < payload_len)
        return fail(format(
            "'%s' is truncated: header promises a %llu-byte payload but "
            "only %llu bytes follow (corrupt profile?)",
            context.c_str(), static_cast<unsigned long long>(payload_len),
            static_cast<unsigned long long>(have)));
    if (have > payload_len)
        return fail(format("trailing garbage at the end of '%s' "
                           "(corrupt profile?)", context.c_str()));
    p.body = bytes.substr(kHeaderBytes);
    p.checksum = fnv1a(p.body);
    if (p.checksum != stored && !allow_legacy)
        return fail(format(
            "payload checksum mismatch in '%s': header says %016llx but "
            "the payload hashes to %016llx — the checksum is stale or "
            "the profile is corrupt; re-collect it or run `hbbp-tool "
            "migrate` to rewrite it",
            context.c_str(), static_cast<unsigned long long>(stored),
            static_cast<unsigned long long>(p.checksum)));
    return p;
}

/**
 * probeBytes() applied to the contents of @p path, read into *@p
 * bytes. The result's body views *@p bytes, so the caller keeps that
 * string alive and unmoved until the parse is done (moving a short
 * string would leave the view dangling). *@p io_failed, when
 * non-null, distinguishes an I/O-level failure (open/read — no
 * verdict on the bytes) from a content-level one.
 */
std::optional<ProbedProfile>
probe(const std::string &path, std::string *bytes, bool allow_legacy,
      std::string *why, bool *io_failed = nullptr)
{
    *bytes = readFileBytes(path, why);
    if (io_failed)
        *io_failed = !why->empty();
    if (!why->empty())
        return std::nullopt;
    return probeBytes(*bytes, path, allow_legacy, why);
}

} // namespace

std::string
ProfileData::serialize(uint64_t *checksum_out) const
{
    // Header first with the length and checksum patched in after the
    // body, so the payload is never copied.
    ByteWriter w;
    w.u64(kMagic);
    w.u32(kVersion);
    w.u64(0);
    w.u64(0);
    writeBody(w, *this);
    std::string bytes = w.take();
    uint64_t payload_len = bytes.size() - kHeaderBytes;
    uint64_t checksum = fnv1a(bytes.data() + kHeaderBytes, payload_len);
    std::memcpy(bytes.data() + 12, &payload_len, sizeof(payload_len));
    std::memcpy(bytes.data() + 20, &checksum, sizeof(checksum));
    if (checksum_out)
        *checksum_out = checksum;
    return bytes;
}

std::optional<ProfileData>
ProfileData::parse(std::string_view bytes, const std::string &context,
                   std::string *why, uint64_t *checksum_out)
{
    std::string local;
    std::string *out = why ? why : &local;
    std::optional<ProbedProfile> p =
        probeBytes(bytes, context, /*allow_legacy=*/false, out);
    if (!p)
        return std::nullopt;
    if (checksum_out)
        *checksum_out = p->checksum;
    // The checksum is computed by whoever produced the bytes, so on
    // untrusted input (a transport frame) it proves nothing about
    // structure: a crafted payload must be a parse failure here, not
    // a process death.
    try {
        return parseProbed(*p, context);
    } catch (const ByteParseError &e) {
        *out = e.what();
        return std::nullopt;
    }
}

void
ProfileData::save(const std::string &path, uint64_t *checksum_out) const
{
    std::string bytes = serialize(checksum_out);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open '%s' for writing", path.c_str());
    bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (std::fclose(f) != 0 || !ok)
        fatal("short write to '%s'", path.c_str());
}

void
ProfileData::saveAtomically(const std::string &path,
                            uint64_t *checksum_out) const
{
    writeFileAtomically(path, serialize(checksum_out));
}

uint64_t
ProfileData::payloadChecksum() const
{
    ByteWriter w;
    writeBody(w, *this);
    return fnv1a(w.bytes());
}

ProfileData
ProfileData::load(const std::string &path)
{
    std::string why, bytes;
    std::optional<ProbedProfile> p =
        probe(path, &bytes, /*allow_legacy=*/false, &why);
    if (!p)
        fatal("%s", why.c_str());
    try {
        return parseProbed(*p, path);
    } catch (const ByteParseError &e) {
        fatal("%s", e.what());
    }
}

ProfileData
ProfileData::loadAnyVersion(const std::string &path, uint32_t *version_out)
{
    std::string why, bytes;
    std::optional<ProbedProfile> p =
        probe(path, &bytes, /*allow_legacy=*/true, &why);
    if (!p)
        fatal("%s", why.c_str());
    if (version_out)
        *version_out = p->version;
    try {
        return parseProbed(*p, path);
    } catch (const ByteParseError &e) {
        fatal("%s", e.what());
    }
}

std::optional<ProfileData>
ProfileData::tryLoad(const std::string &path, std::string *why,
                     uint64_t *checksum_out, bool *io_failed)
{
    std::string local, bytes;
    std::string *out = why ? why : &local;
    std::optional<ProbedProfile> p =
        probe(path, &bytes, /*allow_legacy=*/false, out, io_failed);
    if (!p)
        return std::nullopt;
    if (checksum_out)
        *checksum_out = p->checksum;
    try {
        return parseProbed(*p, path);
    } catch (const ByteParseError &e) {
        *out = e.what();
        return std::nullopt;
    }
}

} // namespace hbbp
