#include "fleet/manifest.hh"

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "support/bytes.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"

namespace fs = std::filesystem;

namespace hbbp {

bool
validHostId(const std::string &host)
{
    return !host.empty() &&
           host.find_first_of(" \t\n/,:") == std::string::npos;
}

const char *
name(ShardStatus status)
{
    switch (status) {
    case ShardStatus::Complete: return "complete";
    case ShardStatus::Partial: return "partial";
    }
    panic("invalid ShardStatus %d", static_cast<int>(status));
}

namespace {

constexpr const char *kManifestTag = "hbbp-shard-manifest";

/** Parse an unsigned decimal field value; false on malformed input. */
bool
parseU64(const std::string &value, uint64_t *out)
{
    // Bare decimal digits only, like the hex path below: strtoull
    // alone skips leading whitespace and accepts '+'/'-' signs (" -1"
    // wraps to 2^64-1), turning malformed fields into plausible
    // garbage values.
    if (value.empty())
        return false;
    for (char c : value)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    errno = 0;
    unsigned long long v = std::strtoull(value.c_str(), nullptr, 10);
    // Overflow saturates to ULLONG_MAX; only errno tells it apart
    // from a genuine 2^64-1.
    if (errno == ERANGE)
        return false;
    *out = v;
    return true;
}

/** Parse a bare-hex-digits field value; false on malformed input. */
bool
parseHex64(const std::string &value, uint64_t *out)
{
    // Bare hex digits only: strtoull alone would wrap "-1" to 2^64-1
    // and accept an "0x" prefix, turning malformed fields into
    // plausible-looking garbage values.
    if (value.empty() || value.size() > 16)
        return false;
    for (char c : value)
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            return false;
    *out = std::strtoull(value.c_str(), nullptr, 16);
    return true;
}

/** Parse a `hosts=hostA:2,hostB:1` coverage list; false on damage. */
bool
parseCoverage(const std::string &value,
              std::vector<HostCoverage> *out, std::string *why)
{
    for (const std::string &entry : split(value, ',')) {
        size_t colon = entry.rfind(':');
        if (colon == std::string::npos) {
            *why = format("malformed hosts entry '%s'", entry.c_str());
            return false;
        }
        HostCoverage hc;
        hc.host = entry.substr(0, colon);
        uint64_t count;
        if (!validHostId(hc.host) ||
            !parseU64(entry.substr(colon + 1), &count) || count == 0 ||
            count > UINT32_MAX) {
            *why = format("malformed hosts entry '%s'", entry.c_str());
            return false;
        }
        hc.count = static_cast<uint32_t>(count);
        // Sorted and duplicate-free, so coverage order is canonical
        // and chunk i always means covered[i]'s partial.
        if (!out->empty() && out->back().host >= hc.host) {
            *why = format(
                "hosts list is not sorted and duplicate-free at '%s'",
                hc.host.c_str());
            return false;
        }
        out->push_back(std::move(hc));
    }
    if (out->empty()) {
        *why = "empty hosts list";
        return false;
    }
    return true;
}

} // namespace

size_t
ShardManifest::coveredShardCount() const
{
    if (covered.empty())
        return 1;
    size_t n = 0;
    for (const HostCoverage &hc : covered)
        n += hc.count;
    return n;
}

std::string
ShardManifest::render() const
{
    // Leaf shards keep the version-1 text byte-for-byte: a fleet can
    // upgrade its relays before (or after) its aggregation root, and
    // collectors never need to move at all.
    uint32_t written = level > 0 || !covered.empty()
                           ? kManifestVersionAggregate
                           : kManifestVersion;
    std::string text =
        format("%s %u\n"
               "host=%s\n"
               "workload=%s\n"
               "seq=%u\n"
               "options=%016llx\n"
               "checksum=%016llx\n"
               "profile=%s\n"
               "status=%s\n",
               kManifestTag, written, host.c_str(), workload.c_str(),
               seq, static_cast<unsigned long long>(options_hash),
               static_cast<unsigned long long>(checksum),
               profile_file.c_str(), name(status));
    if (written >= kManifestVersionAggregate) {
        text += format("level=%u\n", level);
        text += "hosts=";
        for (size_t i = 0; i < covered.size(); i++)
            text += format("%s%s:%u", i == 0 ? "" : ",",
                           covered[i].host.c_str(), covered[i].count);
        text += "\n";
    }
    // Optional trailing trace line: absent ids keep the rendered
    // bytes identical to pre-tracing builds at every version.
    if (!trace_ids.empty())
        text += "trace=" + join(trace_ids, ",") + "\n";
    // Optional trailing metrics endpoint, same discipline: a daemon
    // that does not advertise one renders nothing.
    if (!metrics_endpoint.empty())
        text += "metrics=" + metrics_endpoint + "\n";
    return text;
}

void
ShardManifest::save(const std::string &path) const
{
    writeFileAtomically(path, render());
}

std::optional<ShardManifest>
ShardManifest::parse(const std::string &text, std::string *why)
{
    auto fail = [&](std::string reason) {
        if (why)
            *why = std::move(reason);
        return std::nullopt;
    };

    std::vector<std::string> lines = split(text, '\n');
    if (lines.empty() || lines[0].empty())
        return fail("truncated manifest: missing header line");
    std::vector<std::string> header = split(lines[0], ' ');
    if (header.size() != 2 || header[0] != kManifestTag)
        return fail(format("not a shard manifest (header line '%s')",
                           lines[0].c_str()));
    uint64_t version;
    if (!parseU64(header[1], &version))
        return fail(format("malformed manifest version '%s'",
                           header[1].c_str()));
    if (version != kManifestVersion &&
        version != kManifestVersionAggregate)
        return fail(format(
            "unsupported manifest version %llu (this build reads "
            "versions %u-%u) — re-export the shard with a matching "
            "build",
            static_cast<unsigned long long>(version), kManifestVersion,
            kManifestVersionAggregate));

    ShardManifest m;
    m.version = static_cast<uint32_t>(version);
    bool have_host = false, have_workload = false, have_seq = false;
    bool have_options = false, have_checksum = false;
    bool have_profile = false, have_status = false;
    bool have_level = false, have_hosts = false;
    for (size_t i = 1; i < lines.size(); i++) {
        if (lines[i].empty())
            continue;
        size_t eq = lines[i].find('=');
        if (eq == std::string::npos)
            return fail(format("malformed manifest line '%s'",
                               lines[i].c_str()));
        std::string key = lines[i].substr(0, eq);
        std::string value = lines[i].substr(eq + 1);
        if (key == "host") {
            // Validated at the parse chokepoint, not just the drop-dir
            // writer: a socket-pushed shard whose host id holds ','
            // or ':' would fold fine here and then render an
            // unparseable `hosts=` coverage line one level up — an
            // acked shard that can never reach the root.
            if (!value.empty() && !validHostId(value))
                return fail(format(
                    "malformed host id '%s' (must be without "
                    "whitespace, '/', ',' or ':')", value.c_str()));
            m.host = value;
            have_host = !value.empty();
        } else if (key == "workload") {
            m.workload = value;
            have_workload = !value.empty();
        } else if (key == "seq") {
            uint64_t seq;
            if (!parseU64(value, &seq) || seq > UINT32_MAX)
                return fail(format("malformed seq value '%s'",
                                   value.c_str()));
            m.seq = static_cast<uint32_t>(seq);
            have_seq = true;
        } else if (key == "options") {
            if (!parseHex64(value, &m.options_hash))
                return fail(format("malformed options hash '%s'",
                                   value.c_str()));
            have_options = true;
        } else if (key == "checksum") {
            if (!parseHex64(value, &m.checksum))
                return fail(format("malformed checksum '%s'",
                                   value.c_str()));
            have_checksum = true;
        } else if (key == "profile") {
            m.profile_file = value;
            have_profile = !value.empty();
        } else if (key == "status") {
            if (value == name(ShardStatus::Complete))
                m.status = ShardStatus::Complete;
            else if (value == name(ShardStatus::Partial))
                m.status = ShardStatus::Partial;
            else
                return fail(format("unknown shard status '%s'",
                                   value.c_str()));
            have_status = true;
        } else if (key == "level" &&
                   version >= kManifestVersionAggregate) {
            uint64_t level;
            if (!parseU64(value, &level) || level == 0 ||
                level > UINT32_MAX)
                return fail(format("malformed level value '%s'",
                                   value.c_str()));
            m.level = static_cast<uint32_t>(level);
            have_level = true;
        } else if (key == "hosts" &&
                   version >= kManifestVersionAggregate) {
            std::string cover_why;
            if (!parseCoverage(value, &m.covered, &cover_why))
                return fail(std::move(cover_why));
            have_hosts = true;
        } else if (key == "trace") {
            // Optional at every version (tracing predates nothing a
            // reader gates on). Ids are opaque tokens; reject only
            // what would corrupt the comma-joined re-render.
            for (const std::string &id : split(value, ',')) {
                if (id.empty() ||
                    id.find_first_of(" \t,") != std::string::npos)
                    return fail(format("malformed trace id '%s'",
                                       id.c_str()));
                m.trace_ids.push_back(id);
            }
        } else if (key == "metrics") {
            // Optional at every version. An endpoint is `host:port`;
            // reject only what would corrupt a re-render or a later
            // scrape attempt.
            if (value.find_first_of(" \t,") != std::string::npos)
                return fail(format("malformed metrics endpoint '%s'",
                                   value.c_str()));
            m.metrics_endpoint = value;
        }
        // Unknown keys are ignored: minor-version additions stay
        // readable by older aggregators.
    }
    if (!have_host)
        return fail("truncated manifest: missing 'host' field");
    if (!have_workload)
        return fail("truncated manifest: missing 'workload' field");
    if (!have_seq)
        return fail("truncated manifest: missing 'seq' field");
    if (!have_options)
        return fail("truncated manifest: missing 'options' field");
    if (!have_checksum)
        return fail("truncated manifest: missing 'checksum' field");
    if (!have_profile)
        return fail("truncated manifest: missing 'profile' field");
    if (!have_status)
        return fail("truncated manifest: missing 'status' field");
    // An aggregate manifest travels level and coverage together: the
    // fold semantics need the covered set, the level needs to be
    // explainable, and half of either is a damaged export.
    if (version >= kManifestVersionAggregate &&
        have_level != have_hosts)
        return fail(format(
            "truncated manifest: aggregate shards need both 'level' "
            "and 'hosts' (got %s only)", have_level ? "level" : "hosts"));
    return m;
}

std::optional<ShardManifest>
ShardManifest::tryLoad(const std::string &path, std::string *why)
{
    std::string local;
    std::string *out = why ? why : &local;
    std::string text = readFileBytes(path, out);
    if (!out->empty())
        return std::nullopt;
    std::optional<ShardManifest> m = parse(text, why);
    if (!m && why)
        *why = format("'%s': %s", path.c_str(), why->c_str());
    return m;
}

ShardManifest
ShardManifest::load(const std::string &path)
{
    std::string why;
    std::optional<ShardManifest> m = tryLoad(path, &why);
    if (!m)
        fatal("%s", why.c_str());
    return *m;
}

std::string
shardTraceId(const ShardManifest &m)
{
    return format("%s-%u-%016llx", m.host.c_str(), m.seq,
                  static_cast<unsigned long long>(m.checksum));
}

uint64_t
hostStreamSeed(uint64_t base, const std::string &host, uint32_t seq)
{
    // Hash the host name, then the same golden-ratio mixing as
    // shardStreamSeed so per-host streams stay far apart and distinct
    // from the unsharded base seed.
    return splitmix64(base + fnv1a(host) +
                      (uint64_t(seq) + 1) * 0x9e3779b97f4a7c15ULL);
}

std::string
writeShardFiles(ShardManifest m, const std::string &bytes,
                const std::string &dir, ShardManifest *manifest_out)
{
    if (!validHostId(m.host))
        fatal("invalid host id '%s' (must be non-empty, without "
              "whitespace, '/', ',' or ':')", m.host.c_str());
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fatal("cannot create export directory '%s': %s", dir.c_str(),
              ec.message().c_str());

    // Profile first, manifest last (each through a unique temp name +
    // rename): an aggregator that sees the manifest is guaranteed a
    // complete profile beside it, and the watcher only globs
    // *.manifest, so temp names are never picked up.
    std::string base = format(
        "%s-%u-%016llx", m.host.c_str(), m.seq,
        static_cast<unsigned long long>(m.checksum));
    m.profile_file = base + ".hbbp";
    m.status = ShardStatus::Complete;
    writeFileAtomically(dir + "/" + m.profile_file, bytes);

    std::string manifest_path = dir + "/" + base + ".manifest";
    m.save(manifest_path);
    if (manifest_out)
        *manifest_out = std::move(m);
    return manifest_path;
}

std::string
exportShard(const ProfileData &profile, const std::string &host,
            const std::string &workload, uint32_t seq,
            uint64_t options_hash, const std::string &dir,
            ShardManifest *manifest_out)
{
    ShardManifest m;
    m.host = host;
    m.workload = workload;
    m.seq = seq;
    m.options_hash = options_hash;

    // The final file name embeds the checksum, which serialize()
    // reports as a by-product — the payload is serialized exactly
    // once.
    std::string bytes = profile.serialize(&m.checksum);
    return writeShardFiles(std::move(m), bytes, dir, manifest_out);
}

std::optional<ImportedShard>
importShard(const std::string &manifest_path, std::string *why)
{
    std::optional<ShardManifest> m =
        ShardManifest::tryLoad(manifest_path, why);
    if (!m)
        return std::nullopt;
    auto fail = [&](std::string reason) {
        if (why)
            *why = std::move(reason);
        return std::nullopt;
    };

    if (m->status != ShardStatus::Complete)
        return fail(format(
            "'%s' is marked status=%s: the exporter is still streaming "
            "this shard; aggregating it now would bake truncated data "
            "into the fleet mix",
            manifest_path.c_str(), name(m->status)));

    // An aggregate shard's payload is one chunk *per covered host* —
    // a single profile file cannot carry the per-host split the
    // supersede fold needs, so aggregates travel over the socket
    // transport only.
    if (m->level > 0 || !m->covered.empty())
        return fail(format(
            "'%s' is a level-%u aggregate shard: aggregates travel "
            "over the socket transport (relay --to), not drop "
            "directories", manifest_path.c_str(), m->level));

    std::string profile_path =
        (fs::path(manifest_path).parent_path() / m->profile_file)
            .string();
    std::error_code ec;
    if (!fs::exists(profile_path, ec))
        return fail(format(
            "'%s' references missing profile file '%s'",
            manifest_path.c_str(), m->profile_file.c_str()));

    // One read serves header validation, checksum verification,
    // parsing and the caller's deposit — imports are the aggregation
    // hot path.
    std::string load_why;
    std::string bytes = readFileBytes(profile_path, &load_why);
    if (!load_why.empty())
        return fail(load_why);
    uint64_t checksum = 0;
    std::optional<ProfileData> profile =
        ProfileData::parse(bytes, profile_path, &load_why, &checksum);
    if (!profile)
        return fail(load_why);
    if (checksum != m->checksum)
        return fail(format(
            "shard checksum mismatch: manifest '%s' promises %016llx "
            "but '%s' hashes to %016llx (stale manifest or corrupt "
            "transfer?)",
            manifest_path.c_str(),
            static_cast<unsigned long long>(m->checksum),
            profile_path.c_str(),
            static_cast<unsigned long long>(checksum)));

    ImportedShard shard;
    shard.manifest = std::move(*m);
    shard.profile = std::move(*profile);
    shard.bytes = std::move(bytes);
    return shard;
}

} // namespace hbbp
