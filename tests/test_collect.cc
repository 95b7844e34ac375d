/**
 * @file
 * Tests for period selection (Table 4), profile serialization and the
 * collector.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "collect/collector.hh"
#include "collect/periods.hh"
#include "collect/profile.hh"
#include "support/bytes.hh"
#include "tests/helpers.hh"
#include "tests/profile_v3.hh"

namespace hbbp {
namespace {

TEST(Periods, PaperTable4Values)
{
    SamplingPeriods s = paperPeriods(RuntimeClass::Seconds);
    EXPECT_EQ(s.ebs, 1'000'037u);
    EXPECT_EQ(s.lbr, 100'003u);
    SamplingPeriods m = paperPeriods(RuntimeClass::MinutesFew);
    EXPECT_EQ(m.ebs, 10'000'019u);
    EXPECT_EQ(m.lbr, 1'000'037u);
    SamplingPeriods l = paperPeriods(RuntimeClass::MinutesMany);
    EXPECT_EQ(l.ebs, 100'000'007u);
    EXPECT_EQ(l.lbr, 10'000'019u);
}

TEST(Periods, PaperPeriodsArePrime)
{
    for (RuntimeClass cls : {RuntimeClass::Seconds,
                             RuntimeClass::MinutesFew,
                             RuntimeClass::MinutesMany}) {
        SamplingPeriods s = paperPeriods(cls);
        EXPECT_EQ(nextPrime(s.ebs), s.ebs);
        EXPECT_EQ(nextPrime(s.lbr), s.lbr);
    }
}

TEST(Periods, LbrPeriodSmallerThanEbs)
{
    // LBR samples on taken branches, which are rarer than retirements.
    for (RuntimeClass cls : {RuntimeClass::Seconds,
                             RuntimeClass::MinutesFew,
                             RuntimeClass::MinutesMany}) {
        SamplingPeriods s = paperPeriods(cls);
        EXPECT_LT(s.lbr, s.ebs);
    }
}

TEST(Periods, RuntimeClassification)
{
    EXPECT_EQ(classifyRuntime(5), RuntimeClass::Seconds);
    EXPECT_EQ(classifyRuntime(59.9), RuntimeClass::Seconds);
    EXPECT_EQ(classifyRuntime(90), RuntimeClass::MinutesFew);
    EXPECT_EQ(classifyRuntime(600), RuntimeClass::MinutesMany);
}

TEST(Periods, NextPrime)
{
    EXPECT_EQ(nextPrime(0), 2u);
    EXPECT_EQ(nextPrime(2), 2u);
    EXPECT_EQ(nextPrime(3), 3u);
    EXPECT_EQ(nextPrime(4), 5u);
    EXPECT_EQ(nextPrime(90), 97u);
    EXPECT_EQ(nextPrime(1000), 1009u);
    EXPECT_EQ(nextPrime(100'000'000), 100'000'007u);
}

TEST(Periods, ScaledPeriodsArePrimeAndFloored)
{
    SamplingPeriods s =
        scaledPeriods(RuntimeClass::MinutesMany, 100'000);
    EXPECT_EQ(s.ebs, 1009u);
    EXPECT_EQ(s.lbr, 101u);
    // Huge scale clamps to the floors.
    SamplingPeriods t =
        scaledPeriods(RuntimeClass::Seconds, 1'000'000'000);
    EXPECT_EQ(t.ebs, 997u);
    EXPECT_EQ(t.lbr, 97u);
}

TEST(Profile, SaveLoadRoundTrip)
{
    ProfileData pd;
    pd.sim_periods = {1009, 101};
    pd.paper_periods = {100'000'007, 10'000'019};
    pd.runtime_class = RuntimeClass::MinutesMany;
    pd.features = {123456, 100000, 9000, 15000, 777};
    pd.pmi_count = 42;
    pd.mmaps.push_back({"a.bin", 0x400000, 0x1000, false});
    pd.mmaps.push_back({"k.ko", 0xffffffff81000000ULL, 0x2000, true});
    pd.ebs.push_back({0x400123, 999, Ring::User});
    pd.ebs.push_back({0xffffffff81000010ULL, 1999, Ring::Kernel});
    LbrStackSample stack;
    stack.entries = {{0x400100, 0x400200}, {0x400210, 0x400300}};
    stack.cycle = 5000;
    stack.ring = Ring::User;
    stack.eventing_ip = 0x400208;
    pd.lbr.push_back(stack);

    std::string path = ::testing::TempDir() + "/profile_roundtrip.hbbp";
    pd.save(path);
    ProfileData loaded = ProfileData::load(path);

    EXPECT_EQ(loaded.sim_periods.ebs, pd.sim_periods.ebs);
    EXPECT_EQ(loaded.sim_periods.lbr, pd.sim_periods.lbr);
    EXPECT_EQ(loaded.paper_periods.ebs, pd.paper_periods.ebs);
    EXPECT_EQ(loaded.runtime_class, pd.runtime_class);
    EXPECT_EQ(loaded.features.cycles, pd.features.cycles);
    EXPECT_EQ(loaded.features.simd_instructions,
              pd.features.simd_instructions);
    EXPECT_EQ(loaded.pmi_count, 42u);
    ASSERT_EQ(loaded.mmaps.size(), 2u);
    EXPECT_EQ(loaded.mmaps[1], pd.mmaps[1]);
    ASSERT_EQ(loaded.ebs.size(), 2u);
    EXPECT_EQ(loaded.ebs[1].ip, pd.ebs[1].ip);
    EXPECT_EQ(loaded.ebs[1].ring, Ring::Kernel);
    ASSERT_EQ(loaded.lbr.size(), 1u);
    EXPECT_EQ(loaded.lbr[0].entries, stack.entries);
    EXPECT_EQ(loaded.lbr[0].eventing_ip, stack.eventing_ip);
    std::remove(path.c_str());
}

TEST(ProfileDeath, LoadRejectsGarbage)
{
    std::string path = ::testing::TempDir() + "/garbage.hbbp";
    FILE *f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("not a profile at all", f);
    fclose(f);
    EXPECT_EXIT(ProfileData::load(path), ::testing::ExitedWithCode(1),
                "not an HBBP profile");
    std::remove(path.c_str());

    // A directory opens like a file but has no bytes to read: a
    // diagnostic, not an allocation the size of its bogus length.
    std::string dir = ::testing::TempDir();
    std::string why;
    EXPECT_FALSE(ProfileData::tryLoad(dir, &why).has_value());
    EXPECT_NE(why.find("not a regular file"), std::string::npos) << why;
    EXPECT_EXIT(ProfileData::load(dir), ::testing::ExitedWithCode(1),
                "not a regular file");
}

namespace profiledeath {

/** A small but fully populated profile saved to @p path. */
void
saveSampleProfile(const std::string &path)
{
    ProfileData pd;
    pd.sim_periods = {1009, 101};
    pd.paper_periods = {100'000'007, 10'000'019};
    pd.runtime_class = RuntimeClass::MinutesMany;
    pd.pmi_count = 3;
    pd.mmaps.push_back({"a.bin", 0x400000, 0x1000, false});
    pd.ebs.push_back({0x400123, 999, Ring::User});
    LbrStackSample stack;
    stack.entries = {{0x400100, 0x400200}};
    stack.eventing_ip = 0x400208;
    pd.lbr.push_back(stack);
    pd.save(path);
}

/** The file's byte size. */
long
fileSize(const std::string &path)
{
    FILE *f = fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    fclose(f);
    return size;
}

/** Rewrite @p path as its first @p keep bytes. */
void
truncateFile(const std::string &path, long keep)
{
    FILE *f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string bytes(static_cast<size_t>(keep), '\0');
    ASSERT_EQ(fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    fclose(f);
    f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(bytes.data(), 1, bytes.size(), f);
    fclose(f);
}

// The profile header: magic u64, version u32, payload length u64,
// payload checksum u64.
constexpr size_t kHeaderBytes = 8 + 4 + 8 + 8;

/** Bytes of the payload's fixed fields: periods, class, features, PMIs. */
constexpr size_t kFixedFieldBytes = 4 * 8 + 1 + 5 * 8 + 8;

/**
 * Restamp the header's payload length and checksum of profile @p bytes
 * after an edit (with the shipped fnv1a — the wire contract has
 * exactly one implementation), so the deeper validation layers (count
 * plausibility, enum ranges, canonical form) are reached instead of
 * the header checks tripping first.
 */
void
restampHeader(std::string &bytes)
{
    uint64_t len = bytes.size() - kHeaderBytes;
    uint64_t h = fnv1a(bytes.data() + kHeaderBytes, len);
    std::memcpy(bytes.data() + 12, &len, sizeof(len));
    std::memcpy(bytes.data() + 20, &h, sizeof(h));
}

/** Apply @p edit to the payload of the profile at @p path. */
template <typename Edit>
void
editPayload(const std::string &path, Edit edit)
{
    std::string bytes = testutil::readFile(path);
    ASSERT_GE(bytes.size(), kHeaderBytes);
    std::string payload = bytes.substr(kHeaderBytes);
    edit(payload);
    bytes = bytes.substr(0, kHeaderBytes) + payload;
    restampHeader(bytes);
    testutil::writeFile(path, bytes);
}

} // namespace profiledeath

TEST(ProfileDeath, LoadRejectsTruncationAtEveryPrefixLength)
{
    // A valid profile truncated anywhere must die with a clean
    // diagnostic, never read garbage. Sweep a prefix grid that covers
    // the header, the counts and mid-record cuts.
    std::string path = ::testing::TempDir() + "/truncated.hbbp";
    profiledeath::saveSampleProfile(path);
    long size = profiledeath::fileSize(path);
    ASSERT_GT(size, 40);
    for (long keep : {4L, 11L, 40L, size / 2, size - 9, size - 1}) {
        profiledeath::saveSampleProfile(path);
        profiledeath::truncateFile(path, keep);
        EXPECT_EXIT(ProfileData::load(path),
                    ::testing::ExitedWithCode(1),
                    "short read|corrupt profile")
            << "prefix of " << keep << " bytes";
    }
    std::remove(path.c_str());
}

TEST(ProfileDeath, LoadRejectsTrailingGarbage)
{
    std::string path = ::testing::TempDir() + "/trailing.hbbp";
    profiledeath::saveSampleProfile(path);
    FILE *f = fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    fputs("extra", f);
    fclose(f);
    EXPECT_EXIT(ProfileData::load(path), ::testing::ExitedWithCode(1),
                "trailing garbage");
    std::remove(path.c_str());
}

TEST(ProfileDeath, LoadRejectsImplausibleSampleCount)
{
    // Corrupt the EBS sample count to claim ~1e18 records: load must
    // fail the plausibility check instead of reserving petabytes. This
    // profile has no modules and no samples, so the count is the
    // one-byte varint after the 4-byte module-map count and the two
    // empty table counts.
    std::string path = ::testing::TempDir() + "/huge_count.hbbp";
    ProfileData pd;
    pd.sim_periods = {1009, 101};
    pd.paper_periods = {100'000'007, 10'000'019};
    pd.save(path);
    const size_t ebs_count_offset = profiledeath::kFixedFieldBytes + 4 + 2;
    profiledeath::editPayload(path, [&](std::string &payload) {
        ASSERT_EQ(payload.size(), ebs_count_offset + 2);
        ASSERT_EQ(payload[ebs_count_offset], 0);
        ByteWriter huge;
        huge.varint(1'000'000'000'000'000'000ULL);
        payload.replace(ebs_count_offset, 1, huge.bytes());
    });
    EXPECT_EXIT(ProfileData::load(path), ::testing::ExitedWithCode(1),
                "claims .* EBS sample records");
    std::remove(path.c_str());
}

TEST(ProfileDeath, LoadRejectsInvalidEnumValues)
{
    // The runtime-class byte sits right after the four period words.
    std::string path = ::testing::TempDir() + "/bad_enum.hbbp";
    profiledeath::saveSampleProfile(path);
    profiledeath::editPayload(path, [](std::string &payload) {
        payload[4 * 8] = 0x7f;
    });
    EXPECT_EXIT(ProfileData::load(path), ::testing::ExitedWithCode(1),
                "invalid runtime class value 127");

    // A module's kernel flag is the last byte of its record; version 4
    // spells it 0 or 1, so any other value has no canonical form.
    profiledeath::saveSampleProfile(path);
    const size_t kernel_flag_offset =
        profiledeath::kFixedFieldBytes + 4 + 4 + 5 + 8 + 8;
    profiledeath::editPayload(path, [&](std::string &payload) {
        ASSERT_EQ(payload[kernel_flag_offset], 0);
        payload[kernel_flag_offset] = 2;
    });
    EXPECT_EXIT(ProfileData::load(path), ::testing::ExitedWithCode(1),
                "invalid module kernel flag value 2");
    std::remove(path.c_str());
}

TEST(ProfileDeath, LoadRejectsStaleChecksumWithMigrateHint)
{
    // Payload corruption that the structural checks can't see (an IP
    // byte flip) must still die on the checksum, and the diagnostic
    // must point at the way out.
    std::string path = ::testing::TempDir() + "/stale_checksum.hbbp";
    profiledeath::saveSampleProfile(path);
    long size = profiledeath::fileSize(path);
    FILE *f = fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    fseek(f, size - 5, SEEK_SET);
    fputc(0x5a, f);
    fclose(f);
    EXPECT_EXIT(ProfileData::load(path), ::testing::ExitedWithCode(1),
                "checksum mismatch.*hbbp-tool migrate");
    std::remove(path.c_str());
}

TEST(ProfileDeath, LoadRejectsLegacyVersionWithMigrateHint)
{
    // A version-2 (pre-checksum) profile has a valid header but no
    // checksum field: load must refuse it explicitly, not parse bytes
    // at the wrong offsets, and the error must name the migration.
    std::string path = ::testing::TempDir() + "/legacy_v2.hbbp";
    profiledeath::saveSampleProfile(path);
    testutil::writeFile(path, testutil::encodeProfileV2(
                                  ProfileData::load(path)));
    EXPECT_EXIT(ProfileData::load(path), ::testing::ExitedWithCode(1),
                "version 2.*hbbp-tool migrate");
    std::string why;
    EXPECT_FALSE(ProfileData::tryLoad(path, &why).has_value());
    EXPECT_NE(why.find("hbbp-tool migrate"), std::string::npos) << why;
    std::remove(path.c_str());
}

TEST(ProfileDeath, LoadRejectsFutureVersion)
{
    std::string path = ::testing::TempDir() + "/future_version.hbbp";
    profiledeath::saveSampleProfile(path);
    FILE *f = fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    fseek(f, 8, SEEK_SET);
    uint32_t v = 99;
    fwrite(&v, sizeof(v), 1, f);
    fclose(f);
    EXPECT_EXIT(ProfileData::load(path), ::testing::ExitedWithCode(1),
                "unsupported profile version 99");
    std::remove(path.c_str());
}

namespace profileversions {

/** The format version in a profile file's header. */
uint32_t
fileVersion(const std::string &path)
{
    std::string bytes = testutil::readFile(path);
    uint32_t version = 0;
    if (bytes.size() >= 12)
        std::memcpy(&version, bytes.data() + 8, sizeof(version));
    return version;
}

/** A collected profile: every field and both sample kinds populated. */
ProfileData
collectedProfile()
{
    auto kp = testutil::makeKernelProgram(20'000);
    CollectorConfig cc;
    cc.max_instructions = 200'000;
    return Collector::collect(*kp.program, MachineConfig{}, cc);
}

} // namespace profileversions

TEST(Profile, MigrationLoaderReadsLegacyVersion2)
{
    // loadAnyVersion is `hbbp-tool migrate`'s reader: a version-2
    // profile round-trips to exactly the original data, and re-saving
    // it yields a version-4 file load() accepts again.
    std::string path = ::testing::TempDir() + "/migrate_me.hbbp";
    ProfileData original = profileversions::collectedProfile();
    testutil::writeFile(path, testutil::encodeProfileV2(original));

    uint32_t version = 0;
    ProfileData legacy = ProfileData::loadAnyVersion(path, &version);
    EXPECT_EQ(version, 2u);
    EXPECT_EQ(legacy, original);
    EXPECT_EQ(legacy.payloadChecksum(), original.payloadChecksum());

    legacy.save(path);
    EXPECT_EQ(profileversions::fileVersion(path), 4u);
    EXPECT_EQ(ProfileData::load(path), original);
    EXPECT_EQ(testutil::readFile(path), original.serialize());
    std::remove(path.c_str());
}

TEST(Profile, MigrationLoaderUpgradesVersion3)
{
    std::string path = ::testing::TempDir() + "/migrate_v3.hbbp";
    ProfileData original = profileversions::collectedProfile();
    std::string v3 = testutil::encodeProfileV3(original);
    testutil::writeFile(path, v3);

    uint32_t version = 0;
    ProfileData read = ProfileData::loadAnyVersion(path, &version);
    EXPECT_EQ(version, 3u);
    EXPECT_EQ(read, original);

    read.save(path);
    EXPECT_EQ(profileversions::fileVersion(path), 4u);
    EXPECT_EQ(ProfileData::load(path), original);
    // The dictionary coding is the point of the upgrade.
    EXPECT_LT(testutil::readFile(path).size() * 4, v3.size());
    std::remove(path.c_str());
}

TEST(Profile, LoadReadsVersion3WithoutMigrate)
{
    // Stores, journals and checkpoints from older builds hold version-3
    // bytes: every non-migrating reader accepts them, and reports the
    // checksum those bytes were addressed by.
    std::string path = ::testing::TempDir() + "/read_v3.hbbp";
    ProfileData original = profileversions::collectedProfile();
    uint64_t v3_checksum = 0;
    std::string v3 = testutil::encodeProfileV3(original, &v3_checksum);
    testutil::writeFile(path, v3);

    EXPECT_EQ(ProfileData::load(path), original);
    std::string why;
    uint64_t checksum = 0;
    std::optional<ProfileData> loaded =
        ProfileData::tryLoad(path, &why, &checksum);
    ASSERT_TRUE(loaded.has_value()) << why;
    EXPECT_EQ(*loaded, original);
    EXPECT_EQ(checksum, v3_checksum);

    checksum = 0;
    std::optional<ProfileData> parsed =
        ProfileData::parse(v3, "v3 bytes", &why, &checksum);
    ASSERT_TRUE(parsed.has_value()) << why;
    EXPECT_EQ(*parsed, original);
    EXPECT_EQ(checksum, v3_checksum);
    // Read v3, write v4: a re-serialized profile is version 4.
    EXPECT_NE(parsed->serialize(), v3);
    std::remove(path.c_str());
}

namespace profileversions {

/**
 * The sections after a version-4 payload's module map, hand-encoded:
 * by default one address, one branch, one EBS sample and one
 * single-entry LBR stack, each field overridable to break one rule.
 */
struct Tail
{
    std::vector<uint64_t> addr_deltas{0x1000};
    /** (source delta, zigzag(target - source)) per branch. */
    std::vector<std::pair<uint64_t, uint64_t>> branches{
        {0x2000, zigzag(0x40)}};
    std::vector<uint64_t> ebs_codes{0 << 1};
    std::vector<uint64_t> lbr_ids{0};
    /** Raw bytes of the LBR cycle delta (default: a minimal varint). */
    std::string lbr_cycle_raw;
    uint64_t eventing_code = 0 << 1 | 1;

    std::string
    encode() const
    {
        ByteWriter w;
        w.varint(addr_deltas.size());
        for (uint64_t d : addr_deltas)
            w.varint(d);
        w.varint(branches.size());
        for (const auto &[source, target] : branches) {
            w.varint(source);
            w.varint(target);
        }
        w.varint(ebs_codes.size());
        for (uint64_t code : ebs_codes) {
            w.varint(code);
            w.varint(zigzag(5));
        }
        w.varint(1);
        w.u8(static_cast<uint8_t>(lbr_ids.size()));
        for (uint64_t id : lbr_ids)
            w.varint(id);
        if (lbr_cycle_raw.empty())
            w.varint(zigzag(7));
        else
            w.raw(lbr_cycle_raw.data(), lbr_cycle_raw.size());
        w.varint(eventing_code);
        return w.take();
    }
};

/** A version-4 profile: an empty profile's head followed by @p tail. */
std::string
withTail(const std::string &tail)
{
    ProfileData head;
    head.sim_periods = {1009, 101};
    head.paper_periods = {100'000'007, 10'000'019};
    head.mmaps.push_back({"a.bin", 0x1000, 0x2000, false});
    std::string bytes = head.serialize();
    // No samples: the payload ends in four zero counts (two tables,
    // two sample sections). Swap them for the hand-encoded sections.
    bytes.resize(bytes.size() - 4);
    bytes += tail;
    profiledeath::restampHeader(bytes);
    return bytes;
}

} // namespace profileversions

TEST(Profile, Version4RejectsNonCanonicalEncodings)
{
    using profileversions::Tail;
    using profileversions::withTail;

    // The hand-encoded default is canonical: it parses, and serializes
    // back to exactly the same bytes.
    std::string good = withTail(Tail().encode());
    std::string why;
    std::optional<ProfileData> pd =
        ProfileData::parse(good, "hand-encoded", &why);
    ASSERT_TRUE(pd.has_value()) << why;
    EXPECT_EQ(pd->serialize(), good);
    ASSERT_EQ(pd->lbr.size(), 1u);
    EXPECT_EQ(pd->lbr[0].entries[0], (LbrEntry{0x2000, 0x2040}));
    EXPECT_EQ(pd->lbr[0].ring, Ring::Kernel);

    // Every other spelling of a profile is refused with a diagnostic,
    // never a fatal(): equal profiles must mean equal bytes.
    std::vector<std::pair<Tail, const char *>> cases;
    auto add = [&](const char *expect, auto tweak) {
        Tail t;
        tweak(t);
        cases.emplace_back(t, expect);
    };
    add("duplicate address table entry", [](Tail &t) {
        t.addr_deltas = {0x1000, 0};
        t.ebs_codes = {0 << 1, 1 << 1};
    });
    add("unreferenced address table entry",
        [](Tail &t) { t.addr_deltas = {0x1000, 8}; });
    add("address id 2 out of range",
        [](Tail &t) { t.ebs_codes = {2 << 1}; });
    add("branch table is not ascending", [](Tail &t) {
        t.branches.push_back({0, zigzag(0x20)});
        t.lbr_ids = {0, 1};
    });
    add("duplicate branch table entry", [](Tail &t) {
        t.branches.push_back({0, zigzag(0x40)});
        t.lbr_ids = {0, 1};
    });
    add("unreferenced branch table entry",
        [](Tail &t) { t.branches.push_back({8, zigzag(0x40)}); });
    add("branch id 1 out of range", [](Tail &t) { t.lbr_ids = {1}; });
    add("non-minimal varint",
        [](Tail &t) { t.lbr_cycle_raw = std::string("\x8e\x00", 2); });
    add("varint overflows 64 bits", [](Tail &t) {
        t.lbr_cycle_raw = std::string(9, '\xff') + '\x02';
    });
    for (const auto &[tail, expect] : cases) {
        std::optional<ProfileData> bad =
            ProfileData::parse(withTail(tail.encode()), "tampered", &why);
        EXPECT_FALSE(bad.has_value()) << expect;
        EXPECT_NE(why.find(expect), std::string::npos)
            << "want '" << expect << "', got: " << why;
    }

    std::optional<ProfileData> trailing =
        ProfileData::parse(withTail(Tail().encode() + "x"), "tampered",
                           &why);
    EXPECT_FALSE(trailing.has_value());
    EXPECT_NE(why.find("trailing garbage"), std::string::npos) << why;
}

TEST(Profile, PayloadChecksumIsContentStable)
{
    ProfileData a;
    a.sim_periods = {1009, 101};
    a.paper_periods = {100'000'007, 10'000'019};
    a.ebs.push_back({0x400123, 999, Ring::User});
    ProfileData b = a;
    EXPECT_EQ(a.payloadChecksum(), b.payloadChecksum());
    b.ebs[0].ip++;
    EXPECT_NE(a.payloadChecksum(), b.payloadChecksum());

    // Stable across a save/load round trip, and the checksum a load
    // reports from the file's bytes agrees.
    std::string path = ::testing::TempDir() + "/checksum_stable.hbbp";
    a.save(path);
    EXPECT_EQ(ProfileData::load(path).payloadChecksum(),
              a.payloadChecksum());
    std::string why;
    uint64_t checksum = 0;
    ASSERT_TRUE(ProfileData::tryLoad(path, &why, &checksum).has_value())
        << why;
    EXPECT_EQ(checksum, a.payloadChecksum());
    std::remove(path.c_str());
}

TEST(Collector, ProducesBothSampleKindsAndMmaps)
{
    auto kp = testutil::makeKernelProgram(300'000);
    Workload w;
    w.name = "kp";
    w.program = kp.program;
    w.runtime_class = RuntimeClass::Seconds;
    w.max_instructions = 2'000'000;

    CollectorConfig cc;
    cc.runtime_class = w.runtime_class;
    cc.max_instructions = w.max_instructions;
    ProfileData pd = Collector::collect(*w.program, MachineConfig{}, cc);

    EXPECT_GT(pd.ebs.size(), 100u);
    EXPECT_GT(pd.lbr.size(), 100u);
    EXPECT_EQ(pd.mmaps.size(), 2u);
    EXPECT_TRUE(pd.mmaps[1].kernel);
    EXPECT_EQ(pd.paper_periods.ebs,
              paperPeriods(RuntimeClass::Seconds).ebs);
    EXPECT_GT(pd.features.cycles, 0u);
    EXPECT_GE(pd.features.instructions, w.max_instructions);
    EXPECT_EQ(pd.pmi_count, pd.ebs.size() + pd.lbr.size());
}

TEST(Collector, SimdFeatureCountsVectorInstructions)
{
    Workload w = makeFitter(FitterVariant::Sse);
    w.max_instructions = 500'000;
    CollectorConfig cc;
    cc.runtime_class = w.runtime_class;
    cc.max_instructions = w.max_instructions;
    cc.seed = w.exec_seed;
    ProfileData pd = Collector::collect(*w.program, MachineConfig{}, cc);
    // The SSE fitter is vector-dominated.
    EXPECT_GT(pd.features.simd_instructions,
              pd.features.instructions / 4);
}

TEST(Collector, RuntimeClassSelectsPeriods)
{
    auto lp = testutil::makeLoopProgram(100'000);
    CollectorConfig cc;
    cc.runtime_class = RuntimeClass::MinutesMany;
    cc.max_instructions = 100'000;
    ProfileData pd = Collector::collect(*lp.program, MachineConfig{}, cc);
    EXPECT_EQ(pd.sim_periods.ebs,
              scaledPeriods(RuntimeClass::MinutesMany,
                            cc.period_scale).ebs);
}

} // namespace
} // namespace hbbp
