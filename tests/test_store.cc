/**
 * @file
 * Tests for the profile store's v2 embedded-database layer: the
 * append-only index (persistence, torn-tail recovery, rebuild,
 * membership answered without a directory scan), the
 * cross-process flock discipline (multi-process depositor + gc
 * stress), the StorePin refcount GC (including survival across a
 * SIGKILL'd owner), the lookup-heal grace window, and the
 * mmap-vs-read byte identity of MappedBytes.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "collect/profile.hh"
#include "fleet/store.hh"
#include "support/bytes.hh"
#include "support/telemetry.hh"

namespace fs = std::filesystem;

namespace hbbp {
namespace {

std::string
freshStoreDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "/hbbp_storev2_" + tag;
    fs::remove_all(dir);
    return dir;
}

/** A small but real profile whose serialized bytes vary with @p tag. */
ProfileData
taggedProfile(uint64_t tag)
{
    ProfileData pd;
    pd.sim_periods = {1009, 101};
    pd.paper_periods = {100'000'007, 10'000'019};
    pd.runtime_class = RuntimeClass::MinutesMany;
    pd.features = {1000 + tag, 2000 + tag, 30 + tag, 40 + tag, 5 + tag};
    pd.pmi_count = 10 + tag;
    pd.mmaps.push_back({"app.bin", 0x400000, 0x1000, false});
    pd.ebs.push_back({0x400000 + tag, tag, Ring::User});
    return pd;
}

CollectorConfig
keyConfig(uint64_t seed)
{
    CollectorConfig cc;
    cc.seed = seed;
    return cc;
}

// ---------------------------------------------------------------------------
// Index persistence and recovery.
// ---------------------------------------------------------------------------

TEST(StoreIndex, PersistsAcrossReopen)
{
    std::string dir = freshStoreDir("reopen");
    ProfileData pd = taggedProfile(1);
    uint64_t checksum = pd.payloadChecksum();
    ProfileKey key{"wl", keyConfig(7), 1, MachineConfig{}};
    {
        ProfileStore store(dir);
        store.insert(key, pd);
        EXPECT_TRUE(store.insertByChecksum(checksum, pd));
        EXPECT_FALSE(store.insertByChecksum(checksum, pd))
            << "re-deposit of a present checksum must dedup";
        EXPECT_EQ(store.entryCount(), 2u);
    }
    // A second open loads the index file; to prove the answers come
    // from the index (not a directory scan), feed it an index that
    // disagrees with the directory: move the directory aside, keep
    // the index... simpler and honest: reopen and compare, then
    // verify() cross-checks index against directory.
    ProfileStore store(dir);
    EXPECT_TRUE(store.contains(key));
    EXPECT_TRUE(store.containsChecksum(checksum));
    EXPECT_EQ(store.entryCount(), 2u);
    ProfileStore::VerifyResult v = store.verify();
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(v.checked, 2u);
}

TEST(StoreIndex, TornTailIsRecovered)
{
    std::string dir = freshStoreDir("torntail");
    ProfileData pd = taggedProfile(2);
    uint64_t checksum = pd.payloadChecksum();
    {
        ProfileStore store(dir);
        store.insertByChecksum(checksum, pd);
    }
    // A depositor died mid-append: garbage (and a half-record) on the
    // index tail. Open must recover the clean prefix — here by
    // rebuilding from the directory, which is authoritative.
    {
        std::ofstream f(dir + "/store.idx",
                        std::ios::binary | std::ios::app);
        f << "torn garbage that is not a framed record";
    }
    ProfileStore store(dir);
    EXPECT_TRUE(store.containsChecksum(checksum));
    EXPECT_EQ(store.entryCount(), 1u);
    EXPECT_TRUE(store.verify().ok());
}

TEST(StoreIndex, CorruptIndexIsRebuiltFromDirectory)
{
    std::string dir = freshStoreDir("corrupt");
    ProfileData pd = taggedProfile(3);
    uint64_t checksum = pd.payloadChecksum();
    {
        ProfileStore store(dir);
        store.insertByChecksum(checksum, pd);
    }
    // Flip a byte in the middle of the index: the record checksum
    // fails and open falls back to the directory.
    {
        std::fstream f(dir + "/store.idx",
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(40);
        f.put('\xff');
    }
    ProfileStore store(dir);
    EXPECT_TRUE(store.containsChecksum(checksum));
    EXPECT_EQ(store.entryCount(), 1u);
}

TEST(StoreIndex, MissingIndexIsRebuiltAndRebuildIndexAdoptsStrays)
{
    std::string dir = freshStoreDir("rebuild");
    ProfileData pd = taggedProfile(4);
    uint64_t checksum = pd.payloadChecksum();
    {
        ProfileStore store(dir);
        store.insertByChecksum(checksum, pd);
    }
    fs::remove(dir + "/store.idx");
    ProfileStore store(dir);
    EXPECT_TRUE(store.containsChecksum(checksum));

    // An out-of-band deposit (a file placed directly in the dir) is
    // invisible to the index until an explicit rebuild adopts it.
    ProfileData stray = taggedProfile(5);
    uint64_t stray_checksum = stray.payloadChecksum();
    stray.saveAtomically(store.pathForChecksum(stray_checksum));
    EXPECT_EQ(store.verify().stray_files, 1u);
    EXPECT_EQ(store.rebuildIndex(), 2u);
    EXPECT_TRUE(store.containsChecksum(stray_checksum));
    EXPECT_TRUE(store.verify().ok());
}

TEST(StoreIndex, CrossProcessDepositIsVisibleWithoutReopen)
{
    std::string dir = freshStoreDir("crossproc_visible");
    ProfileStore a(dir);
    ProfileStore b(dir); // A second "process" (own index fd + maps).
    ProfileData pd = taggedProfile(6);
    uint64_t checksum = pd.payloadChecksum();
    EXPECT_FALSE(a.containsChecksum(checksum));
    EXPECT_TRUE(b.insertByChecksum(checksum, pd));
    // a's in-memory map is stale; the miss path must refresh from the
    // shared index tail and see b's deposit.
    EXPECT_TRUE(a.containsChecksum(checksum));
    EXPECT_EQ(a.entryCount(), 1u);
}

TEST(StoreIndex, MembershipNeverEnumeratesTheDirectory)
{
    std::string dir = freshStoreDir("membership");
    constexpr uint64_t kEntries = 2'000;
    {
        ProfileStore store(dir);
        for (uint64_t i = 0; i < kEntries; i++) {
            ProfileData pd = taggedProfile(10'000 + i);
            ASSERT_TRUE(store.insertByChecksum(pd.payloadChecksum(), pd));
        }
    }
    ProfileStore store(dir);
    // With every entry file unlinked behind the open handle, an answer
    // read from the directory would find nothing.
    std::vector<fs::path> entries;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".hbbp")
            entries.push_back(e.path());
    ASSERT_EQ(entries.size(), kEntries);
    for (const fs::path &p : entries)
        fs::remove(p);

    telemetry::Counter &hits =
        telemetry::counter("hbbp_store_index_hits_total");
    telemetry::Counter &rebuilds =
        telemetry::counter("hbbp_store_index_rebuilds_total");
    uint64_t hits_before = hits.value();
    uint64_t rebuilds_before = rebuilds.value();
    uint64_t found = 0;
    for (uint64_t i = 0; i < 2 * kEntries; i++)
        found += store.containsChecksum(
            taggedProfile(10'000 + i).payloadChecksum());
    EXPECT_EQ(found, kEntries);
    EXPECT_EQ(hits.value() - hits_before, kEntries);
    EXPECT_EQ(rebuilds.value(), rebuilds_before);
}

// ---------------------------------------------------------------------------
// Pinned refcount GC.
// ---------------------------------------------------------------------------

/** Push a store file's mtime @p seconds into the past. */
void
ageFile(const std::string &path, int64_t seconds)
{
    fs::last_write_time(path, fs::file_time_type::clock::now() -
                                  std::chrono::seconds(seconds));
}

TEST(StorePinGc, PinnedEntrySurvivesGcUntilReleased)
{
    std::string dir = freshStoreDir("pin_gc");
    ProfileStore store(dir);
    ProfileData pd = taggedProfile(7);
    uint64_t checksum = pd.payloadChecksum();

    StorePin pin(store, "agg-test");
    pin.pin(checksum);
    store.insertByChecksum(checksum, pd);
    ageFile(store.pathForChecksum(checksum), 1000);

    ProfileStore::GcResult res = store.gc({/*max_age_s=*/10, -1});
    EXPECT_EQ(res.evicted, 0u);
    EXPECT_EQ(res.pinned_skipped, 1u);
    EXPECT_TRUE(store.containsChecksum(checksum));

    pin.release();
    res = store.gc({/*max_age_s=*/10, -1});
    EXPECT_EQ(res.evicted, 1u);
    EXPECT_EQ(res.pinned_skipped, 0u);
    EXPECT_FALSE(store.containsChecksum(checksum));
}

TEST(StorePinGc, PinProtectsAgainstSizeBoundToo)
{
    std::string dir = freshStoreDir("pin_size");
    ProfileStore store(dir);
    ProfileData pinned_pd = taggedProfile(8);
    uint64_t pinned_checksum = pinned_pd.payloadChecksum();
    store.insertByChecksum(pinned_checksum, pinned_pd);
    ageFile(store.pathForChecksum(pinned_checksum), 5000);
    ProfileData other = taggedProfile(9);
    store.insertByChecksum(other.payloadChecksum(), other);
    ageFile(store.pathForChecksum(other.payloadChecksum()), 4000);

    StorePin pin(store, "agg-size");
    pin.pin(pinned_checksum);
    // max_bytes=0 demands everything go; only the unpinned entry may.
    ProfileStore::GcResult res = store.gc({-1, /*max_bytes=*/0});
    EXPECT_EQ(res.evicted, 1u);
    EXPECT_EQ(res.pinned_skipped, 1u);
    EXPECT_TRUE(store.containsChecksum(pinned_checksum));
    EXPECT_FALSE(store.containsChecksum(other.payloadChecksum()));
    pin.release();
}

TEST(StorePinGc, PinSurvivesSigkillOfOwner)
{
    std::string dir = freshStoreDir("pin_crash");
    ProfileStore store(dir);
    ProfileData pd = taggedProfile(10);
    uint64_t checksum = pd.payloadChecksum();
    store.insertByChecksum(checksum, pd);
    ageFile(store.pathForChecksum(checksum), 1000);

    // The pinning aggregator, killed without any cleanup: pin in a
    // child that _exit()s (no destructors, no atexit — the closest
    // portable stand-in for SIGKILL).
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ProfileStore child_store(dir);
        StorePin pin(child_store, "crashy-agg");
        pin.pin(checksum);
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    // The owner is dead; its persisted pin still protects the entry.
    ProfileStore::GcResult res = store.gc({/*max_age_s=*/10, -1});
    EXPECT_EQ(res.evicted, 0u);
    EXPECT_EQ(res.pinned_skipped, 1u);
    EXPECT_TRUE(store.containsChecksum(checksum));

    // A restarted owner inherits the crashed run's pins and can
    // release them once its restored state proves them durable.
    StorePin restarted(store, "crashy-agg");
    EXPECT_EQ(restarted.restored(), 1u);
    restarted.release();
    res = store.gc({/*max_age_s=*/10, -1});
    EXPECT_EQ(res.evicted, 1u);
    EXPECT_FALSE(store.containsChecksum(checksum));
}

// ---------------------------------------------------------------------------
// Multi-process depositor + gc stress.
// ---------------------------------------------------------------------------

TEST(StoreMultiProcess, ConcurrentDepositorsAndGcStayConsistent)
{
    std::string dir = freshStoreDir("stress");
    constexpr int kDepositors = 4;
    constexpr uint64_t kPerChild = 24;
    {
        ProfileStore parent_store(dir); // Create the store up front.
    }

    std::vector<pid_t> children;
    for (int c = 0; c < kDepositors; c++) {
        pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Each depositor process opens its own store handle and
            // writes a disjoint range of distinct entries, re-opening
            // nothing and coordinating only through the flock.
            ProfileStore store(dir);
            for (uint64_t i = 0; i < kPerChild; i++) {
                ProfileData pd = taggedProfile(
                    1000 + static_cast<uint64_t>(c) * kPerChild + i);
                store.insertByChecksum(pd.payloadChecksum(), pd);
            }
            ::_exit(0);
        }
        children.push_back(pid);
    }
    // The parent runs gc passes concurrently with the depositors —
    // age-bounded with a huge cutoff, so nothing qualifies, but every
    // pass excercises the exclusive-lock reconcile against live
    // appends.
    ProfileStore store(dir);
    for (int pass = 0; pass < 5; pass++) {
        ProfileStore::GcResult res = store.gc({/*max_age_s=*/3600, -1});
        EXPECT_EQ(res.evicted, 0u);
    }
    for (pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "depositor child died";
    }

    // Afterwards: index and directory must agree exactly, and every
    // deposit must be present.
    size_t files = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".hbbp")
            files++;
    EXPECT_EQ(files, static_cast<size_t>(kDepositors) * kPerChild);
    EXPECT_EQ(store.entryCount(), files);
    for (int c = 0; c < kDepositors; c++)
        for (uint64_t i = 0; i < kPerChild; i++) {
            ProfileData pd = taggedProfile(
                1000 + static_cast<uint64_t>(c) * kPerChild + i);
            EXPECT_TRUE(store.containsChecksum(pd.payloadChecksum()));
        }
    ProfileStore::VerifyResult v = store.verify();
    EXPECT_TRUE(v.ok()) << "missing=" << v.missing_files
                        << " stray=" << v.stray_files
                        << " mismatch=" << v.checksum_mismatches;
}

// ---------------------------------------------------------------------------
// Heal grace window (the lookup-vs-depositor race).
// ---------------------------------------------------------------------------

TEST(StoreHeal, YoungStaleEntryIsNotUnlinked)
{
    // Regression: lookup()'s unlink-on-unreadable heal used to race a
    // concurrent depositor — a reader that loaded stale bytes would
    // unlink the *fresh* re-insert that had just replaced them. A
    // young entry must now survive the heal.
    std::string dir = freshStoreDir("heal_young");
    ProfileStore store(dir); // Default grace: 60 s.
    ProfileKey key{"wl", keyConfig(1), 1, MachineConfig{}};
    {
        std::ofstream f(store.pathFor(key), std::ios::binary);
        f << "HBBPPROFxxxx not a real profile";
    }
    store.rebuildIndex();
    EXPECT_EQ(store.lookup(key), std::nullopt) << "stale = miss";
    EXPECT_TRUE(fs::exists(store.pathFor(key)))
        << "a young entry (a racing depositor's fresh re-insert) "
           "must not be unlinked";
}

TEST(StoreHeal, OldStaleEntryIsUnlinked)
{
    std::string dir = freshStoreDir("heal_old");
    ProfileStore store(dir);
    ProfileKey key{"wl", keyConfig(2), 1, MachineConfig{}};
    {
        std::ofstream f(store.pathFor(key), std::ios::binary);
        f << "HBBPPROFxxxx not a real profile";
    }
    store.rebuildIndex();
    ageFile(store.pathFor(key), 3600); // Well past the grace window.
    EXPECT_EQ(store.lookup(key), std::nullopt);
    EXPECT_FALSE(fs::exists(store.pathFor(key)))
        << "an old stale entry leaks forever if the heal skips it";
    EXPECT_EQ(store.entryCount(), 0u) << "the heal must fix the index";
}

// ---------------------------------------------------------------------------
// MappedBytes: mmap and plain reads are interchangeable.
// ---------------------------------------------------------------------------

TEST(MappedBytesStore, MapAndReadSeeIdenticalBytes)
{
    std::string dir = freshStoreDir("mmap");
    fs::create_directories(dir);
    // Large enough that Mode::Auto maps it.
    std::string big(3 * MappedBytes::kMapThresholdBytes, '\0');
    for (size_t i = 0; i < big.size(); i++)
        big[i] = static_cast<char>((i * 131) & 0xff);
    std::string path = dir + "/big.bin";
    writeFileAtomically(path, big);

    MappedBytes mapped, plain;
    std::string why;
    ASSERT_TRUE(mapped.open(path, &why, MappedBytes::Mode::Map)) << why;
    ASSERT_TRUE(plain.open(path, &why, MappedBytes::Mode::Read)) << why;
    EXPECT_TRUE(mapped.mapped());
    EXPECT_FALSE(plain.mapped());
    ASSERT_EQ(mapped.view().size(), big.size());
    EXPECT_TRUE(mapped.view() == plain.view());
    EXPECT_TRUE(mapped.view() == std::string_view(big));

    // Auto mode maps above the threshold and reads below it.
    MappedBytes auto_big;
    ASSERT_TRUE(auto_big.open(path, &why)) << why;
    EXPECT_TRUE(auto_big.mapped());
    std::string small_path = dir + "/small.bin";
    writeFileAtomically(small_path, "tiny");
    MappedBytes auto_small;
    ASSERT_TRUE(auto_small.open(small_path, &why)) << why;
    EXPECT_FALSE(auto_small.mapped());
    EXPECT_TRUE(auto_small.view() == std::string_view("tiny"));
}

TEST(MappedBytesStore, StoreProfilesLoadIdenticallyViaBothPaths)
{
    std::string dir = freshStoreDir("mmap_profile");
    ProfileStore store(dir);
    // A profile big enough to cross the mmap threshold.
    ProfileData pd = taggedProfile(11);
    for (uint64_t i = 0; i < 20'000; i++)
        pd.ebs.push_back({0x400000 + i, i, Ring::User});
    uint64_t checksum = pd.payloadChecksum();
    store.insertByChecksum(checksum, pd);
    std::string path = store.pathForChecksum(checksum);

    MappedBytes mapped, plain;
    std::string why;
    ASSERT_TRUE(mapped.open(path, &why, MappedBytes::Mode::Map)) << why;
    ASSERT_TRUE(plain.open(path, &why, MappedBytes::Mode::Read)) << why;
    EXPECT_TRUE(mapped.mapped());
    EXPECT_TRUE(mapped.view() == plain.view());

    // And the parse (which rides MappedBytes in Auto mode) agrees.
    EXPECT_EQ(ProfileData::load(path), pd);
}

} // namespace
} // namespace hbbp
