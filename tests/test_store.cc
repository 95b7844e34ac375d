/**
 * @file
 * Tests for the profile store as a directory: persistence across
 * reopen, entries written or removed behind an open store seen at
 * once, the cross-process flock discipline (multi-process depositor +
 * gc stress), the StorePin refcount GC (including survival across a
 * SIGKILL'd owner, and a pin file rewritten by swapping it with its
 * spare), and the lookup-heal grace window.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "collect/profile.hh"
#include "fleet/store.hh"

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
// Persistence and out-of-band changes.
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
    // A second open sees both entries, and verify() loads each one.
    ProfileStore store(dir);
    EXPECT_TRUE(store.contains(key));
    EXPECT_TRUE(store.containsChecksum(checksum));
    EXPECT_EQ(store.entryCount(), 2u);
    ProfileStore::VerifyResult v = store.verify();
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(v.checked, 2u);
}

TEST(StoreIndex, CrossProcessDepositIsVisibleWithoutReopen)
{
    std::string dir = freshStoreDir("crossproc_visible");
    ProfileStore a(dir);
    ProfileStore b(dir); // A second "process" (own lock fd).
    ProfileData pd = taggedProfile(6);
    uint64_t checksum = pd.payloadChecksum();
    EXPECT_FALSE(a.containsChecksum(checksum));
    EXPECT_TRUE(b.insertByChecksum(checksum, pd));
    EXPECT_TRUE(a.containsChecksum(checksum));
    EXPECT_EQ(a.entryCount(), 1u);
}

TEST(StoreDirectory, EntriesChangedBehindAnOpenStoreAreSeenAtOnce)
{
    // The directory is the store: a file placed or removed without
    // going through this ProfileStore (another tool, a restore from
    // backup, an operator's rm) is what every answer reports next.
    std::string dir = freshStoreDir("out_of_band");
    ProfileStore store(dir);
    ProfileData pd = taggedProfile(12);
    uint64_t checksum = pd.payloadChecksum();
    EXPECT_EQ(store.entryCount(), 0u);

    pd.saveAtomically(store.pathForChecksum(checksum));
    EXPECT_TRUE(store.containsChecksum(checksum));
    EXPECT_EQ(store.entryCount(), 1u);
    ProfileStore::VerifyResult v = store.verify();
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(v.checked, 1u);

    // A loadable profile under another payload's name is caught too.
    taggedProfile(13).saveAtomically(store.pathForChecksum(checksum));
    EXPECT_EQ(store.verify().checksum_mismatches, 1u);

    fs::remove(store.pathForChecksum(checksum));
    EXPECT_FALSE(store.containsChecksum(checksum));
    EXPECT_EQ(store.entryCount(), 0u);
    v = store.verify();
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(v.checked, 0u);
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

TEST(StorePinGc, PinTrafficSwapsTwoFilesInPlace)
{
    std::string dir = freshStoreDir("pin_swap");
    ProfileStore store(dir);
    ProfileData pd = taggedProfile(11);
    uint64_t checksum = pd.payloadChecksum();
    store.insertByChecksum(checksum, pd);
    ageFile(store.pathForChecksum(checksum), 1000);
    std::string pins = dir + "/pins/swapper.pins";
    std::string spare = pins + ".spare";
    auto inode = [](const std::string &path) {
        struct stat st{};
        return ::stat(path.c_str(), &st) == 0 ? st.st_ino : ino_t(0);
    };
    auto contents = [](const std::string &path) {
        std::string why;
        return readFileBytes(path, &why);
    };
    std::string unpinned = "hbbp-pins v1 owner=swapper\n";
    char line[32];
    std::snprintf(line, sizeof(line), "%016llx\n",
                  static_cast<unsigned long long>(checksum));
    std::string pinned = unpinned + line;

    // Where names cannot be exchanged, each write renames a fresh file
    // over the old one instead: the same bytes, one file per write.
    std::ofstream(dir + "/probe-a") << "a";
    std::ofstream(dir + "/probe-b") << "b";
    if (::renameat2(AT_FDCWD, (dir + "/probe-a").c_str(), AT_FDCWD,
                    (dir + "/probe-b").c_str(), RENAME_EXCHANGE) != 0)
        GTEST_SKIP() << "no renameat2(RENAME_EXCHANGE) on this filesystem";

    StorePin pin(store, "swapper");
    pin.pin(checksum);
    pin.unpin(checksum);
    ASSERT_EQ(contents(pins), unpinned);
    std::set<ino_t> both = {inode(pins), inode(spare)};
    ASSERT_EQ(both.size(), 2u);
    ASSERT_EQ(both.count(0), 0u);
    for (int i = 0; i < 5; i++) {
        pin.pin(checksum);
        EXPECT_EQ(contents(pins), pinned);
        EXPECT_EQ(store.gc({/*max_age_s=*/10, -1}).pinned_skipped, 1u);
        pin.unpin(checksum);
        EXPECT_EQ(contents(pins), unpinned);
        EXPECT_EQ(store.stats().pinned, 0u);
        // The two names trade the same two files: no pin or unpin
        // creates one.
        EXPECT_EQ((std::set<ino_t>{inode(pins), inode(spare)}), both);
    }

    // A torn spare (a crash mid-write) is never read, and the next
    // write replaces all of it.
    std::ofstream(spare, std::ios::binary | std::ios::trunc)
        << std::string(4096, '#');
    EXPECT_EQ(store.stats().pin_owners, 1u);
    EXPECT_EQ(store.stats().pinned, 0u);
    pin.pin(checksum);
    EXPECT_EQ(contents(pins), pinned);
    StorePin restarted(store, "swapper");
    EXPECT_EQ(restarted.restored(), 1u);

    pin.release();
    EXPECT_FALSE(fs::exists(pins));
    EXPECT_FALSE(fs::exists(spare));
    EXPECT_EQ(store.stats().pin_owners, 0u);
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
    // pass takes the exclusive lock and scans against live deposits.
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

    // Afterwards: the store counts exactly the files, and every
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
    EXPECT_TRUE(v.ok()) << "mismatch=" << v.checksum_mismatches;
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
    ageFile(store.pathFor(key), 3600); // Well past the grace window.
    EXPECT_EQ(store.lookup(key), std::nullopt);
    EXPECT_FALSE(fs::exists(store.pathFor(key)))
        << "an old stale entry leaks forever if the heal skips it";
    EXPECT_EQ(store.entryCount(), 0u) << "the heal must remove the entry";
}

} // namespace
} // namespace hbbp
