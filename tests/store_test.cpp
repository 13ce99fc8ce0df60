// fetcam::store contract tests: the crash-safety and corruption matrix.
//
// The store's one guarantee: it never serves wrong bytes. A torn tail (crash
// mid-append) salvages the valid prefix; anything invalid *inside* the
// prefix — flipped CRC byte, wrong magic, version drift — surfaces as a
// typed SimError(CorruptData) (read-only) or a quarantine-and-start-fresh
// (read-write). The serve cache on top degrades to memory-only — cold is
// always correct — and warm restarts are bit-identical to cold runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "array/bank.hpp"
#include "recover/sim_error.hpp"
#include "serve/char_cache.hpp"
#include "store/char_store.hpp"
#include "store/format.hpp"
#include "store/record_log.hpp"

using namespace fetcam;
using recover::SimError;
using recover::SimErrorReason;
namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kSchema = 7;

class StoreTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path() /
                (std::string("fetcam_store_test_") + info->name()))
                   .string();
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    store::StoreConfig cfg(bool readOnly = false, std::uint32_t schema = kSchema) {
        store::StoreConfig c;
        c.dir = dir_;
        c.readOnly = readOnly;
        c.schemaVersion = schema;
        return c;
    }

    std::string logPath() const {
        return (fs::path(dir_) / store::CharStore::kLogName).string();
    }

    /// Create the store and persist `records` durably.
    void writeStore(const std::vector<store::Record>& records) {
        store::CharStore s(cfg());
        EXPECT_TRUE(s.load().empty());
        for (const auto& r : records) s.append(r.key, r.payload);
        s.flush();
    }

    std::string readFile() const {
        std::ifstream in(logPath(), std::ios::binary);
        EXPECT_TRUE(in.good());
        return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    }

    void writeFile(const std::string& bytes) const {
        std::ofstream out(logPath(), std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    std::string dir_;
};

const std::vector<store::Record> kRecords = {
    {"alpha", "payload-one"},
    {"beta", std::string("\x00\x01\x7f\xff", 4)},  // binary-safe
    {"gamma", ""},                                 // empty payload is legal
};

}  // namespace

TEST(StoreFormat, Crc32MatchesKnownVectorAndChains) {
    // IEEE 802.3 check value.
    EXPECT_EQ(store::crc32("123456789", 9), 0xCBF43926u);
    // Seed chaining must equal the one-shot CRC of the concatenation.
    const std::uint32_t part = store::crc32("12345", 5);
    EXPECT_EQ(store::crc32("6789", 4, part), 0xCBF43926u);
}

TEST(StoreFormat, HeaderAndRecordSizes) {
    EXPECT_EQ(store::encodeFileHeader(kSchema).size(), store::kFileHeaderSize);
    EXPECT_EQ(store::encodeRecord("key", "value").size(),
              store::kRecordHeaderSize + 3 + 5);
}

TEST_F(StoreTest, RoundTripPreservesOrderAndBytes) {
    writeStore(kRecords);

    store::CharStore s(cfg());
    const auto loaded = s.load();
    EXPECT_EQ(loaded, kRecords);
    EXPECT_EQ(s.loadStats().recordsLoaded, 3);
    EXPECT_EQ(s.loadStats().recordsSalvaged, 0);
    EXPECT_FALSE(s.loadStats().truncatedTail);
    EXPECT_FALSE(s.loadStats().startedFresh);
    EXPECT_FALSE(s.loadStats().quarantined);
}

TEST_F(StoreTest, FreshStoreStartsEmptyThenAppends) {
    store::CharStore s(cfg());
    EXPECT_TRUE(s.load().empty());
    EXPECT_TRUE(s.loadStats().startedFresh);
    s.append("k", "v");
    s.flush();
    EXPECT_EQ(s.appendedRecords(), 1);
    EXPECT_GT(s.logBytes(), static_cast<std::int64_t>(store::kFileHeaderSize));
}

TEST_F(StoreTest, LoadTwiceIsRejected) {
    store::CharStore s(cfg());
    (void)s.load();
    EXPECT_THROW((void)s.load(), SimError);
}

TEST_F(StoreTest, TruncatedTailSalvagesPrefixAndReattaches) {
    writeStore(kRecords);
    // Crash mid-append: drop the last 3 bytes, tearing the final frame.
    const std::string bytes = readFile();
    writeFile(bytes.substr(0, bytes.size() - 3));

    {
        store::CharStore s(cfg());
        const auto loaded = s.load();
        ASSERT_EQ(loaded.size(), 2u);
        EXPECT_EQ(loaded[0], kRecords[0]);
        EXPECT_EQ(loaded[1], kRecords[1]);
        EXPECT_TRUE(s.loadStats().truncatedTail);
        EXPECT_EQ(s.loadStats().recordsSalvaged, 2);
        EXPECT_GT(s.loadStats().tailBytesDropped, 0);
        // The writer reattached past the last valid frame: appending works.
        s.append("delta", "recovered");
        s.flush();
    }
    store::CharStore s(cfg());
    const auto loaded = s.load();
    ASSERT_EQ(loaded.size(), 3u);
    EXPECT_EQ(loaded[2], (store::Record{"delta", "recovered"}));
    EXPECT_FALSE(s.loadStats().truncatedTail);
}

TEST_F(StoreTest, TornHeaderStubSalvagesToEmpty) {
    fs::create_directories(dir_);
    writeFile("FCST");  // crash between create and header write

    store::CharStore s(cfg());
    EXPECT_TRUE(s.load().empty());
    EXPECT_TRUE(s.loadStats().truncatedTail);
    s.append("k", "v");
    s.flush();
}

TEST_F(StoreTest, FlippedCrcByteIsCorruptReadOnly) {
    writeStore(kRecords);
    // Flip one byte inside the first record's payload: its CRC must trip.
    std::string bytes = readFile();
    const std::size_t off = store::kFileHeaderSize + store::kRecordHeaderSize +
                            kRecords[0].key.size() + 2;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x40);
    writeFile(bytes);

    store::CharStore s(cfg(/*readOnly=*/true));
    try {
        (void)s.load();
        FAIL() << "corrupt record must not load";
    } catch (const SimError& e) {
        EXPECT_EQ(e.reason(), SimErrorReason::CorruptData);
    }
}

TEST_F(StoreTest, FlippedCrcByteQuarantinesReadWrite) {
    writeStore(kRecords);
    std::string bytes = readFile();
    bytes[bytes.size() - 1] = static_cast<char>(bytes.back() ^ 0x01);
    // Flipping the very last byte corrupts the final record's body CRC
    // without shortening the file — corruption, not a torn tail.
    writeFile(bytes);

    store::CharStore s(cfg());
    EXPECT_TRUE(s.load().empty());
    EXPECT_TRUE(s.loadStats().quarantined);
    EXPECT_TRUE(s.loadStats().startedFresh);
    EXPECT_FALSE(s.loadStats().quarantineReason.empty());
    EXPECT_TRUE(fs::exists(logPath() + store::CharStore::kQuarantineSuffix));
    // The store is usable again, from scratch.
    s.append("fresh", "start");
    s.flush();
    EXPECT_EQ(s.appendedRecords(), 1);
}

TEST_F(StoreTest, WrongFileMagicIsCorrupt) {
    writeStore(kRecords);
    std::string bytes = readFile();
    bytes[0] = 'X';
    writeFile(bytes);

    store::CharStore s(cfg(/*readOnly=*/true));
    try {
        (void)s.load();
        FAIL() << "bad magic must not load";
    } catch (const SimError& e) {
        EXPECT_EQ(e.reason(), SimErrorReason::CorruptData);
    }
}

TEST_F(StoreTest, WrongRecordMagicIsCorrupt) {
    writeStore(kRecords);
    std::string bytes = readFile();
    bytes[store::kFileHeaderSize] = static_cast<char>(bytes[store::kFileHeaderSize] ^ 0xFF);
    writeFile(bytes);

    store::CharStore s(cfg(/*readOnly=*/true));
    EXPECT_THROW((void)s.load(), SimError);
}

TEST_F(StoreTest, SchemaVersionDriftIsCorrupt) {
    writeStore(kRecords);  // written as kSchema

    {
        store::CharStore s(cfg(/*readOnly=*/true, kSchema + 1));
        try {
            (void)s.load();
            FAIL() << "schema drift must not load";
        } catch (const SimError& e) {
            EXPECT_EQ(e.reason(), SimErrorReason::CorruptData);
        }
    }
    // Read-write: drifted log is quarantined, new-schema log starts fresh.
    store::CharStore s(cfg(/*readOnly=*/false, kSchema + 1));
    EXPECT_TRUE(s.load().empty());
    EXPECT_TRUE(s.loadStats().quarantined);
    EXPECT_TRUE(fs::exists(logPath() + store::CharStore::kQuarantineSuffix));
}

TEST_F(StoreTest, ReadOnlyMissingDirServesNothing) {
    store::CharStore s(cfg(/*readOnly=*/true));
    EXPECT_TRUE(s.load().empty());
    EXPECT_TRUE(s.loadStats().startedFresh);
    EXPECT_THROW(s.append("k", "v"), SimError);
    EXPECT_THROW(s.compact({}), SimError);
    EXPECT_FALSE(fs::exists(dir_));  // read-only never creates anything
}

TEST_F(StoreTest, AppendBeforeLoadIsRejected) {
    store::CharStore s(cfg());
    EXPECT_THROW(s.append("k", "v"), SimError);
    EXPECT_THROW(s.compact({}), SimError);
}

#if defined(__unix__) || defined(__APPLE__)
TEST_F(StoreTest, SecondWriterIsRejectedReadersShare) {
    store::CharStore first(cfg());
    (void)first.load();
    try {
        store::CharStore second(cfg());
        FAIL() << "two writers must not share a store";
    } catch (const SimError& e) {
        EXPECT_EQ(e.reason(), SimErrorReason::IoError);
    }
    // Readers are always welcome alongside the writer.
    store::CharStore reader(cfg(/*readOnly=*/true));
    EXPECT_NO_THROW((void)reader.load());
}
#endif

TEST_F(StoreTest, CompactionDedupsAtomically) {
    store::CharStore s(cfg());
    (void)s.load();
    for (int round = 0; round < 3; ++round)
        for (const auto& r : kRecords) s.append(r.key, r.payload);
    s.flush();
    const auto before = s.logBytes();

    s.compact(kRecords);  // caller dedups; the store snapshots
    EXPECT_LT(s.logBytes(), before);
    // Appends keep working on the compacted log.
    s.append("post", "compact");
    s.flush();

    store::CharStore reader(cfg(/*readOnly=*/true));
    auto expected = kRecords;
    expected.push_back({"post", "compact"});
    EXPECT_EQ(reader.load(), expected);
}

// --- serve cache on top of the store -------------------------------------

namespace {

array::ArrayConfig cacheConfig() {
    array::ArrayConfig c;
    c.cell = tcam::CellKind::FeFet2;
    c.sense = array::SenseScheme::LowSwing;
    c.wordBits = 8;
    c.rows = 4;
    return c;
}

}  // namespace

TEST_F(StoreTest, CacheWarmRestartIsBitIdenticalWithZeroSims) {
    const auto tech = device::TechCard::cmos45();
    const auto acfg = cacheConfig();
    const auto plain = evaluateBank(tech, acfg, 10);

    store::StoreConfig scfg;
    scfg.dir = dir_;
    std::int64_t coldMisses = 0;
    {
        serve::CharacterizationCache cold(scfg);
        ASSERT_FALSE(cold.storeStatus().degraded);
        const auto bank = evaluateBank(tech, acfg, 10, {}, {},
                                       recover::FailurePolicy::Strict, cold.provider());
        EXPECT_EQ(bank.perSearch.ml, plain.perSearch.ml);
        EXPECT_EQ(bank.searchDelay, plain.searchDelay);
        coldMisses = cold.stats().misses;
        EXPECT_GT(coldMisses, 0);
        EXPECT_EQ(cold.storeStatus().appended, coldMisses);
    }  // destructor flushes

    serve::CharacterizationCache warm(scfg);
    ASSERT_FALSE(warm.storeStatus().degraded);
    EXPECT_EQ(warm.storeStatus().load.recordsLoaded, coldMisses);
    const auto bank = evaluateBank(tech, acfg, 10, {}, {},
                                   recover::FailurePolicy::Strict, warm.provider());
    // Bit-identical to the never-cached path, with zero solver transients.
    EXPECT_EQ(bank.perSearch.ml, plain.perSearch.ml);
    EXPECT_EQ(bank.perSearch.sl, plain.perSearch.sl);
    EXPECT_EQ(bank.perSearch.sa, plain.perSearch.sa);
    EXPECT_EQ(bank.searchDelay, plain.searchDelay);
    EXPECT_EQ(bank.cycleTime, plain.cycleTime);
    const auto stats = warm.stats();
    EXPECT_EQ(stats.misses, 0);
    EXPECT_GT(stats.storeHits, 0);
}

TEST_F(StoreTest, CacheDegradesToColdOnCorruptStore) {
    // A poisoned log: valid header, garbage body.
    fs::create_directories(dir_);
    writeFile(store::encodeFileHeader(serve::kCharSchemaVersion) +
              "this is not a record frame at all........");

    store::StoreConfig scfg;
    scfg.dir = dir_;
    scfg.readOnly = true;  // read-only: no quarantine rescue, must degrade
    serve::CharacterizationCache cache(scfg);
    EXPECT_TRUE(cache.storeStatus().degraded);
    EXPECT_EQ(cache.storeStatus().errorReason, SimErrorReason::CorruptData);
    EXPECT_FALSE(cache.storeStatus().error.empty());

    // Degraded = memory-only = still bit-identical to the plain path.
    const auto tech = device::TechCard::cmos45();
    const auto acfg = cacheConfig();
    const auto plain = evaluateBank(tech, acfg, 10);
    const auto bank = evaluateBank(tech, acfg, 10, {}, {},
                                   recover::FailurePolicy::Strict, cache.provider());
    EXPECT_EQ(bank.perSearch.ml, plain.perSearch.ml);
    EXPECT_EQ(bank.searchDelay, plain.searchDelay);
    EXPECT_GT(cache.stats().misses, 0);
    EXPECT_EQ(cache.stats().storeHits, 0);
}

TEST_F(StoreTest, CacheRejectsStoreLockedByAnotherWriter) {
#if defined(__unix__) || defined(__APPLE__)
    store::StoreConfig scfg;
    scfg.dir = dir_;
    serve::CharacterizationCache first(scfg);
    ASSERT_FALSE(first.storeStatus().degraded);

    serve::CharacterizationCache second(scfg);
    EXPECT_TRUE(second.storeStatus().degraded);
    EXPECT_EQ(second.storeStatus().errorReason, SimErrorReason::IoError);
#endif
}

TEST(CharPayload, PackUnpackRoundTrip) {
    array::WordSimResult r;
    r.expectedMatch = true;
    r.matchDetected = false;
    r.detectDelay = 1.25e-10;
    r.mlAtSense = 0.41;
    r.mlMin = 0.02;
    r.vPrecharge = 0.8;
    r.energyMl = 1.5e-15;
    r.energySl = 2.5e-15;
    r.energySa = 3.5e-16;
    r.energyStatic = 4.5e-17;
    r.energyTotal = 4.4e-15;

    const auto bytes = serve::packResult(r);
    const auto back = serve::unpackResult(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->expectedMatch, r.expectedMatch);
    EXPECT_EQ(back->matchDetected, r.matchDetected);
    ASSERT_TRUE(back->detectDelay.has_value());
    EXPECT_EQ(*back->detectDelay, *r.detectDelay);  // bitwise
    EXPECT_EQ(back->mlAtSense, r.mlAtSense);
    EXPECT_EQ(back->mlMin, r.mlMin);
    EXPECT_EQ(back->vPrecharge, r.vPrecharge);
    EXPECT_EQ(back->energyMl, r.energyMl);
    EXPECT_EQ(back->energySl, r.energySl);
    EXPECT_EQ(back->energySa, r.energySa);
    EXPECT_EQ(back->energyStatic, r.energyStatic);
    EXPECT_EQ(back->energyTotal, r.energyTotal);

    // No detect delay survives as nullopt, not 0-that-looks-real.
    r.detectDelay.reset();
    const auto back2 = serve::unpackResult(serve::packResult(r));
    ASSERT_TRUE(back2.has_value());
    EXPECT_FALSE(back2->detectDelay.has_value());
}

TEST(CharPayload, UnpackRejectsMalformedBytes) {
    array::WordSimResult r;
    auto bytes = serve::packResult(r);
    EXPECT_FALSE(serve::unpackResult(bytes.substr(1)).has_value());  // short
    EXPECT_FALSE(serve::unpackResult(bytes + "x").has_value());      // long
    bytes[0] = static_cast<char>(0x80);  // reserved flag bits set
    EXPECT_FALSE(serve::unpackResult(bytes).has_value());
}

TEST(CharPayload, WaveformResultsAreNotPersistable) {
    array::WordSimOptions o;
    o.config = cacheConfig();
    o.config.rows = 1;
    o.stored = tcam::TernaryWord(8, tcam::Trit::Zero);
    o.key = tcam::TernaryWord(8, tcam::Trit::Zero);
    o.recordWaveforms = true;
    const auto r = array::simulateWordSearch(o);
    ASSERT_GT(r.waveforms.size(), 0u);
    EXPECT_THROW((void)serve::packResult(r), SimError);
}

TEST(RecordLog, SyncDirectoryIsTypedNeverBestEffort) {
    EXPECT_THROW(store::syncDirectory("/definitely/not/a/real/dir"), SimError);
    try {
        store::syncDirectory("/definitely/not/a/real/dir");
        FAIL() << "expected SimError";
    } catch (const SimError& e) {
        EXPECT_EQ(e.reason(), SimErrorReason::IoError);
    }
    const auto dir = fs::temp_directory_path() / "fetcam_syncdir_test";
    fs::create_directories(dir);
    EXPECT_NO_THROW(store::syncDirectory(dir.string()));
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// StoreHandle: the one fallback-to-memory policy both record logs use. Store
// trouble, at open or later, never escapes as an exception: the handle
// detaches, reports a typed degraded status and turns every write into a
// no-op, and a rejected log is never written.
// ---------------------------------------------------------------------------

namespace {

class StoreHandleTest : public StoreTest {};

}  // namespace

TEST_F(StoreHandleTest, DetachedHandleIsAMemoryOnlyNoop) {
    store::StoreHandle h;
    EXPECT_FALSE(h.status().attached);
    EXPECT_FALSE(h.status().degraded);
    EXPECT_FALSE(h.writable());
    h.append("k", "v");
    h.flush();
    EXPECT_FALSE(h.compact(kRecords));
    EXPECT_EQ(h.status().appended, 0);
    EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(StoreHandleTest, AppliesLoadedRecordsThenAppends) {
    writeStore(kRecords);
    std::vector<store::Record> seen;
    {
        store::StoreHandle h(cfg(), [&](const std::vector<store::Record>& r) { seen = r; });
        ASSERT_TRUE(h.writable());
        EXPECT_TRUE(h.status().attached);
        EXPECT_EQ(h.status().load.recordsLoaded, 3);
        h.append("delta", "four");
        EXPECT_EQ(h.status().appended, 1);
    }  // closing the handle flushes
    ASSERT_EQ(seen.size(), kRecords.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].key, kRecords[i].key);
        EXPECT_EQ(seen[i].payload, kRecords[i].payload);
    }
    store::CharStore reader(cfg(/*readOnly=*/true));
    const auto all = reader.load();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[3].key, "delta");
    EXPECT_EQ(all[3].payload, "four");
}

TEST_F(StoreHandleTest, RejectedApplyDegradesTypedAndNeverWrites) {
    writeStore(kRecords);
    const std::string before = readFile();
    store::StoreHandle h(cfg(), [](const std::vector<store::Record>&) {
        throw SimError(SimErrorReason::CorruptData, "test", "record rejected");
    });
    EXPECT_TRUE(h.status().attached);
    EXPECT_TRUE(h.status().degraded);
    EXPECT_EQ(h.status().errorReason, SimErrorReason::CorruptData);
    EXPECT_NE(h.status().error.find("record rejected"), std::string::npos);
    EXPECT_FALSE(h.writable());
    h.append("k", "v");
    h.flush();
    EXPECT_FALSE(h.compact(kRecords));
    EXPECT_EQ(h.status().appended, 0);
    EXPECT_EQ(readFile(), before);
}

TEST_F(StoreHandleTest, LockedStoreDegradesWithIoErrorBeforeApply) {
    store::CharStore holder(cfg());
    (void)holder.load();
    bool applied = false;
    store::StoreHandle h(cfg(), [&](const std::vector<store::Record>&) { applied = true; });
    EXPECT_TRUE(h.status().degraded);
    EXPECT_EQ(h.status().errorReason, SimErrorReason::IoError);
    EXPECT_FALSE(applied);
}

TEST_F(StoreHandleTest, ReadOnlyHandleLoadsButNeverWrites) {
    writeStore(kRecords);
    const std::string before = readFile();
    std::size_t seen = 0;
    store::StoreHandle h(cfg(/*readOnly=*/true),
                         [&](const std::vector<store::Record>& r) { seen = r.size(); });
    EXPECT_EQ(seen, kRecords.size());
    EXPECT_TRUE(h.status().readOnly);
    EXPECT_FALSE(h.status().degraded);
    EXPECT_FALSE(h.writable());
    h.append("k", "v");
    EXPECT_FALSE(h.compact({}));
    EXPECT_EQ(h.status().appended, 0);
    EXPECT_EQ(readFile(), before);
}

TEST_F(StoreHandleTest, FailedCompactionDegradesInsteadOfThrowing) {
    store::StoreHandle h(cfg(), [](const std::vector<store::Record>&) {});
    ASSERT_TRUE(h.writable());
    // A directory squatting on the snapshot's temporary name makes the
    // compaction fail with a typed IoError.
    fs::create_directory(logPath() + store::CharStore::kCompactSuffix);
    EXPECT_FALSE(h.compact(kRecords));
    EXPECT_TRUE(h.status().degraded);
    EXPECT_EQ(h.status().errorReason, SimErrorReason::IoError);
    EXPECT_FALSE(h.writable());
    h.append("k", "v");
    h.flush();
    EXPECT_EQ(h.status().appended, 0);
}
