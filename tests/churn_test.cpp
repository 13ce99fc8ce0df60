// Mutation-under-load contract tests: the RCU-snapshot table, first-free-row
// insert order, write-cost accounting, the churn workload's differential
// bit-identity against a naive oracle, warm restart of a mutated table
// through the entry delta log, and the fixed-size chunk layout (chunk edges,
// answers independent of the priced shard size).
//
// The thread tests are written to be meaningful under TSan (the CI
// thread-sanitize job runs this binary): concurrent searchers race a mutator
// and every observed result must have been valid at some point in the
// mutation order.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "apps/churn.hpp"
#include "numeric/stats.hpp"
#include "recover/sim_error.hpp"
#include "serve/match_backend.hpp"
#include "serve/query_engine.hpp"
#include "sim/similarity.hpp"
#include "store/char_store.hpp"
#include "tcam/write.hpp"
#include "tcam/write_schedule.hpp"

using namespace fetcam;

namespace {

serve::EngineOptions churnOptions(int wordBits, int shardRows, std::int64_t capacity,
                                  serve::MatchBackendKind backend) {
    serve::EngineOptions o;
    o.shard.cell = tcam::CellKind::FeFet2;
    o.shard.sense = array::SenseScheme::LowSwing;
    o.shard.wordBits = wordBits;
    o.shard.rows = shardRows;
    o.capacity = capacity;
    o.backend = backend;
    return o;
}

tcam::TernaryWord definiteWord(std::uint64_t bits, int width) {
    tcam::TernaryWord w(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i)
        w[static_cast<std::size_t>(i)] =
            (bits >> (i % 64)) & 1 ? tcam::Trit::One : tcam::Trit::Zero;
    return w;
}

/// The stop-the-world oracle: a plain vector of optional words, searched by
/// linear scan-from-0. Everything the engine does must be bit-identical to
/// this.
struct NaiveTable {
    std::vector<std::optional<tcam::TernaryWord>> rows;

    explicit NaiveTable(std::int64_t capacity)
        : rows(static_cast<std::size_t>(capacity)) {}

    std::int64_t insert(const tcam::TernaryWord& word) {
        for (std::size_t r = 0; r < rows.size(); ++r)
            if (!rows[r]) {
                rows[r] = word;
                return static_cast<std::int64_t>(r);
            }
        return -1;
    }

    std::int64_t findFirst(const tcam::TernaryWord& key) const {
        for (std::size_t r = 0; r < rows.size(); ++r)
            if (rows[r] && rows[r]->matchesUnchecked(key))
                return static_cast<std::int64_t>(r);
        return -1;
    }
};

}  // namespace

// ---------------------------------------------------------------------------
// Satellite: first-free-row hint must not change insert row assignment.
// ---------------------------------------------------------------------------

TEST(ChurnEngine, InsertRowOrderMatchesNaiveScanFromZero) {
    auto engine = serve::QueryEngine(
        churnOptions(8, 4, 24, serve::MatchBackendKind::BitPlane));
    NaiveTable naive(24);
    numeric::Rng rng(7);

    // A mixed insert/erase sequence: the hint path (scan from freeHint_) must
    // assign exactly the rows a scan-from-0 would, including re-filling holes
    // opened by erases.
    for (int step = 0; step < 200; ++step) {
        if (rng.bernoulli(0.4) && engine.occupancy() > 0) {
            const auto row =
                static_cast<std::int64_t>(rng.uniformInt(0, 23));
            engine.erase(row);
            naive.rows[static_cast<std::size_t>(row)].reset();
        } else if (engine.occupancy() < 24) {
            const auto word = definiteWord(rng.nextU64(), 8);
            const std::int64_t got = engine.insert(word);
            const std::int64_t want = naive.insert(word);
            ASSERT_EQ(got, want) << "insert diverged from scan-from-0 at step " << step;
        }
    }
    for (std::int64_t r = 0; r < 24; ++r) {
        const auto entry = engine.entryAt(r);
        const auto& expect = naive.rows[static_cast<std::size_t>(r)];
        ASSERT_EQ(entry.has_value(), expect.has_value());
        if (entry) {
            EXPECT_TRUE(*entry == *expect);
        }
    }
}

TEST(ChurnEngine, InsertThrowsWhenFullAndEraseReopensTheRow) {
    auto engine =
        serve::QueryEngine(churnOptions(8, 4, 4, serve::MatchBackendKind::BitPlane));
    for (int i = 0; i < 4; ++i)
        engine.insert(definiteWord(static_cast<std::uint64_t>(i), 8));
    EXPECT_THROW(engine.insert(definiteWord(99, 8)), std::length_error);
    engine.erase(1);
    EXPECT_EQ(engine.insert(definiteWord(99, 8)), 1);
}

// ---------------------------------------------------------------------------
// Satellite: entryAt returns a value snapshot, not a dangling reference.
// ---------------------------------------------------------------------------

TEST(ChurnEngine, EntryAtIsASnapshotSurvivingMutation) {
    auto engine =
        serve::QueryEngine(churnOptions(8, 4, 8, serve::MatchBackendKind::BitPlane));
    const auto word = definiteWord(0xA5, 8);
    engine.insertAt(3, word);

    const auto entry = engine.entryAt(3);
    ASSERT_TRUE(entry.has_value());
    // Mutating (and thereby retiring the snapshot the value was copied from)
    // must not affect the returned copy.
    engine.erase(3);
    engine.insertAt(3, definiteWord(0x3C, 8));
    ASSERT_TRUE(entry.has_value());
    EXPECT_TRUE(*entry == word);
    EXPECT_FALSE(*engine.entryAt(3) == word);
}

// ---------------------------------------------------------------------------
// Tentpole: write-cost accounting from tcam::planWordWrite.
// ---------------------------------------------------------------------------

TEST(ChurnEngine, MutationsAreChargedThePlannedWordWriteCost) {
    auto options = churnOptions(8, 4, 12, serve::MatchBackendKind::BitPlane);
    serve::QueryEngine engine(options);

    engine.insert(definiteWord(1, 8));
    engine.insert(definiteWord(2, 8));
    engine.insertAt(5, definiteWord(3, 8));
    engine.insertAt(5, definiteWord(4, 8));  // overwrite: a full reprogram
    engine.erase(5);
    engine.erase(5);  // already empty: free no-op, not charged

    const auto stats = engine.stats();
    EXPECT_EQ(stats.inserts, 4);
    EXPECT_EQ(stats.erases, 1);

    const auto cost = engine.writeCost();
    EXPECT_GT(cost.energy, 0.0);
    EXPECT_GT(cost.latency, 0.0);
    EXPECT_GT(cost.pulsePhases, 0);
    EXPECT_DOUBLE_EQ(stats.writeEnergy, 5 * cost.energy);
    EXPECT_DOUBLE_EQ(stats.writeLatency, 5 * cost.latency);
    EXPECT_EQ(stats.writePulsePhases, 5 * cost.pulsePhases);

    // The engine's cached price must be exactly the planner's: per-bit pulse
    // characterization through tcam::measureWriteEnergy, scheduled over the
    // word by tcam::planWordWrite.
    const auto direct = tcam::planWordWrite(
        options.shard.cell, tcam::measureWriteEnergy(options.shard.cell, options.tech),
        options.shard.wordBits);
    EXPECT_EQ(cost.energy, direct.energy);
    EXPECT_EQ(cost.latency, direct.latency);
    EXPECT_EQ(cost.pulsePhases, direct.pulsePhases);
}

// ---------------------------------------------------------------------------
// Tentpole: differential churn fuzz — every backend, widths straddling the
// 64-bit plane boundary, all-X rows — against the naive oracle.
// ---------------------------------------------------------------------------

TEST(ChurnFuzz, AllBackendsAndWidthsStayBitIdenticalToOracle) {
    const serve::MatchBackendKind backends[] = {serve::MatchBackendKind::Scalar,
                                                serve::MatchBackendKind::BitPlane,
                                                serve::MatchBackendKind::Checked};
    const int widths[] = {1, 63, 64, 65, 130};

    for (const auto backend : backends) {
        for (const int width : widths) {
            apps::ChurnSpec spec;
            spec.rows = 24;
            spec.wordBits = width;
            spec.wildcardFraction = 0.3;
            spec.allWildcardFraction = 0.1;  // force match-everything rows in
            spec.seed = 11 + static_cast<std::uint64_t>(width);
            apps::ChurnWorkload workload(spec);

            auto engine = serve::QueryEngine(
                churnOptions(width, 4, spec.rows, backend));
            NaiveTable naive(spec.rows);
            for (std::int64_t r = 0; r < spec.rows; ++r) {
                engine.insertAt(r, workload.words()[static_cast<std::size_t>(r)]);
                naive.rows[static_cast<std::size_t>(r)] =
                    workload.words()[static_cast<std::size_t>(r)];
            }

            for (int round = 0; round < 6; ++round) {
                for (int i = 0; i < 10; ++i) {
                    const auto op = workload.next();
                    if (op.insert) {
                        engine.insertAt(op.row, op.word);
                        naive.rows[static_cast<std::size_t>(op.row)] = op.word;
                    } else {
                        engine.erase(op.row);
                        naive.rows[static_cast<std::size_t>(op.row)].reset();
                    }
                }
                const auto keys = workload.queryStream(
                    32, 0.6, spec.seed + 1000 + static_cast<std::uint64_t>(round));
                const auto result = engine.searchBatch(keys);
                for (std::size_t q = 0; q < keys.size(); ++q)
                    ASSERT_EQ(result.rows[q], naive.findFirst(keys[q]))
                        << serve::backendName(backend) << " width " << width
                        << " round " << round << " query " << q;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tentpole: searches racing a mutator never block, never see a torn row —
// every observed result was valid at some point in the mutation order.
// (The CI thread-sanitize job runs this under TSan.)
// ---------------------------------------------------------------------------

TEST(ChurnConcurrency, ConcurrentSearchResultsAreValidAtSomeMutationPoint) {
    // Row layout: row kFlap flaps between its word and empty; row kFallback
    // is always present and matches the same probe key. A search taken at any
    // snapshot must therefore return kFlap (flap present) or kFallback (flap
    // absent) — anything else (a torn row, a mixed shard view, -1) is a bug.
    constexpr std::int64_t kFlap = 2;
    constexpr std::int64_t kFallback = 13;  // second shard: crosses a shard swap
    auto engine =
        serve::QueryEngine(churnOptions(16, 8, 16, serve::MatchBackendKind::BitPlane));

    tcam::TernaryWord flapWord(16, tcam::Trit::X);
    flapWord[0] = tcam::Trit::One;
    tcam::TernaryWord fallbackWord(16, tcam::Trit::X);  // matches everything
    engine.insertAt(kFlap, flapWord);
    engine.insertAt(kFallback, fallbackWord);

    tcam::TernaryWord probe = definiteWord(0xFFFF, 16);  // bit0 = 1: hits both

    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> failures{0};
    std::vector<std::thread> searchers;
    for (int s = 0; s < 3; ++s)
        searchers.emplace_back([&] {
            const std::vector<tcam::TernaryWord> keys(8, probe);
            while (!stop.load(std::memory_order_relaxed)) {
                const auto result = engine.searchBatch(keys);
                for (const auto row : result.rows)
                    if (row != kFlap && row != kFallback)
                        failures.fetch_add(1, std::memory_order_relaxed);
                // Exercise the concurrently-written accounting under TSan too.
                (void)engine.stats();
                (void)engine.occupancy();
                (void)engine.entryAt(kFlap);
            }
        });

    std::thread mutator([&] {
        for (int i = 0; i < 400; ++i) {
            if (i % 2 == 0)
                engine.erase(kFlap);
            else
                engine.insertAt(kFlap, flapWord);
        }
        stop.store(true, std::memory_order_relaxed);
    });
    mutator.join();
    for (auto& th : searchers) th.join();

    EXPECT_EQ(failures.load(), 0)
        << "a search observed a row set that existed at no point in the "
           "mutation order";
    // 400 flaps: 200 erases of a present row + 200 re-inserts, plus 2 seeds.
    const auto stats = engine.stats();
    EXPECT_EQ(stats.inserts, 202);
    EXPECT_EQ(stats.erases, 200);
    EXPECT_EQ(engine.occupancy(), 2);
}

// ---------------------------------------------------------------------------
// Tentpole: warm restart after churn replays the *mutated* table
// bit-identically, with zero solver calls.
// ---------------------------------------------------------------------------

TEST(ChurnPersistence, WarmRestartReplaysMutatedTableBitIdentically) {
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "fetcam_churn_test_store").string();
    fs::remove_all(dir);

    auto options = churnOptions(16, 4, 16, serve::MatchBackendKind::BitPlane);
    options.store.dir = dir;
    options.persistEntries = true;

    apps::ChurnSpec spec;
    spec.rows = 16;
    spec.wordBits = 16;
    spec.seed = 3;
    apps::ChurnWorkload workload(spec);
    const auto keys = workload.queryStream(40, 0.6, 77);

    serve::BatchResult before;
    std::int64_t mutations = 0;
    std::int64_t occupancy = 0;
    {
        serve::QueryEngine engine(options);
        ASSERT_TRUE(engine.tableLogStatus().attached);
        ASSERT_FALSE(engine.tableLogStatus().degraded);
        EXPECT_EQ(engine.restoredMutations(), 0);
        for (std::int64_t r = 0; r < spec.rows; ++r)
            engine.insertAt(r, workload.words()[static_cast<std::size_t>(r)]);
        for (int i = 0; i < 37; ++i) {
            const auto op = workload.next();
            if (op.insert)
                engine.insertAt(op.row, op.word);
            else
                engine.erase(op.row);
        }
        const auto stats = engine.stats();
        mutations = stats.inserts + stats.erases;
        occupancy = engine.occupancy();
        before = engine.searchBatch(keys);
    }  // teardown flushes the delta log

    serve::QueryEngine warm(options);
    ASSERT_FALSE(warm.tableLogStatus().degraded);
    EXPECT_EQ(warm.restoredMutations(), mutations);
    EXPECT_EQ(warm.occupancy(), occupancy);
    // Zero solver calls: the characterization store replays every search and
    // write characterization.
    EXPECT_EQ(warm.cache()->stats().misses, 0);
    for (std::int64_t r = 0; r < spec.rows; ++r) {
        const auto entry = warm.entryAt(r);
        const bool expect = workload.present()[static_cast<std::size_t>(r)] != 0;
        ASSERT_EQ(entry.has_value(), expect) << "row " << r;
        if (entry) {
            EXPECT_TRUE(*entry == workload.words()[static_cast<std::size_t>(r)]);
        }
    }
    const auto after = warm.searchBatch(keys);
    EXPECT_EQ(after.rows, before.rows);
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.energy, before.energy);
    EXPECT_EQ(after.latency, before.latency);

    // Replayed mutations are not re-charged: they were paid when first
    // applied, and a restart must not double-bill the table.
    EXPECT_EQ(warm.stats().inserts, 0);
    EXPECT_EQ(warm.stats().erases, 0);

    fs::remove_all(dir);
}

TEST(ChurnPersistence, CompactTableSnapshotsOccupiedRowsOnly) {
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "fetcam_churn_test_compact").string();
    fs::remove_all(dir);

    auto options = churnOptions(8, 4, 8, serve::MatchBackendKind::BitPlane);
    options.store.dir = dir;
    options.persistEntries = true;

    std::int64_t occupancy = 0;
    {
        serve::QueryEngine engine(options);
        for (int i = 0; i < 6; ++i)
            engine.insert(definiteWord(static_cast<std::uint64_t>(i), 8));
        engine.erase(1);
        engine.erase(4);
        // 8 delta records so far; the compacted log holds one per occupied row.
        ASSERT_TRUE(engine.compactTable());
        occupancy = engine.occupancy();
    }

    serve::QueryEngine warm(options);
    ASSERT_FALSE(warm.tableLogStatus().degraded);
    EXPECT_EQ(warm.restoredMutations(), occupancy);  // deduplicated
    EXPECT_EQ(warm.occupancy(), occupancy);
    EXPECT_FALSE(warm.entryAt(1).has_value());
    EXPECT_FALSE(warm.entryAt(4).has_value());
    ASSERT_TRUE(warm.entryAt(0).has_value());
    EXPECT_TRUE(*warm.entryAt(0) == definiteWord(0, 8));

    fs::remove_all(dir);
}

namespace {

std::string hexOf(const std::string& bytes) {
    static const char* const kDigits = "0123456789abcdef";
    std::string out;
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out += kDigits[b >> 4];
        out += kDigits[b & 0xF];
    }
    return out;
}

/// Every record of DIR/table.fcs, read through a plain read-only store
/// configured with the on-disk literals rather than the engine's constants.
std::vector<store::Record> readTableLog(const std::string& dir) {
    store::StoreConfig cfg;
    cfg.dir = dir;
    cfg.readOnly = true;
    cfg.schemaVersion = 1;
    cfg.logName = "table.fcs";
    store::CharStore log(cfg);
    return log.load();
}

}  // namespace

// Pins the table.fcs record bytes. Key: schema byte 01, op byte (01 insert,
// 02 erase), row as a native-endian (here little-endian) i64. Insert payload:
// one byte per trit, 00 = 0, 01 = 1, 02 = X; erase payload empty.
TEST(ChurnPersistence, GoldenTableLogBytes) {
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "fetcam_churn_test_golden").string();
    fs::remove_all(dir);

    auto options = churnOptions(8, 4, 8, serve::MatchBackendKind::BitPlane);
    options.store.dir = dir;
    options.persistEntries = true;
    serve::QueryEngine engine(options, std::make_shared<serve::CharacterizationCache>());
    ASSERT_EQ(engine.capacity(), 8);

    EXPECT_EQ(engine.insert(tcam::TernaryWord::fromString("01X10X01")), 0);
    engine.insertAt(3, tcam::TernaryWord::fromString("1100XX00"));  // empty row
    engine.insertAt(0, tcam::TernaryWord::fromString("XXXXXXX1"));  // overwrite
    engine.erase(3);
    engine.erase(5);  // empty row: no record
    engine.flushTable();

    const auto records = readTableLog(dir);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(hexOf(records[0].key), "01010000000000000000");
    EXPECT_EQ(hexOf(records[0].payload), "0001020100020001");
    EXPECT_EQ(hexOf(records[1].key), "01010300000000000000");
    EXPECT_EQ(hexOf(records[1].payload), "0101000002020000");
    EXPECT_EQ(hexOf(records[2].key), "01010000000000000000");
    EXPECT_EQ(hexOf(records[2].payload), "0202020202020201");
    EXPECT_EQ(hexOf(records[3].key), "01020300000000000000");
    EXPECT_EQ(hexOf(records[3].payload), "");

    // One more insert lands in row 1 (the first free row), so the snapshot
    // pins its ascending row order too.
    EXPECT_EQ(engine.insert(tcam::TernaryWord::fromString("10101010")), 1);
    ASSERT_TRUE(engine.compactTable());
    const auto snapshot = readTableLog(dir);
    ASSERT_EQ(snapshot.size(), 2u);
    EXPECT_EQ(hexOf(snapshot[0].key), "01010000000000000000");
    EXPECT_EQ(hexOf(snapshot[0].payload), "0202020202020201");
    EXPECT_EQ(hexOf(snapshot[1].key), "01010100000000000000");
    EXPECT_EQ(hexOf(snapshot[1].payload), "0100010001000100");

    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// A table log the engine cannot use degrades to memory-only entries with a
// typed error, applies none of its records and leaves the file as it was; the
// geometry that wrote it still replays it in full.
// ---------------------------------------------------------------------------

namespace {

std::string fileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class TableLogDegradation : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (std::filesystem::temp_directory_path() /
                ("fetcam_churn_test_" +
                 std::string(::testing::UnitTest::GetInstance()->current_test_info()->name())))
                   .string();
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    serve::EngineOptions options(int wordBits, std::int64_t capacity) const {
        auto o = churnOptions(wordBits, 4, capacity, serve::MatchBackendKind::BitPlane);
        o.store.dir = dir_;
        o.persistEntries = true;
        return o;
    }
    std::string logBytes() const { return fileBytes(dir_ + "/table.fcs"); }

    /// Degraded with `reason`, no record applied: every row is empty.
    static void expectDegraded(const serve::QueryEngine& engine,
                               recover::SimErrorReason reason) {
        const auto status = engine.tableLogStatus();
        EXPECT_TRUE(status.attached);
        EXPECT_TRUE(status.degraded);
        EXPECT_EQ(status.errorReason, reason);
        EXPECT_FALSE(status.error.empty());
        EXPECT_EQ(engine.occupancy(), 0);
        EXPECT_EQ(engine.restoredMutations(), 0);
        for (std::int64_t r = 0; r < engine.capacity(); ++r)
            EXPECT_FALSE(engine.entryAt(r).has_value()) << "row " << r;
    }

    /// The writing geometry replays the whole log: one insert per entry.
    void expectFullReplay(int wordBits, std::int64_t capacity,
                          const std::vector<std::pair<std::int64_t, tcam::TernaryWord>>& rows) {
        serve::QueryEngine engine(options(wordBits, capacity), cache_);
        ASSERT_FALSE(engine.tableLogStatus().degraded);
        EXPECT_EQ(engine.restoredMutations(), static_cast<std::int64_t>(rows.size()));
        EXPECT_EQ(engine.occupancy(), static_cast<std::int64_t>(rows.size()));
        for (const auto& [row, word] : rows) {
            const auto entry = engine.entryAt(row);
            ASSERT_TRUE(entry.has_value()) << "row " << row;
            EXPECT_TRUE(*entry == word);
        }
    }

    std::string dir_;
    /// One memory-only cache: every engine here characterizes once.
    std::shared_ptr<serve::CharacterizationCache> cache_ =
        std::make_shared<serve::CharacterizationCache>();
};

}  // namespace

// Row 2 fits a capacity-8 engine and comes first; row 31 does not. Neither
// may be applied.
TEST_F(TableLogDegradation, RowBeyondCapacity) {
    const std::vector<std::pair<std::int64_t, tcam::TernaryWord>> rows = {
        {2, definiteWord(0x5A, 8)}, {31, definiteWord(0xA5, 8)}};
    {
        serve::QueryEngine writer(options(8, 32), cache_);
        for (const auto& [row, word] : rows) writer.insertAt(row, word);
    }
    const std::string before = logBytes();
    {
        serve::QueryEngine engine(options(8, 8), cache_);
        expectDegraded(engine, recover::SimErrorReason::CorruptData);
    }
    EXPECT_EQ(logBytes(), before);
    expectFullReplay(8, 32, rows);
}

TEST_F(TableLogDegradation, WiderWords) {
    const std::vector<std::pair<std::int64_t, tcam::TernaryWord>> rows = {
        {2, definiteWord(0xBEEF, 16)}, {6, definiteWord(0x1234, 16)}};
    {
        serve::QueryEngine writer(options(16, 8), cache_);
        for (const auto& [row, word] : rows) writer.insertAt(row, word);
    }
    const std::string before = logBytes();
    {
        serve::QueryEngine engine(options(8, 8), cache_);
        expectDegraded(engine, recover::SimErrorReason::CorruptData);
    }
    EXPECT_EQ(logBytes(), before);
    expectFullReplay(16, 8, rows);
}

TEST_F(TableLogDegradation, LockHeldByAnotherEngine) {
    const std::vector<std::pair<std::int64_t, tcam::TernaryWord>> rows = {
        {5, definiteWord(0x3C, 8)}};
    {
        serve::QueryEngine holder(options(8, 8), cache_);
        holder.insertAt(5, rows[0].second);
        holder.flushTable();
        const std::string before = logBytes();
        {
            serve::QueryEngine engine(options(8, 8), cache_);
            expectDegraded(engine, recover::SimErrorReason::IoError);
        }
        EXPECT_EQ(logBytes(), before);
    }
    expectFullReplay(8, 8, rows);
}

// A table compacted while empty is a loaded log with zero records, not a
// cold start: a front-end must not install its seed set over it.
TEST(ChurnPersistence, CompactedEmptyTableReopensAsLoadedNotFresh) {
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "fetcam_churn_test_compact_empty").string();
    fs::remove_all(dir);

    auto options = churnOptions(8, 4, 8, serve::MatchBackendKind::BitPlane);
    options.store.dir = dir;
    options.persistEntries = true;
    const auto cache = std::make_shared<serve::CharacterizationCache>();
    {
        serve::QueryEngine engine(options, cache);
        EXPECT_TRUE(engine.tableLogStatus().load.startedFresh);
        engine.insert(definiteWord(7, 8));
        engine.erase(0);
        ASSERT_TRUE(engine.compactTable());
    }

    serve::QueryEngine warm(options, cache);
    const auto status = warm.tableLogStatus();
    EXPECT_TRUE(status.attached);
    EXPECT_FALSE(status.degraded);
    EXPECT_FALSE(status.load.startedFresh);
    EXPECT_EQ(warm.restoredMutations(), 0);
    EXPECT_EQ(warm.occupancy(), 0);

    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Workload determinism: same spec, same universe / flaps / queries.
// ---------------------------------------------------------------------------

TEST(ChurnWorkload, IsSeedDeterministic) {
    apps::ChurnSpec spec;
    spec.rows = 32;
    spec.wordBits = 24;
    spec.seed = 9;
    apps::ChurnWorkload a(spec);
    apps::ChurnWorkload b(spec);

    for (std::size_t r = 0; r < a.words().size(); ++r)
        ASSERT_TRUE(a.words()[r] == b.words()[r]);
    for (int i = 0; i < 100; ++i) {
        const auto oa = a.next();
        const auto ob = b.next();
        ASSERT_EQ(oa.row, ob.row);
        ASSERT_EQ(oa.insert, ob.insert);
    }
    EXPECT_EQ(a.installed(), b.installed());
    const auto qa = a.queryStream(16, 0.5, 123);
    const auto qb = b.queryStream(16, 0.5, 123);
    for (std::size_t q = 0; q < qa.size(); ++q) ASSERT_TRUE(qa[q] == qb[q]);
}

// ---------------------------------------------------------------------------
// Chunk layout: the engine scans and clones fixed kChunkRows-row chunks,
// whatever shard.rows the bank is priced at. Rows either side of each chunk
// edge, a partial last chunk, and answers that never depend on shard.rows.
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kChunk = serve::QueryEngine::kChunkRows;
/// Two full chunks and a partial third, in whole 4-row shards.
constexpr std::int64_t kEdgeCapacity = 2500;
static_assert(kEdgeCapacity > 2 * kChunk && kEdgeCapacity % kChunk != 0);
static_assert(kEdgeCapacity % 4 == 0);
constexpr std::int64_t kEdgeRows[] = {kChunk - 1, kChunk, 2 * kChunk - 1,
                                      kEdgeCapacity - 1};
constexpr serve::MatchBackendKind kAllBackends[] = {serve::MatchBackendKind::Scalar,
                                                    serve::MatchBackendKind::BitPlane,
                                                    serve::MatchBackendKind::Checked};

/// Edge words have the top bit 0 and fillers have it 1, so kAnyEdge
/// matches exactly the rows holding edge words.
tcam::TernaryWord edgeWord(std::size_t j) { return tcam::TernaryWord::fromBits(j + 1, 16); }
tcam::TernaryWord fillerWord(std::int64_t i) {
    return tcam::TernaryWord::fromBits(0x8000u + static_cast<unsigned>(i % 0x8000), 16);
}
const tcam::TernaryWord kAnyEdge = tcam::TernaryWord::fromString("0xxxxxxxxxxxxxxx");

/// The shared chunk-edge table: edge words at kEdgeRows, fillers through
/// insert() below the first edge (row assignment checked against the naive
/// scan), and wildcarded top-bit-1 words sprinkled over the later chunks.
void populateEdgeTable(serve::QueryEngine& engine, NaiveTable& naive) {
    for (std::size_t j = 0; j < std::size(kEdgeRows); ++j) {
        engine.insertAt(kEdgeRows[j], edgeWord(j));
        naive.rows[static_cast<std::size_t>(kEdgeRows[j])] = edgeWord(j);
    }
    for (std::int64_t r = 0; r < kChunk - 1; ++r)
        ASSERT_EQ(engine.insert(fillerWord(r)), naive.insert(fillerWord(r)));
    numeric::Rng rng(11);
    for (std::int64_t r = kChunk + 2; r < kEdgeCapacity - 1; r += 37) {
        auto word = fillerWord(static_cast<std::int64_t>(rng.nextU64() & 0x7FFF));
        for (std::size_t b = 1; b < 16; ++b)
            if (rng.uniform() < 0.2) word[b] = tcam::Trit::X;
        engine.insertAt(r, word);
        naive.rows[static_cast<std::size_t>(r)] = word;
    }
}

/// Edge words, kAnyEdge, a few fillers and random definite keys.
std::vector<tcam::TernaryWord> edgeKeys() {
    std::vector<tcam::TernaryWord> keys{kAnyEdge, fillerWord(0), fillerWord(kChunk - 2)};
    for (std::size_t j = 0; j < std::size(kEdgeRows); ++j) keys.push_back(edgeWord(j));
    numeric::Rng rng(5);
    for (int i = 0; i < 40; ++i) keys.push_back(definiteWord(rng.nextU64(), 16));
    return keys;
}

void expectTableMatchesNaive(const serve::QueryEngine& engine, const NaiveTable& naive) {
    for (std::int64_t r = 0; r < engine.capacity(); ++r) {
        const auto entry = engine.entryAt(r);
        const auto& expect = naive.rows[static_cast<std::size_t>(r)];
        ASSERT_EQ(entry.has_value(), expect.has_value()) << "row " << r;
        if (entry) {
            ASSERT_TRUE(*entry == *expect) << "row " << r;
        }
    }
}

void expectSearchMatchesNaive(serve::QueryEngine& engine, const NaiveTable& naive) {
    const auto keys = edgeKeys();
    const auto result = engine.searchBatch(keys);
    for (std::size_t q = 0; q < keys.size(); ++q)
        EXPECT_EQ(result.rows[q], naive.findFirst(keys[q])) << "query " << q;
}

}  // namespace

TEST(ChunkLayout, PriorityInsertAndEraseAcrossChunkEdges) {
    for (const auto backend : kAllBackends) {
        SCOPED_TRACE(serve::backendName(backend));
        serve::QueryEngine engine(churnOptions(16, 4, kEdgeCapacity, backend));
        ASSERT_EQ(engine.capacity(), kEdgeCapacity);
        ASSERT_EQ(engine.shards(), kEdgeCapacity / 4);  // the priced geometry
        NaiveTable naive(kEdgeCapacity);
        populateEdgeTable(engine, naive);
        expectTableMatchesNaive(engine, naive);
        expectSearchMatchesNaive(engine, naive);

        // Each edge word answers at its own global row.
        std::vector<tcam::TernaryWord> exact;
        for (std::size_t j = 0; j < std::size(kEdgeRows); ++j) exact.push_back(edgeWord(j));
        const auto hits = engine.searchBatch(exact).rows;
        EXPECT_EQ(hits, std::vector<std::int64_t>(std::begin(kEdgeRows), std::end(kEdgeRows)));

        // Global priority: erasing each winner hands the match to the next
        // edge row, across both chunk edges and into the partial last chunk.
        for (const auto row : kEdgeRows) {
            EXPECT_EQ(engine.searchBatch({kAnyEdge}).rows[0], row);
            engine.erase(row);
            naive.rows[static_cast<std::size_t>(row)].reset();
        }
        EXPECT_EQ(engine.searchBatch({kAnyEdge}).rows[0], -1);

        // insert() takes the first free row on each side of the first edge:
        // 1023 (last of chunk 0), then 1024, then 1025.
        for (std::int64_t want = kChunk - 1; want <= kChunk + 1; ++want) {
            const auto word = edgeWord(static_cast<std::size_t>(want));
            EXPECT_EQ(engine.insert(word), want);
            EXPECT_EQ(naive.insert(word), want);
        }
        // With holes at 1022 and 1024, insert() refills 1022, then scans
        // over the occupied 1023 into the next chunk.
        for (const auto row : {kChunk - 2, kChunk}) {
            engine.erase(row);
            naive.rows[static_cast<std::size_t>(row)].reset();
        }
        EXPECT_EQ(engine.insert(fillerWord(kChunk - 2)), kChunk - 2);
        EXPECT_EQ(naive.insert(fillerWord(kChunk - 2)), kChunk - 2);
        EXPECT_EQ(engine.insert(edgeWord(kChunk)), kChunk);
        EXPECT_EQ(naive.insert(edgeWord(kChunk)), kChunk);
        EXPECT_EQ(engine.searchBatch({kAnyEdge}).rows[0], kChunk - 1);
        engine.erase(kChunk - 1);
        naive.rows[static_cast<std::size_t>(kChunk - 1)].reset();
        EXPECT_EQ(engine.searchBatch({kAnyEdge}).rows[0], kChunk);

        // insertAt on both sides of the second edge; the lower row wins.
        engine.insertAt(2 * kChunk, edgeWord(7));
        naive.rows[static_cast<std::size_t>(2 * kChunk)] = edgeWord(7);
        engine.insertAt(2 * kChunk - 1, edgeWord(7));
        naive.rows[static_cast<std::size_t>(2 * kChunk - 1)] = edgeWord(7);
        EXPECT_EQ(engine.searchBatch({edgeWord(7)}).rows[0], 2 * kChunk - 1);
        engine.erase(2 * kChunk - 1);
        naive.rows[static_cast<std::size_t>(2 * kChunk - 1)].reset();
        EXPECT_EQ(engine.searchBatch({edgeWord(7)}).rows[0], 2 * kChunk);

        EXPECT_EQ(engine.occupancy(),
                  std::count_if(naive.rows.begin(), naive.rows.end(),
                                [](const auto& w) { return w.has_value(); }));
        expectTableMatchesNaive(engine, naive);
        expectSearchMatchesNaive(engine, naive);
    }
}

TEST(ChunkLayout, SimilarityHitsAcrossChunkEdges) {
    for (const auto backend : kAllBackends) {
        SCOPED_TRACE(serve::backendName(backend));
        serve::QueryEngine engine(churnOptions(16, 4, kEdgeCapacity, backend));
        NaiveTable naive(kEdgeCapacity);
        populateEdgeTable(engine, naive);

        sim::SimilarityOptions within;
        within.kind = sim::SimilarityKind::Threshold;
        within.maxDistance = 2;
        sim::SimilarityOptions nearest;
        nearest.k = 6;
        for (const auto& key : edgeKeys()) {
            EXPECT_EQ(engine.nearestK(key, nearest.k),
                      sim::naiveSimilarity(naive.rows, key, nearest));
            EXPECT_EQ(engine.thresholdMatch(key, within.maxDistance),
                      sim::naiveSimilarity(naive.rows, key, within));
        }
        // The four edge rows are kAnyEdge's only exact (distance-0) hits.
        const auto edges = engine.thresholdMatch(kAnyEdge, 0);
        ASSERT_EQ(edges.size(), std::size(kEdgeRows));
        for (std::size_t j = 0; j < edges.size(); ++j) EXPECT_EQ(edges[j].row, kEdgeRows[j]);
    }
}

TEST(ChunkLayout, CompactAndWarmRestartAcrossChunkEdges) {
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "fetcam_churn_test_chunks").string();
    for (const auto backend : kAllBackends) {
        SCOPED_TRACE(serve::backendName(backend));
        fs::remove_all(dir);
        auto options = churnOptions(16, 4, kEdgeCapacity, backend);
        options.store.dir = dir;
        options.persistEntries = true;

        NaiveTable naive(kEdgeCapacity);
        {
            serve::QueryEngine engine(options);
            ASSERT_FALSE(engine.tableLogStatus().degraded);
            populateEdgeTable(engine, naive);
            for (const auto row : {kChunk - 2, kChunk, 2 * kChunk - 1}) {
                engine.erase(row);
                naive.rows[static_cast<std::size_t>(row)].reset();
            }
            ASSERT_TRUE(engine.compactTable());
            engine.insertAt(kChunk, edgeWord(9));  // appended after the snapshot
            naive.rows[static_cast<std::size_t>(kChunk)] = edgeWord(9);
        }

        serve::QueryEngine warm(options);
        ASSERT_FALSE(warm.tableLogStatus().degraded);
        EXPECT_EQ(warm.occupancy(),
                  std::count_if(naive.rows.begin(), naive.rows.end(),
                                [](const auto& w) { return w.has_value(); }));
        EXPECT_EQ(warm.restoredMutations(), warm.occupancy());  // compacted + 1 append
        expectTableMatchesNaive(warm, naive);
        expectSearchMatchesNaive(warm, naive);
    }
    fs::remove_all(dir);
}

TEST(ChunkLayout, AnswersDoNotDependOnPricedShardRows) {
    auto cache = std::make_shared<serve::CharacterizationCache>();
    sim::SimilarityOptions nearest;
    nearest.k = 5;
    const auto keys = edgeKeys();
    for (const auto backend : kAllBackends) {
        SCOPED_TRACE(serve::backendName(backend));
        std::optional<serve::BatchResult> reference;
        std::optional<serve::SimilarityBatchResult> referenceSim;
        for (const int shardRows : {4, 16, 1024}) {
            SCOPED_TRACE(shardRows);
            serve::QueryEngine engine(churnOptions(16, shardRows, kEdgeCapacity, backend),
                                      cache);
            EXPECT_EQ(engine.rowsPerShard(), shardRows);
            NaiveTable naive(engine.capacity());
            populateEdgeTable(engine, naive);
            const auto exact = engine.searchBatch(keys, 2);
            const auto similar = engine.similarityBatch(keys, nearest, 2);
            if (!reference) {
                reference = exact;
                referenceSim = similar;
                continue;
            }
            // Same rows and hits; only the priced energy/latency differ.
            EXPECT_EQ(exact.rows, reference->rows);
            EXPECT_EQ(exact.hits, reference->hits);
            EXPECT_EQ(similar.hits, referenceSim->hits);
            EXPECT_EQ(similar.rowsReturned, referenceSim->rowsReturned);
            EXPECT_NE(exact.energy, reference->energy);
            EXPECT_NE(similar.energy, referenceSim->energy);
        }
    }
}
