// Mutation-under-load contract tests: the RCU-snapshot table, first-free-row
// insert order, write-cost accounting, in-place writes when no reader is
// pinned, a model-based test of every table operation against the reference
// scan, warm restart of a mutated table through the entry delta log, and the
// fixed-size chunk layout (chunk edges, answers independent of the priced
// shard size).
//
// The thread tests are written to be meaningful under TSan (the CI
// thread-sanitize job runs this binary): concurrent searchers race a mutator
// and every observed result must have been valid at some point in the
// mutation order — for the model-based one, equal to the reference table at
// some version published during the call.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/churn.hpp"
#include "numeric/stats.hpp"
#include "obs/obs.hpp"
#include "recover/sim_error.hpp"
#include "serve/delta_log.hpp"
#include "serve/query_engine.hpp"
#include "sim/similarity.hpp"
#include "store/char_store.hpp"
#include "tcam/write.hpp"
#include "tcam/write_schedule.hpp"

using namespace fetcam;

namespace fetcam::sim {

/// Readable hits in failure messages.
void PrintTo(const SimilarityHit& hit, std::ostream* os) {
    *os << "{row " << hit.row << ", distance " << hit.distance << "}";
}

}  // namespace fetcam::sim

namespace {

serve::EngineOptions churnOptions(int wordBits, int shardRows, std::int64_t capacity) {
    serve::EngineOptions o;
    o.shard.cell = tcam::CellKind::FeFet2;
    o.shard.sense = array::SenseScheme::LowSwing;
    o.shard.wordBits = wordBits;
    o.shard.rows = shardRows;
    o.capacity = capacity;
    return o;
}

tcam::TernaryWord definiteWord(std::uint64_t bits, int width) {
    tcam::TernaryWord w(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i)
        w[static_cast<std::size_t>(i)] =
            (bits >> (i % 64)) & 1 ? tcam::Trit::One : tcam::Trit::Zero;
    return w;
}

/// The stop-the-world oracle: a plain vector of optional words, searched with
/// tcam::referenceFindFirst and sim::naiveSimilarity. Everything the engine
/// does must be bit-identical to this.
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
};

constexpr std::int64_t kChunk = serve::QueryEngine::kChunkRows;
/// Two full chunks and a partial third, in whole 4-row shards.
constexpr std::int64_t kEdgeCapacity = 2500;
static_assert(kEdgeCapacity > 2 * kChunk && kEdgeCapacity % kChunk != 0);
static_assert(kEdgeCapacity % 4 == 0);
/// The last row of each chunk and the first of the next.
constexpr std::int64_t kEdgeRows[] = {kChunk - 1, kChunk, 2 * kChunk - 1,
                                      kEdgeCapacity - 1};

}  // namespace

// ---------------------------------------------------------------------------
// Satellite: first-free-row hint must not change insert row assignment.
// ---------------------------------------------------------------------------

TEST(ChurnEngine, InsertRowOrderMatchesNaiveScanFromZero) {
    auto engine = serve::QueryEngine(churnOptions(8, 4, 24));
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
    auto engine = serve::QueryEngine(churnOptions(8, 4, 4));
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
    auto engine = serve::QueryEngine(churnOptions(8, 4, 8));
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
    auto options = churnOptions(8, 4, 12);
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
// Model-based oracle test: seeded random sequences of every table operation —
// insert, insertAt, erase, searchBatch (with expired, live and no deadlines),
// nearestK, thresholdMatch, and compactTable followed by a warm restart from
// the delta log — on a table that crosses two chunk edges into a partial
// chunk, at widths straddling the 64-bit plane words and at jobs 1, 2 and 4,
// each step checked against the optional-word reference. A failure prints the seed and every operation up
// to the failing one.
// ---------------------------------------------------------------------------

namespace {

tcam::TernaryWord randomTernary(numeric::Rng& rng, int width, double xDensity) {
    tcam::TernaryWord w(static_cast<std::size_t>(width));
    for (std::size_t b = 0; b < w.size(); ++b)
        w[b] = rng.uniform() < xDensity
                   ? tcam::Trit::X
                   : (rng.bernoulli(0.5) ? tcam::Trit::One : tcam::Trit::Zero);
    return w;
}

/// What QueryEngine::nearestK asks the selector for.
sim::SimilarityOptions nearestOptions(int k) {
    sim::SimilarityOptions o;
    o.k = k;
    o.maxResults = std::max(o.maxResults, static_cast<std::size_t>(k));
    return o;
}

sim::SimilarityOptions withinOptions(std::size_t maxDistance) {
    sim::SimilarityOptions o;
    o.kind = sim::SimilarityKind::Threshold;
    o.maxDistance = maxDistance;
    return o;
}

/// One seeded operation sequence against a persisted engine and the
/// reference table. The only all-X (match-everything) row the sequence ever
/// stores is the catch-all at the last row, so a search whose only match is
/// a chunk's last row still reaches it.
class OracleRun {
public:
    static constexpr int kSteps = 48;
    static constexpr int kRestartEvery = 16;  ///< compact + warm restart
    static constexpr std::size_t kKeys = 12;  ///< per batch: 3 tiles of 4

    OracleRun(int width, std::uint64_t seed, std::shared_ptr<serve::CharacterizationCache> cache,
              const std::string& dir)
        : width_(width), seed_(seed), rng_(seed), cache_(std::move(cache)),
          options_(churnOptions(width, 4, kEdgeCapacity)), naive_(kEdgeCapacity) {
        options_.batchSize = 4;  // several tiles per batch, so jobs fan out
        options_.store.dir = dir;
        options_.persistEntries = true;
    }

    void run() {
        engine_.emplace(options_, cache_);
        for (std::int64_t r = 0; r < kEdgeCapacity; ++r)
            if (rng_.bernoulli(0.5)) store(r, randomTernary(rng_, width_, 0.3));
        log_.push_back("fill: every row kept with p=0.5");
        for (int step = 0; step < kSteps; ++step) {
            const int jobs = kJobs[step % 3];
            if (step % kRestartEvery == kRestartEvery - 1) {
                compactAndRestart();
            } else {
                const double u = rng_.uniform();
                if (u < 0.15) {
                    insertFirstFree();
                } else if (u < 0.35) {
                    insertAt();
                } else if (u < 0.50) {
                    erase();
                } else if (u < 0.65) {
                    searchBatch(jobs);
                } else if (u < 0.75) {
                    nearestK(jobs);
                } else if (u < 0.85) {
                    thresholdMatch(jobs);
                } else {
                    nearestKTieAtChunkEdge();
                }
            }
            if (::testing::Test::HasFatalFailure()) return;
        }
    }

private:
    static constexpr int kJobs[] = {1, 2, 4};

    std::string history() const {
        std::string out = "seed " + std::to_string(seed_) + ", width " +
                          std::to_string(width_) + ", operations so far:\n";
        for (std::size_t i = 0; i < log_.size(); ++i)
            out += "  " + std::to_string(i) + ": " + log_[i] + "\n";
        return out;
    }

    std::int64_t pickRow() {
        if (rng_.bernoulli(0.4))
            return kEdgeRows[rng_.uniformInt(0, static_cast<int>(std::size(kEdgeRows)) - 1)];
        return rng_.uniformInt(0, static_cast<int>(kEdgeCapacity) - 1);
    }

    void store(std::int64_t row, const tcam::TernaryWord& word) {
        engine_->insertAt(row, word);
        naive_.rows[static_cast<std::size_t>(row)] = word;
    }

    /// Search keys: random definite words, stored rows with their X trits
    /// filled in (so they hit), and keys with X trits of their own.
    std::vector<tcam::TernaryWord> keys() {
        std::vector<tcam::TernaryWord> out;
        for (std::size_t i = 0; i < kKeys; ++i) {
            const auto& stored = naive_.rows[static_cast<std::size_t>(pickRow())];
            if (i % 3 == 1 && stored) {
                auto key = *stored;
                for (std::size_t b = 0; b < key.size(); ++b)
                    if (key[b] == tcam::Trit::X)
                        key[b] = rng_.bernoulli(0.5) ? tcam::Trit::One : tcam::Trit::Zero;
                out.push_back(std::move(key));
            } else {
                out.push_back(randomTernary(rng_, width_, i % 3 == 2 ? 0.2 : 0.0));
            }
        }
        return out;
    }

    static std::string listOf(const std::vector<tcam::TernaryWord>& keys) {
        std::string out;
        for (const auto& k : keys) out += " " + k.toString();
        return out;
    }

    void insertFirstFree() {
        const auto word = randomTernary(rng_, width_, 0.3);
        log_.push_back("insert " + word.toString());
        const std::int64_t want = naive_.insert(word);
        ASSERT_EQ(engine_->insert(word), want) << history();
        ASSERT_EQ(engine_->occupancy(), occupied()) << history();
    }

    void insertAt() {
        const std::int64_t row = pickRow();
        const bool catchAll = row == kEdgeCapacity - 1 && rng_.bernoulli(0.5);
        const auto word = catchAll ? tcam::TernaryWord(static_cast<std::size_t>(width_))
                                   : randomTernary(rng_, width_, 0.3);
        log_.push_back("insertAt " + std::to_string(row) + " " + word.toString());
        store(row, word);
        ASSERT_EQ(engine_->occupancy(), occupied()) << history();
    }

    void erase() {
        const std::int64_t row = pickRow();
        log_.push_back("erase " + std::to_string(row));
        engine_->erase(row);
        naive_.rows[static_cast<std::size_t>(row)].reset();
        ASSERT_EQ(engine_->occupancy(), occupied()) << history();
    }

    /// A priority batch in which a seeded subset of the keys is already past
    /// its deadline (E), some carry a live one (L) and the rest none (-):
    /// the expired keys come back kRowDeadlineExpired, unscanned and
    /// uncharged, the others get the reference answer.
    void searchBatch(int jobs) {
        const auto batch = keys();
        const double live = obs::monotonicSeconds() + 3600.0;
        std::vector<double> deadlines(batch.size(), 0.0);  // 0 = no deadline
        std::vector<bool> expired(batch.size(), false);
        std::string marks;
        for (std::size_t q = 0; q < batch.size(); ++q) {
            const double u = rng_.uniform();
            expired[q] = u < 0.3;
            if (expired[q])
                deadlines[q] = 1e-9;  // long past (0 would mean none)
            else if (u < 0.6)
                deadlines[q] = live;
            marks += expired[q] ? 'E' : (deadlines[q] > 0.0 ? 'L' : '-');
        }
        log_.push_back("searchBatch jobs=" + std::to_string(jobs) + " deadlines " + marks +
                       listOf(batch));
        serve::SubmitOptions opts;
        opts.deadlines = &deadlines;
        const auto result = engine_->searchBatch(batch, jobs, opts);
        std::int64_t hits = 0;
        std::int64_t shed = 0;
        for (std::size_t q = 0; q < batch.size(); ++q) {
            const std::int64_t want = expired[q] ? serve::kRowDeadlineExpired
                                                 : tcam::referenceFindFirst(naive_.rows, batch[q]);
            ASSERT_EQ(result.rows[q], want) << "key " << q << "\n" << history();
            hits += want >= 0;
            shed += expired[q];
        }
        ASSERT_EQ(result.hits, hits) << history();
        ASSERT_EQ(result.expired, shed) << history();
        ASSERT_EQ(result.energy,
                  engine_->energyPerQuery() *
                      static_cast<double>(static_cast<std::int64_t>(batch.size()) - shed))
            << history();
    }

    /// A similarity batch at `jobs`, then the single-key convenience on its
    /// first key, both against sim::naiveSimilarity.
    void similarity(const char* name, const sim::SimilarityOptions& options, int jobs,
                    const std::vector<tcam::TernaryWord>& batch) {
        const auto result = engine_->similarityBatch(batch, options, jobs);
        for (std::size_t q = 0; q < batch.size(); ++q)
            ASSERT_EQ(result.hits[q], sim::naiveSimilarity(naive_.rows, batch[q], options))
                << name << " key " << q << "\n" << history();
        const auto single = options.kind == sim::SimilarityKind::NearestK
                                ? engine_->nearestK(batch[0], options.k)
                                : engine_->thresholdMatch(batch[0], options.maxDistance);
        ASSERT_EQ(single, sim::naiveSimilarity(naive_.rows, batch[0], options))
            << name << " single key\n" << history();
    }

    void nearestK(int jobs) {
        const int k = rng_.uniformInt(1, 8);
        const auto batch = keys();
        log_.push_back("nearestK k=" + std::to_string(k) + " jobs=" + std::to_string(jobs) +
                       listOf(batch));
        similarity("nearestK", nearestOptions(k), jobs, batch);
    }

    void thresholdMatch(int jobs) {
        const auto d = static_cast<std::size_t>(rng_.uniformInt(0, std::max(1, width_ / 8)));
        const auto batch = keys();
        log_.push_back("thresholdMatch d=" + std::to_string(d) + " jobs=" +
                       std::to_string(jobs) + listOf(batch));
        similarity("thresholdMatch", withinOptions(d), jobs, batch);
    }

    /// The same word at the last row of chunk 0 and the first of chunk 1,
    /// then a nearest-k whose cut falls between them: the distance-0 tie must
    /// go to the lower row, across the chunk edge.
    void nearestKTieAtChunkEdge() {
        const auto word = randomTernary(rng_, width_, 0.3);
        log_.push_back("insertAt " + std::to_string(kChunk - 1) + " and " +
                       std::to_string(kChunk) + " " + word.toString());
        store(kChunk - 1, word);
        store(kChunk, word);
        int k = 1;
        for (std::int64_t r = 0; r < kChunk - 1; ++r) {
            const auto& row = naive_.rows[static_cast<std::size_t>(r)];
            k += row && row->mismatchCount(word) == 0;
        }
        log_.push_back("nearestK k=" + std::to_string(k) + " jobs=1 " + word.toString());
        const auto hits = engine_->nearestK(word, k);
        ASSERT_EQ(hits, sim::naiveSimilarity(naive_.rows, word, nearestOptions(k))) << history();
        ASSERT_EQ(hits.back().row, kChunk - 1) << history();
    }

    void compactAndRestart() {
        log_.push_back("compactTable, then warm restart");
        ASSERT_TRUE(engine_->compactTable()) << history();
        engine_.reset();
        engine_.emplace(options_, cache_);
        ASSERT_FALSE(engine_->tableLogStatus().degraded) << history();
        ASSERT_EQ(engine_->occupancy(), occupied()) << history();
        ASSERT_EQ(engine_->restoredMutations(), occupied()) << history();  // compacted
        for (std::int64_t r = 0; r < kEdgeCapacity; ++r)
            ASSERT_EQ(engine_->entryAt(r), naive_.rows[static_cast<std::size_t>(r)])
                << "row " << r << "\n" << history();
    }

    std::int64_t occupied() const {
        return std::count_if(naive_.rows.begin(), naive_.rows.end(),
                             [](const auto& w) { return w.has_value(); });
    }

    int width_;
    std::uint64_t seed_;
    numeric::Rng rng_;
    std::shared_ptr<serve::CharacterizationCache> cache_;
    serve::EngineOptions options_;
    NaiveTable naive_;
    std::optional<serve::QueryEngine> engine_;
    std::vector<std::string> log_;
};

}  // namespace

TEST(ChurnFuzz, ModelBasedOpsStayBitIdenticalToReference) {
    namespace fs = std::filesystem;
    const auto cache = std::make_shared<serve::CharacterizationCache>();
    for (const int width : {1, 63, 64, 65, 127, 128, 129}) {
        SCOPED_TRACE(width);
        const std::string dir =
            (fs::temp_directory_path() / ("fetcam_churn_test_oracle_" + std::to_string(width)))
                .string();
        fs::remove_all(dir);
        OracleRun(width, 2026 + static_cast<std::uint64_t>(width), cache, dir).run();
        fs::remove_all(dir);
        if (HasFatalFailure()) return;
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
    auto engine = serve::QueryEngine(churnOptions(16, 8, 16));

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
// Concurrent model-based oracle: one writer runs a seeded insert / insertAt /
// erase sequence while searchBatch and nearestK readers run against it, over
// a table crossing a chunk edge — so writes land in place when no reader is
// pinned and clone a chunk when one is. Each reader call must answer exactly
// as the reference table at some version published during that call, which
// holds whatever the schedule.
// ---------------------------------------------------------------------------

namespace {

/// One writer call: insert (first free row, planned as `row`), insertAt, or
/// erase (`word` empty).
struct PlannedMutation {
    bool firstFree = false;
    std::int64_t row = 0;
    std::optional<tcam::TernaryWord> word;
};

/// One reader call: the versions bounding it and what it answered. Version v
/// is the table after the writer's first v calls.
struct ReaderCall {
    std::int64_t first = 0;  ///< calls the writer had completed before it
    std::int64_t last = 0;   ///< calls the writer had started by its end
    std::vector<tcam::TernaryWord> keys;
    bool nearest = false;  ///< nearestK on keys[0]; otherwise searchBatch
    std::vector<std::int64_t> rows;
    sim::SimilarityHits hits;
};

}  // namespace

TEST(ChurnConcurrency, ModelBasedReadersSeeSomePublishedVersion) {
    constexpr std::uint64_t kSeed = 2027;
    constexpr int kWidth = 12;
    constexpr std::int64_t kCapacity = kChunk + 76;  // one edge, partial second chunk
    constexpr int kMutations = 300;
    constexpr int kReaders = 3;  // two searchBatch, one nearestK
    constexpr int kNearest = 4;
    static_assert(kCapacity % 4 == 0);
    constexpr std::int64_t kHotRows[] = {0, kChunk - 1, kChunk, kCapacity - 1};

    serve::QueryEngine engine(churnOptions(kWidth, 4, kCapacity));
    numeric::Rng rng(kSeed);
    // Stored words come from a small pool, so keys built from it hit rows.
    std::vector<tcam::TernaryWord> pool;
    for (int i = 0; i < 24; ++i) pool.push_back(randomTernary(rng, kWidth, 0.3));
    const auto poolWord = [&](numeric::Rng& r) {
        return pool[static_cast<std::size_t>(r.uniformInt(0, static_cast<int>(pool.size()) - 1))];
    };

    NaiveTable initial(kCapacity);
    for (std::int64_t r = 0; r < kCapacity; ++r)
        if (rng.bernoulli(0.5)) {
            initial.rows[static_cast<std::size_t>(r)] = poolWord(rng);
            engine.insertAt(r, *initial.rows[static_cast<std::size_t>(r)]);
        }

    // The writer's whole sequence, planned on a model table up front.
    std::vector<PlannedMutation> plan;
    NaiveTable model = initial;
    for (int i = 0; i < kMutations; ++i) {
        PlannedMutation m;
        const double u = rng.uniform();
        m.row = rng.bernoulli(0.4)
                    ? kHotRows[rng.uniformInt(0, static_cast<int>(std::size(kHotRows)) - 1)]
                    : rng.uniformInt(0, static_cast<int>(kCapacity) - 1);
        if (u < 0.3) {
            m.firstFree = true;
            m.word = poolWord(rng);
            m.row = model.insert(*m.word);  // never full: about half the rows are free
        } else if (u < 0.65) {
            m.word = poolWord(rng);
            model.rows[static_cast<std::size_t>(m.row)] = m.word;
        } else {
            model.rows[static_cast<std::size_t>(m.row)].reset();
        }
        plan.push_back(std::move(m));
    }

    std::atomic<std::int64_t> started{0}, completed{0};
    std::atomic<int> readersReady{0};
    std::atomic<bool> writerDone{false};
    std::atomic<int> misplaced{0};
    std::vector<std::vector<ReaderCall>> calls(kReaders);
    std::vector<std::thread> readers;
    for (int id = 0; id < kReaders; ++id)
        readers.emplace_back([&, id] {
            numeric::Rng keyRng(kSeed + 1 + static_cast<std::uint64_t>(id));
            const auto key = [&] {
                auto k = poolWord(keyRng);
                for (std::size_t b = 0; b < k.size(); ++b)
                    if (k[b] == tcam::Trit::X && keyRng.bernoulli(0.7))
                        k[b] = keyRng.bernoulli(0.5) ? tcam::Trit::One : tcam::Trit::Zero;
                return k;
            };
            for (bool last = false; !last;) {
                last = writerDone.load(std::memory_order_acquire);
                ReaderCall call;
                call.nearest = id == kReaders - 1;
                for (int q = 0; q < (call.nearest ? 1 : 4); ++q) call.keys.push_back(key());
                call.first = completed.load(std::memory_order_acquire);
                if (call.nearest)
                    call.hits = engine.nearestK(call.keys[0], kNearest);
                else
                    call.rows = engine.searchBatch(call.keys).rows;
                call.last = started.load(std::memory_order_acquire);
                calls[static_cast<std::size_t>(id)].push_back(std::move(call));
                if (calls[static_cast<std::size_t>(id)].size() == 1)
                    readersReady.fetch_add(1, std::memory_order_release);
            }
        });
    std::thread writer([&] {
        while (readersReady.load(std::memory_order_acquire) < kReaders)
            std::this_thread::yield();
        for (int i = 0; i < kMutations; ++i) {
            const auto& m = plan[static_cast<std::size_t>(i)];
            started.store(i + 1, std::memory_order_release);
            if (m.firstFree) {
                if (engine.insert(*m.word) != m.row) misplaced.fetch_add(1);
            } else if (m.word) {
                engine.insertAt(m.row, *m.word);
            } else {
                engine.erase(m.row);
            }
            completed.store(i + 1, std::memory_order_release);
        }
        writerDone.store(true, std::memory_order_release);
    });
    writer.join();
    for (auto& th : readers) th.join();

    EXPECT_EQ(misplaced.load(), 0) << "insert() diverged from the first free row, seed "
                                   << kSeed;
    for (std::int64_t r = 0; r < kCapacity; ++r)
        ASSERT_EQ(engine.entryAt(r), model.rows[static_cast<std::size_t>(r)])
            << "row " << r << ", seed " << kSeed;

    // Replay the versions in order; each call must match one inside its range.
    std::vector<const ReaderCall*> pending;
    for (const auto& perReader : calls)
        for (const auto& call : perReader) pending.push_back(&call);
    const auto answersAt = [&](const ReaderCall& call, const NaiveTable& table) {
        if (call.nearest)
            return call.hits ==
                   sim::naiveSimilarity(table.rows, call.keys[0], nearestOptions(kNearest));
        for (std::size_t q = 0; q < call.keys.size(); ++q)
            if (call.rows[q] != tcam::referenceFindFirst(table.rows, call.keys[q])) return false;
        return true;
    };
    NaiveTable state = initial;
    for (std::int64_t v = 0; v <= kMutations && !pending.empty(); ++v) {
        if (v > 0) {
            const auto& m = plan[static_cast<std::size_t>(v - 1)];
            state.rows[static_cast<std::size_t>(m.row)] = m.word;
        }
        std::erase_if(pending, [&](const ReaderCall* call) {
            return call->first <= v && v <= call->last && answersAt(*call, state);
        });
    }
    for (const ReaderCall* call : pending) {
        std::string keys;
        for (const auto& k : call->keys) keys += " " + k.toString();
        ADD_FAILURE() << (call->nearest ? "nearestK" : "searchBatch") << keys
                      << " matched the reference at no version in [" << call->first << ", "
                      << call->last << "], seed " << kSeed;
    }
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

    auto options = churnOptions(16, 4, 16);
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

    auto options = churnOptions(8, 4, 8);
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

    auto options = churnOptions(8, 4, 8);
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

// Every malformed delta record is refused with CorruptData, whichever field
// is wrong; the well-formed insert and erase they are cut from round-trip.
TEST(ChurnPersistence, UnpackDeltaRejectsEveryMalformedRecord) {
    const auto word = tcam::TernaryWord::fromString("01X10X01");
    const store::Record insert = serve::packDelta(3, &word);
    const store::Record erase = serve::packDelta(3, nullptr);
    const auto decoded = serve::unpackDelta(insert, 8);
    EXPECT_EQ(decoded.row, 3);
    EXPECT_EQ(decoded.word, word);
    EXPECT_EQ(serve::unpackDelta(erase, 8).word, std::nullopt);

    struct Case {
        const char* what;
        store::Record record;
        int wordBits = 8;
    };
    std::vector<Case> cases;
    cases.push_back({"trit byte 3", insert});
    cases.back().record.payload[2] = 3;
    cases.push_back({"unknown op", insert});
    cases.back().record.key[1] = 3;
    cases.push_back({"negative row", serve::packDelta(-1, &word)});
    cases.push_back({"erase with a payload", erase});
    cases.back().record.payload = std::string(8, '\0');
    cases.push_back({"short key", insert});
    cases.back().record.key.pop_back();
    cases.push_back({"wrong version byte", insert});
    cases.back().record.key[0] = static_cast<char>(serve::kTableSchemaVersion + 1);
    cases.push_back({"wrong width", insert, 7});

    for (const auto& c : cases) {
        try {
            serve::unpackDelta(c.record, c.wordBits);
            ADD_FAILURE() << c.what << ": accepted";
        } catch (const recover::SimError& e) {
            EXPECT_EQ(e.reason(), recover::SimErrorReason::CorruptData) << c.what;
        }
    }
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
        auto o = churnOptions(wordBits, 4, capacity);
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

    auto options = churnOptions(8, 4, 8);
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
        EXPECT_EQ(result.rows[q], tcam::referenceFindFirst(naive.rows, keys[q])) << "query " << q;
}

}  // namespace

TEST(ChunkLayout, PriorityInsertAndEraseAcrossChunkEdges) {
    serve::QueryEngine engine(churnOptions(16, 4, kEdgeCapacity));
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

TEST(ChunkLayout, SimilarityHitsAcrossChunkEdges) {
    serve::QueryEngine engine(churnOptions(16, 4, kEdgeCapacity));
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

TEST(ChunkLayout, CompactAndWarmRestartAcrossChunkEdges) {
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "fetcam_churn_test_chunks").string();
    fs::remove_all(dir);
    auto options = churnOptions(16, 4, kEdgeCapacity);
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
    fs::remove_all(dir);
}

TEST(ChunkLayout, AnswersDoNotDependOnPricedShardRows) {
    auto cache = std::make_shared<serve::CharacterizationCache>();
    sim::SimilarityOptions nearest;
    nearest.k = 5;
    const auto keys = edgeKeys();
    std::optional<serve::BatchResult> first;
    std::optional<serve::SimilarityBatchResult> firstSim;
    for (const int shardRows : {4, 16, 1024}) {
        SCOPED_TRACE(shardRows);
        serve::QueryEngine engine(churnOptions(16, shardRows, kEdgeCapacity), cache);
        EXPECT_EQ(engine.rowsPerShard(), shardRows);
        NaiveTable naive(engine.capacity());
        populateEdgeTable(engine, naive);
        const auto exact = engine.searchBatch(keys, 2);
        const auto similar = engine.similarityBatch(keys, nearest, 2);
        for (std::size_t q = 0; q < keys.size(); ++q) {
            EXPECT_EQ(exact.rows[q], tcam::referenceFindFirst(naive.rows, keys[q]));
            EXPECT_EQ(similar.hits[q], sim::naiveSimilarity(naive.rows, keys[q], nearest));
        }
        if (!first) {
            first = exact;
            firstSim = similar;
            continue;
        }
        // Same rows and hits; only the priced energy/latency differ.
        EXPECT_EQ(exact.rows, first->rows);
        EXPECT_EQ(exact.hits, first->hits);
        EXPECT_EQ(similar.hits, firstSim->hits);
        EXPECT_EQ(similar.rowsReturned, firstSim->rowsReturned);
        EXPECT_NE(exact.energy, first->energy);
        EXPECT_NE(similar.energy, firstSim->energy);
    }
}

// ---------------------------------------------------------------------------
// With no reader pinned, the current root is the only one alive, so every
// write lands in place: no chunk is cloned, and the answers, entries and
// write accounting are exactly those of the reference.
// ---------------------------------------------------------------------------

TEST(ChurnEngine, SerialWritesCloneNoChunk) {
    struct ScopedObs {
        bool was = obs::enabled();
        ScopedObs() { obs::setEnabled(true); }
        ~ScopedObs() { obs::setEnabled(was); }
    } scopedObs;
    // The registry is process-wide: take the counter's delta around the calls.
    const obs::Counter& copies = obs::counter("serve.writes.chunk_copies");
    const long long copiesBefore = copies.value();

    serve::QueryEngine engine(churnOptions(16, 4, kEdgeCapacity));
    NaiveTable naive(kEdgeCapacity);
    numeric::Rng rng(31);
    std::int64_t inserts = 0, erases = 0;
    for (std::int64_t r = 0; r < kEdgeCapacity; ++r, ++inserts) {
        const auto word = definiteWord(rng.nextU64(), 16);
        ASSERT_EQ(engine.insert(word), naive.insert(word));
    }
    for (int i = 0; i < 400; ++i) {
        const std::int64_t row = i % 4 == 0 ? kEdgeRows[(i / 4) % std::size(kEdgeRows)]
                                            : rng.uniformInt(0, kEdgeCapacity - 1);
        auto& slot = naive.rows[static_cast<std::size_t>(row)];
        if (rng.bernoulli(0.5)) {
            engine.erase(row);
            erases += slot.has_value();
            slot.reset();
        } else {
            auto word = definiteWord(rng.nextU64(), 16);
            word[static_cast<std::size_t>(rng.uniformInt(0, 15))] = tcam::Trit::X;
            engine.insertAt(row, word);
            ++inserts;
            slot = word;
        }
        if (i % 100 == 99) expectSearchMatchesNaive(engine, naive);  // pins, then unpins
    }
    EXPECT_EQ(copies.value() - copiesBefore, 0);
    expectTableMatchesNaive(engine, naive);
    expectSearchMatchesNaive(engine, naive);

    // One charged write per effective mutation, exactly as before.
    const auto stats = engine.stats();
    const auto cost = engine.writeCost();
    EXPECT_EQ(stats.inserts, inserts);
    EXPECT_EQ(stats.erases, erases);
    double writeEnergy = 0.0;  // accumulated in the engine's order, so exact
    for (std::int64_t i = 0; i < inserts + erases; ++i) writeEnergy += cost.energy;
    EXPECT_EQ(stats.writeEnergy, writeEnergy);
    EXPECT_EQ(stats.writePulsePhases, (inserts + erases) * cost.pulsePhases);
    EXPECT_EQ(engine.occupancy(),
              std::count_if(naive.rows.begin(), naive.rows.end(),
                            [](const auto& w) { return w.has_value(); }));
}
