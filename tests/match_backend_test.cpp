// Differential tests for the pluggable functional-match backends.
//
// The contract under test: every backend is bit-identical to a naive
// reference built directly on TernaryWord::matches / mismatchCount over the
// stored entries. The fuzz sweeps widths across machine-word boundaries
// (1..256, deliberately including non-multiples of 64), row counts beyond
// one 64-row block and beyond one 1024-row plane group (with a partial last
// group), all-X rows, empty slots, keys with X trits, and random [begin, end)
// sub-ranges, some straddling a group edge — everywhere the bit-plane
// partial-block and partial-group masking could go wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "numeric/stats.hpp"
#include "recover/sim_error.hpp"
#include "serve/char_cache.hpp"
#include "serve/match_backend.hpp"
#include "serve/query_engine.hpp"

using namespace fetcam;

namespace {

tcam::TernaryWord randomWord(numeric::Rng& rng, int bits, double xDensity) {
    tcam::TernaryWord w(static_cast<std::size_t>(bits));
    for (int b = 0; b < bits; ++b)
        w[static_cast<std::size_t>(b)] =
            rng.uniform() < xDensity
                ? tcam::Trit::X
                : (rng.bernoulli(0.5) ? tcam::Trit::One : tcam::Trit::Zero);
    return w;
}

/// The trusted reference: a plain row-major table queried through the
/// public TernaryWord operations, no backend machinery involved.
struct NaiveTable {
    std::vector<std::optional<tcam::TernaryWord>> rows;

    std::int64_t findFirst(std::int64_t begin, std::int64_t end,
                           const tcam::TernaryWord& key) const {
        for (std::int64_t r = begin; r < end; ++r)
            if (rows[static_cast<std::size_t>(r)] &&
                rows[static_cast<std::size_t>(r)]->matches(key))
                return r;
        return -1;
    }

    std::vector<std::size_t> mismatchCounts(const tcam::TernaryWord& key) const {
        std::vector<std::size_t> out(rows.size(), tcam::kNoEntry);
        for (std::size_t r = 0; r < rows.size(); ++r)
            if (rows[r]) out[r] = rows[r]->mismatchCount(key);
        return out;
    }
};

/// A backend's mismatch counts in a fresh, poisoned buffer, so a kernel that
/// leaves rows unwritten cannot pass on an earlier backend's output.
std::vector<std::size_t> countsOf(const serve::MatchBackend& backend,
                                  const serve::PreparedKey& key) {
    std::vector<std::size_t> out(static_cast<std::size_t>(backend.rows()), 0xdead);
    backend.mismatchCounts(key, out.data());
    return out;
}

}  // namespace

TEST(MatchBackend, ParseAndNameRoundTrip) {
    EXPECT_EQ(serve::parseBackendKind("scalar"), serve::MatchBackendKind::Scalar);
    EXPECT_EQ(serve::parseBackendKind("bitplane"), serve::MatchBackendKind::BitPlane);
    EXPECT_EQ(serve::parseBackendKind("checked"), serve::MatchBackendKind::Checked);
    for (const auto kind :
         {serve::MatchBackendKind::Scalar, serve::MatchBackendKind::BitPlane,
          serve::MatchBackendKind::Checked})
        EXPECT_EQ(serve::parseBackendKind(serve::backendName(kind)), kind);
    EXPECT_THROW(serve::parseBackendKind("simd"), recover::SimError);
    EXPECT_THROW(serve::parseBackendKind(""), recover::SimError);
}

TEST(MatchBackend, FactoryProducesRequestedKindAllRowsEmpty) {
    for (const auto kind :
         {serve::MatchBackendKind::Scalar, serve::MatchBackendKind::BitPlane,
          serve::MatchBackendKind::Checked}) {
        const auto b = serve::makeMatchBackend(kind, 70, 8);
        EXPECT_EQ(b->kind(), kind);
        EXPECT_EQ(b->rows(), 70);
        EXPECT_EQ(b->bits(), 8);
        for (std::int64_t r = 0; r < 70; ++r) EXPECT_FALSE(b->at(r).has_value());
        const auto key = tcam::TernaryWord(8, tcam::Trit::Zero);
        EXPECT_EQ(b->findFirst(0, 70, b->prepare(key)), -1);
    }
}

// The main differential fuzz: scalar, bit-plane and checked backends vs the
// naive reference, across widths that straddle 64-bit boundaries.
TEST(MatchBackend, DifferentialFuzzAgainstNaiveReference) {
    numeric::Rng rng(2026);
    // Row counts cross the one-block boundary for every width at least once;
    // 130 exercises two full blocks plus a partial third. 1030 and 2100 cross
    // one and two 1024-row groups and end in a partial group.
    std::vector<std::pair<int, std::int64_t>> cases;
    for (const int bits : {1, 3, 7, 31, 64, 65, 127, 128, 200, 256})
        cases.emplace_back(bits, bits <= 31 ? 130 : 70);
    for (const std::int64_t rows : {1030, 2100})
        for (const int bits : {64, 256}) cases.emplace_back(bits, rows);
    for (const auto& [bits, rows] : cases) {
        NaiveTable naive;
        naive.rows.resize(static_cast<std::size_t>(rows));
        auto scalar = serve::makeMatchBackend(serve::MatchBackendKind::Scalar, rows, bits);
        auto planes = serve::makeMatchBackend(serve::MatchBackendKind::BitPlane, rows, bits);
        auto checked = serve::makeMatchBackend(serve::MatchBackendKind::Checked, rows, bits);
        const auto store = [&](std::int64_t r, const tcam::TernaryWord& w) {
            naive.rows[static_cast<std::size_t>(r)] = w;
            scalar->set(r, w);
            planes->set(r, w);
            checked->set(r, w);
        };
        const auto drop = [&](std::int64_t r) {
            naive.rows[static_cast<std::size_t>(r)].reset();
            scalar->clear(r);
            planes->clear(r);
            checked->clear(r);
        };

        for (std::int64_t r = 0; r < rows; ++r) {
            if (rng.uniform() < 0.10) continue;  // empty slot
            store(r, rng.uniform() < 0.05
                         ? tcam::TernaryWord(static_cast<std::size_t>(bits))  // all-X
                         : randomWord(rng, bits, 0.25));
        }

        for (int round = 0; round < 3; ++round) {
            for (int q = 0; q < 25; ++q) {
                // Keys may themselves carry X trits (skipped bit-planes); some
                // are a stored row with its X trits filled in, so they hit.
                auto key = randomWord(rng, bits, q % 5 == 0 ? 0.3 : 0.0);
                const auto& stored = naive.rows[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<int>(rows) - 1))];
                if (q % 5 == 3 && stored) {
                    for (std::size_t b = 0; b < key.size(); ++b)
                        if ((*stored)[b] != tcam::Trit::X) key[b] = (*stored)[b];
                }
                const auto ps = scalar->prepare(key);
                const auto pp = planes->prepare(key);
                const auto pc = checked->prepare(key);

                // Full range plus random sub-ranges, including empty ones, and
                // ranges that start and end inside groups across a group edge.
                std::int64_t begin = 0, end = rows;
                if (q % 3 == 1) {
                    begin = rng.uniformInt(0, static_cast<int>(rows));
                    end = rng.uniformInt(static_cast<int>(begin), static_cast<int>(rows));
                } else if (q % 3 == 2 && rows > 1024) {
                    const std::int64_t edge =
                        1024 * rng.uniformInt(1, static_cast<int>(rows / 1024));
                    begin = edge - rng.uniformInt(1, 100);
                    end = std::min(rows, edge + rng.uniformInt(1, 100));
                }
                const auto want = naive.findFirst(begin, end, key);
                EXPECT_EQ(scalar->findFirst(begin, end, ps), want)
                    << "scalar bits=" << bits << " [" << begin << "," << end << ")";
                EXPECT_EQ(planes->findFirst(begin, end, pp), want)
                    << "bitplane bits=" << bits << " [" << begin << "," << end << ")";
                EXPECT_EQ(checked->findFirst(begin, end, pc), want)
                    << "checked bits=" << bits << " [" << begin << "," << end << ")";

                const auto wantCounts = naive.mismatchCounts(key);
                EXPECT_EQ(countsOf(*scalar, ps), wantCounts) << "scalar bits=" << bits;
                EXPECT_EQ(countsOf(*planes, pp), wantCounts) << "bitplane bits=" << bits;
                EXPECT_EQ(countsOf(*checked, pc), wantCounts) << "checked bits=" << bits;
            }
            // Mutate between rounds: the planes must stay consistent under
            // incremental set/clear, not just bulk load.
            for (int m = 0; m < 20; ++m) {
                const auto r = rng.uniformInt(0, static_cast<int>(rows) - 1);
                if (rng.bernoulli(0.4))
                    drop(r);
                else
                    store(r, randomWord(rng, bits, 0.25));
            }
        }

        // at() mirrors the naive table exactly after all the churn.
        for (std::int64_t r = 0; r < rows; ++r) {
            const auto& want = naive.rows[static_cast<std::size_t>(r)];
            for (const auto* b : {scalar.get(), planes.get(), checked.get()}) {
                const auto& got = b->at(r);
                ASSERT_EQ(got.has_value(), want.has_value());
                if (want) {
                    EXPECT_EQ(got->toString(), want->toString());
                }
            }
        }
    }
}

// Dedicated mismatchCounts fuzz at wildcard densities the main fuzz only
// grazes: stored rows that are 0%, 50% and 100% X trits, at widths exactly
// straddling the 64-bit plane-word boundary and at odd widths (5, 77), and
// on tables that cross one or two 1024-row plane groups into a partial last
// group. A stored X never
// counts as a mismatch regardless of the key bit — the kill planes and the
// partial-block and partial-group tails must all get this right, since
// similarity search (nearestK / thresholdMatch) is built on these counts.
TEST(MatchBackend, MismatchCountsWildcardRowsAtWordBoundaries) {
    numeric::Rng rng(4242);
    std::vector<std::pair<int, std::int64_t>> cases;
    for (const int bits : {5, 63, 64, 65, 77, 127, 128, 129})
        cases.emplace_back(bits, 70);  // one full 64-row block + a tail
    for (const int bits : {5, 77}) cases.emplace_back(bits, 1030);
    for (const std::int64_t rows : {1030, 2100})
        for (const int bits : {64, 256}) cases.emplace_back(bits, rows);
    for (const auto& [bits, rows] : cases) {
        for (const double xDensity : {0.0, 0.5, 1.0}) {
            NaiveTable naive;
            naive.rows.resize(static_cast<std::size_t>(rows));
            auto scalar =
                serve::makeMatchBackend(serve::MatchBackendKind::Scalar, rows, bits);
            auto planes =
                serve::makeMatchBackend(serve::MatchBackendKind::BitPlane, rows, bits);
            auto checked =
                serve::makeMatchBackend(serve::MatchBackendKind::Checked, rows, bits);

            for (std::int64_t r = 0; r < rows; ++r) {
                if (r % 9 == 4) continue;  // empty slots stay kNoEntry
                const auto w = randomWord(rng, bits, xDensity);
                naive.rows[static_cast<std::size_t>(r)] = w;
                scalar->set(r, w);
                planes->set(r, w);
                checked->set(r, w);
            }

            for (int q = 0; q < 20; ++q) {
                // Keys both fully definite and with their own X trits.
                const auto key = randomWord(rng, bits, q % 4 == 0 ? 0.3 : 0.0);
                const auto want = naive.mismatchCounts(key);
                EXPECT_EQ(countsOf(*scalar, scalar->prepare(key)), want)
                    << "scalar bits=" << bits << " x=" << xDensity;
                EXPECT_EQ(countsOf(*planes, planes->prepare(key)), want)
                    << "bitplane bits=" << bits << " x=" << xDensity;
                const auto got = countsOf(*checked, checked->prepare(key));
                EXPECT_EQ(got, want) << "checked bits=" << bits << " x=" << xDensity;
                // All-X rows match every key: their count must be exactly 0.
                if (xDensity == 1.0) {
                    for (std::int64_t r = 0; r < rows; ++r) {
                        if (naive.rows[static_cast<std::size_t>(r)]) {
                            EXPECT_EQ(got[static_cast<std::size_t>(r)], 0u);
                        }
                    }
                }
            }
        }
    }
}

// Engine-level equivalence: the backend choice must be invisible in results
// — cold vs warm, jobs=1 vs jobs=N, across all three backends.
TEST(MatchBackend, QueryEngineResultsIdenticalAcrossBackends) {
    auto cache = std::make_shared<serve::CharacterizationCache>();
    numeric::Rng rng(7);

    std::vector<tcam::TernaryWord> words;
    for (int i = 0; i < 12; ++i) words.push_back(randomWord(rng, 8, 0.25));
    std::vector<tcam::TernaryWord> keys;
    for (int i = 0; i < 64; ++i) keys.push_back(randomWord(rng, 8, 0.0));

    std::vector<std::vector<std::int64_t>> perBackend;
    for (const auto kind :
         {serve::MatchBackendKind::Scalar, serve::MatchBackendKind::BitPlane,
          serve::MatchBackendKind::Checked}) {
        serve::EngineOptions options;
        options.shard.cell = tcam::CellKind::FeFet2;
        options.shard.sense = array::SenseScheme::LowSwing;
        options.shard.wordBits = 8;
        options.shard.rows = 4;
        options.capacity = 12;
        options.backend = kind;

        serve::QueryEngine engine(options, cache);
        EXPECT_EQ(engine.backendKind(), kind);
        for (std::int64_t i = 0; i < 12; ++i)
            engine.insertAt(i, words[static_cast<std::size_t>(i)]);
        engine.erase(3);
        engine.erase(7);

        const auto serial = engine.searchBatch(keys, 1);
        const auto parallel = engine.searchBatch(keys, 5);
        EXPECT_EQ(serial.rows, parallel.rows);
        EXPECT_EQ(serial.hits, parallel.hits);
        perBackend.push_back(serial.rows);
    }
    ASSERT_EQ(perBackend.size(), 3u);
    EXPECT_EQ(perBackend[0], perBackend[1]);  // scalar == bitplane
    EXPECT_EQ(perBackend[0], perBackend[2]);  // scalar == checked
}

TEST(MatchBackend, CloneIsADeepIndependentCopy) {
    // The copy-on-write primitive behind the engine's snapshot mutations: a
    // clone and its source must never share storage, on every backend and on
    // widths/rows straddling the 64-bit plane blocks.
    const serve::MatchBackendKind kinds[] = {serve::MatchBackendKind::Scalar,
                                             serve::MatchBackendKind::BitPlane,
                                             serve::MatchBackendKind::Checked};
    numeric::Rng rng(31);
    for (const auto kind : kinds) {
        for (const int bits : {1, 64, 65}) {
            for (const std::int64_t rows : {3ll, 64ll, 70ll}) {
                auto original = serve::makeMatchBackend(kind, rows, bits);
                for (std::int64_t r = 0; r < rows; r += 2)
                    original->set(r, randomWord(rng, bits, 0.3));

                auto copy = original->clone();
                ASSERT_EQ(copy->kind(), original->kind());
                ASSERT_EQ(copy->rows(), rows);
                ASSERT_EQ(copy->bits(), bits);
                for (std::int64_t r = 0; r < rows; ++r)
                    ASSERT_EQ(copy->at(r), original->at(r))
                        << serve::backendName(kind) << " " << bits << "b row " << r;

                // Diverge the copy: the original must not move.
                const auto before = original->at(0);
                copy->set(0, randomWord(rng, bits, 0.0));
                copy->clear(2 % rows);
                EXPECT_EQ(original->at(0), before);
                if (rows > 2) {
                    EXPECT_EQ(original->at(2).has_value(), true);
                }

                // And mutate the original: the copy must not move either.
                const auto copyRow = copy->at(0);
                original->clear(0);
                EXPECT_EQ(copy->at(0), copyRow);
            }
        }
    }
}
