// Differential tests for the bit-plane match chunk (serve::MatchBackend).
//
// The contract under test: the chunk is bit-identical to the reference scan
// (tcam::referenceFindFirst, TernaryWord::mismatchCount) over the same
// optional-word table. The fuzz sweeps widths across machine-word boundaries
// (1..256, deliberately including non-multiples of 64), row counts beyond
// one 64-row block and beyond one 1024-row plane group (with a partial last
// group), all-X rows, empty slots, keys with X trits, and random [begin, end)
// sub-ranges, some straddling a group edge, and keys whose only or lowest
// match is a partial group's last row or a row at a group edge — everywhere
// the bit-plane partial-block and partial-group masking could go wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "numeric/stats.hpp"
#include "recover/sim_error.hpp"
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

using Reference = std::vector<std::optional<tcam::TernaryWord>>;

/// The reference counts: TernaryWord::mismatchCount row by row.
std::vector<std::size_t> referenceCounts(const Reference& rows, const tcam::TernaryWord& key) {
    std::vector<std::size_t> out(rows.size(), tcam::kNoEntry);
    for (std::size_t r = 0; r < rows.size(); ++r)
        if (rows[r]) out[r] = rows[r]->mismatchCount(key);
    return out;
}

/// The chunk's mismatch counts in a fresh, poisoned buffer, so a kernel that
/// leaves rows unwritten cannot pass on an earlier call's output.
std::vector<std::size_t> countsOf(const serve::MatchBackend& backend,
                                  const serve::PreparedKey& key) {
    std::vector<std::size_t> out(static_cast<std::size_t>(backend.rows()), 0xdead);
    backend.mismatchCounts(key, out.data());
    return out;
}

}  // namespace

TEST(MatchBackend, FactoryProducesRequestedKindAllRowsEmpty) {
    const auto b = serve::makeMatchBackend(serve::MatchBackendKind::BitPlane, 70, 8);
    EXPECT_EQ(b->rows(), 70);
    EXPECT_EQ(b->bits(), 8);
    for (std::int64_t r = 0; r < 70; ++r) EXPECT_FALSE(b->at(r).has_value());
    const auto key = tcam::TernaryWord(8, tcam::Trit::Zero);
    EXPECT_EQ(b->findFirst(0, 70, b->prepare(key)), -1);
    EXPECT_THROW(serve::makeMatchBackend(serve::MatchBackendKind::BitPlane, 1,
                                         tcam::TernaryPlanes::kMaxBits + 1),
                 recover::SimError);
    EXPECT_THROW(serve::makeMatchBackend(serve::MatchBackendKind::BitPlane, -1, 8),
                 recover::SimError);
}

// The main differential fuzz: the bit-plane chunk vs the reference scan,
// across widths that straddle 64-bit boundaries.
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
        Reference reference(static_cast<std::size_t>(rows));
        tcam::TernaryPlanes planes(bits, rows);
        const auto store = [&](std::int64_t r, const tcam::TernaryWord& w) {
            reference[static_cast<std::size_t>(r)] = w;
            planes.set(r, w);
        };
        const auto drop = [&](std::int64_t r) {
            reference[static_cast<std::size_t>(r)].reset();
            planes.clear(r);
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
                const auto& stored = reference[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<int>(rows) - 1))];
                if (q % 5 == 3 && stored) {
                    for (std::size_t b = 0; b < key.size(); ++b)
                        if ((*stored)[b] != tcam::Trit::X) key[b] = (*stored)[b];
                }
                const auto prepared = planes.prepare(key);

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
                EXPECT_EQ(planes.findFirst(begin, end, prepared),
                          tcam::referenceFindFirst(reference, key, begin, end))
                    << "bits=" << bits << " [" << begin << "," << end << ")";
                EXPECT_EQ(countsOf(planes, prepared), referenceCounts(reference, key))
                    << "bits=" << bits;
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

        // Random keys almost never make an edge row the first match, so aim
        // at them: the last row (of a partial group in every case), and rows
        // 1023/1024 across a group edge, as the only match and as the lowest
        // of several. Rows below the target that match the key are emptied.
        std::vector<std::int64_t> targets = {rows - 1};
        if (rows > 1024) targets.insert(targets.end(), {1023, 1024});
        for (const std::int64_t target : targets) {
            for (const bool alone : {true, false}) {
                const auto key = randomWord(rng, bits, 0.0);
                for (std::int64_t r = 0; r < rows; ++r) {
                    const auto& w = reference[static_cast<std::size_t>(r)];
                    if (r != target && w && w->matches(key) && (alone || r < target)) drop(r);
                }
                auto word = randomWord(rng, bits, 0.25);
                for (std::size_t b = 0; b < word.size(); ++b)
                    if (word[b] != tcam::Trit::X) word[b] = key[b];
                store(target, word);
                if (!alone && target + 1 < rows) store(rows - 1, key);
                const auto prepared = planes.prepare(key);
                const std::int64_t want = tcam::referenceFindFirst(reference, key);
                ASSERT_EQ(want, target);
                EXPECT_EQ(planes.findFirst(0, rows, prepared), want)
                    << "bits=" << bits << " rows=" << rows << " alone=" << alone;
                EXPECT_EQ(planes.findFirst(target - target % 1024, rows, prepared), want)
                    << "bits=" << bits << " rows=" << rows << " alone=" << alone;
                EXPECT_EQ(countsOf(planes, prepared), referenceCounts(reference, key))
                    << "bits=" << bits;
            }
        }

        // at() mirrors the reference exactly after all the churn.
        for (std::int64_t r = 0; r < rows; ++r) {
            const auto& want = reference[static_cast<std::size_t>(r)];
            const auto got = planes.at(r);
            ASSERT_EQ(got.has_value(), want.has_value());
            if (want) {
                EXPECT_EQ(got->toString(), want->toString());
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
            Reference reference(static_cast<std::size_t>(rows));
            tcam::TernaryPlanes planes(bits, rows);

            for (std::int64_t r = 0; r < rows; ++r) {
                if (r % 9 == 4) continue;  // empty slots stay kNoEntry
                const auto w = randomWord(rng, bits, xDensity);
                reference[static_cast<std::size_t>(r)] = w;
                planes.set(r, w);
            }

            for (int q = 0; q < 20; ++q) {
                // Keys both fully definite and with their own X trits.
                const auto key = randomWord(rng, bits, q % 4 == 0 ? 0.3 : 0.0);
                const auto got = countsOf(planes, planes.prepare(key));
                EXPECT_EQ(got, referenceCounts(reference, key))
                    << "bits=" << bits << " x=" << xDensity;
                // All-X rows match every key: their count must be exactly 0.
                if (xDensity == 1.0) {
                    for (std::int64_t r = 0; r < rows; ++r) {
                        if (reference[static_cast<std::size_t>(r)]) {
                            EXPECT_EQ(got[static_cast<std::size_t>(r)], 0u);
                        }
                    }
                }
            }
        }
    }
}

// Engine level: the chunked, tiled, multi-worker search answers exactly as
// the reference scan does, at jobs=1 and jobs=5 over a table with holes.
TEST(MatchBackend, QueryEngineMatchesReferenceAtAnyJobs) {
    numeric::Rng rng(7);

    std::vector<tcam::TernaryWord> words;
    for (int i = 0; i < 12; ++i) words.push_back(randomWord(rng, 8, 0.25));
    std::vector<tcam::TernaryWord> keys;
    for (int i = 0; i < 64; ++i) keys.push_back(randomWord(rng, 8, 0.0));

    serve::EngineOptions options;
    options.shard.cell = tcam::CellKind::FeFet2;
    options.shard.sense = array::SenseScheme::LowSwing;
    options.shard.wordBits = 8;
    options.shard.rows = 4;
    options.capacity = 12;
    options.batchSize = 16;  // four tiles, so jobs=5 fans out

    serve::QueryEngine engine(options);
    Reference reference(12);
    for (std::int64_t i = 0; i < 12; ++i) {
        engine.insertAt(i, words[static_cast<std::size_t>(i)]);
        reference[static_cast<std::size_t>(i)] = words[static_cast<std::size_t>(i)];
    }
    for (const std::int64_t row : {3, 7}) {
        engine.erase(row);
        reference[static_cast<std::size_t>(row)].reset();
    }

    std::vector<std::int64_t> want;
    std::int64_t hits = 0;
    for (const auto& key : keys) {
        want.push_back(tcam::referenceFindFirst(reference, key));
        hits += want.back() >= 0;
    }
    for (const int jobs : {1, 5}) {
        const auto result = engine.searchBatch(keys, jobs);
        EXPECT_EQ(result.rows, want) << "jobs " << jobs;
        EXPECT_EQ(result.hits, hits) << "jobs " << jobs;
    }
}

TEST(MatchBackend, CloneIsADeepIndependentCopy) {
    // The copy-on-write primitive behind the engine's snapshot mutations: a
    // clone and its source must never share storage, on widths/rows
    // straddling the 64-bit plane blocks.
    numeric::Rng rng(31);
    for (const int bits : {1, 64, 65}) {
        for (const std::int64_t rows : {3ll, 64ll, 70ll}) {
            auto original = serve::makeMatchBackend(serve::MatchBackendKind::BitPlane, rows, bits);
            for (std::int64_t r = 0; r < rows; r += 2)
                original->set(r, randomWord(rng, bits, 0.3));

            auto copy = original->clone();
            ASSERT_EQ(copy->rows(), rows);
            ASSERT_EQ(copy->bits(), bits);
            for (std::int64_t r = 0; r < rows; ++r)
                ASSERT_EQ(copy->at(r), original->at(r)) << bits << "b row " << r;

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
