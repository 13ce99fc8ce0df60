// TCAM-layer tests: ternary semantics, storage encodings, bit-plane row
// overwrites, per-cell search truth tables exercised through full transient
// simulation, and write sequencers.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "array/word_sim.hpp"
#include "numeric/stats.hpp"
#include "tcam/bitplanes.hpp"
#include "tcam/cell.hpp"
#include "tcam/cell_builder.hpp"
#include "tcam/ternary.hpp"
#include "tcam/write.hpp"

using namespace fetcam;
using tcam::CellKind;
using tcam::TernaryWord;
using tcam::Trit;

TEST(Ternary, TritMatchSemantics) {
    EXPECT_TRUE(tritMatches(Trit::One, Trit::One));
    EXPECT_TRUE(tritMatches(Trit::Zero, Trit::Zero));
    EXPECT_FALSE(tritMatches(Trit::One, Trit::Zero));
    EXPECT_FALSE(tritMatches(Trit::Zero, Trit::One));
    EXPECT_TRUE(tritMatches(Trit::X, Trit::Zero));
    EXPECT_TRUE(tritMatches(Trit::X, Trit::One));
    EXPECT_TRUE(tritMatches(Trit::Zero, Trit::X));
    EXPECT_TRUE(tritMatches(Trit::X, Trit::X));
}

TEST(Ternary, StringRoundTrip) {
    const auto w = TernaryWord::fromString("01X*x1");
    EXPECT_EQ(w.toString(), "01XXX1");
    EXPECT_EQ(w.size(), 6u);
    EXPECT_EQ(w.wildcardCount(), 3u);
    EXPECT_EQ(w.definiteCount(), 3u);
    EXPECT_THROW(TernaryWord::fromString("012"), std::invalid_argument);
}

TEST(Ternary, FromBits) {
    EXPECT_EQ(TernaryWord::fromBits(0b1011, 4).toString(), "1011");
    EXPECT_EQ(TernaryWord::fromBits(0b1, 3).toString(), "001");
}

TEST(Ternary, WordMatchAndMismatchCount) {
    const auto stored = TernaryWord::fromString("1X0X");
    EXPECT_TRUE(stored.matches(TernaryWord::fromString("1100")));
    EXPECT_TRUE(stored.matches(TernaryWord::fromString("1001")));
    EXPECT_FALSE(stored.matches(TernaryWord::fromString("0100")));
    EXPECT_EQ(stored.mismatchCount(TernaryWord::fromString("0111")), 2u);
    EXPECT_EQ(stored.mismatchCount(TernaryWord::fromString("1X0X")), 0u);
    EXPECT_THROW(stored.matches(TernaryWord::fromString("11")), std::invalid_argument);
}

TEST(Ternary, UncheckedPathsAgreeWithChecked) {
    // On valid inputs a word matches a key exactly when no position is
    // definite-and-differing.
    numeric::Rng rng(11);
    for (int trial = 0; trial < 200; ++trial) {
        const auto bits = static_cast<std::size_t>(rng.uniformInt(1, 24));
        TernaryWord stored(bits), key(bits);
        for (std::size_t b = 0; b < bits; ++b) {
            const auto pick = [&] {
                const int t = rng.uniformInt(0, 2);
                return t == 0 ? Trit::Zero : (t == 1 ? Trit::One : Trit::X);
            };
            stored[b] = pick();
            key[b] = pick();
        }
        EXPECT_EQ(stored.matches(key), stored.mismatchCount(key) == 0);
    }
    // The checked entry points still reject width mismatches.
    EXPECT_THROW(TernaryWord(4).matches(TernaryWord(5)), std::invalid_argument);
    EXPECT_THROW(TernaryWord(4).mismatchCount(TernaryWord(5)), std::invalid_argument);
}

namespace {

// The packed word across its storage edges: empty, one word, the word
// boundary, the inline limit (128) and heap storage.
constexpr std::size_t kEdgeWidths[] = {0, 1, 63, 64, 65, 128, 129, 256};

Trit randomTrit(numeric::Rng& rng) {
    return static_cast<Trit>(rng.uniformInt(0, 2));
}

TernaryWord randomTernary(numeric::Rng& rng, std::size_t bits) {
    TernaryWord w(bits);
    for (std::size_t b = 0; b < bits; ++b) w[b] = randomTrit(rng);
    return w;
}

}  // namespace

TEST(TernaryWord, StringAndTritBytesRoundTripAtEveryWidth) {
    numeric::Rng rng(31);
    for (const std::size_t bits : kEdgeWidths) {
        SCOPED_TRACE(bits);
        std::string text(bits, '?');
        for (auto& c : text) c = "01X"[rng.uniformInt(0, 2)];
        const auto w = TernaryWord::fromString(text);
        EXPECT_EQ(w.size(), bits);
        EXPECT_EQ(w.toString(), text);
        std::string bytes = "prefix";
        tcam::appendTritBytes(bytes, w);
        ASSERT_EQ(bytes.size(), 6 + bits);
        for (std::size_t b = 0; b < bits; ++b)
            EXPECT_EQ(bytes[6 + b], static_cast<char>(w[b])) << "trit " << b;
        EXPECT_EQ(tcam::parseTritBytes(std::string_view(bytes).substr(6)), w);
    }
}

TEST(TernaryWord, CopyMoveAndSelfAssignmentAcrossInlineAndHeap) {
    numeric::Rng rng(37);
    for (const std::size_t from : kEdgeWidths)
        for (const std::size_t to : kEdgeWidths) {
            SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to));
            const auto source = randomTernary(rng, from);
            const std::string text = source.toString();
            TernaryWord copied = randomTernary(rng, to);
            copied = source;
            EXPECT_EQ(copied, source);
            EXPECT_EQ(copied.toString(), text);
            TernaryWord moved = randomTernary(rng, to);
            moved = TernaryWord(source);
            EXPECT_EQ(moved, source);
            TernaryWord constructed(std::move(copied));
            EXPECT_EQ(constructed.toString(), text);
            EXPECT_TRUE(copied.empty());
            // Writes to a copy never reach its source.
            if (from > 0) {
                TernaryWord changed(source);
                changed[from - 1] = source[from - 1] == Trit::X ? Trit::One : Trit::X;
                EXPECT_NE(changed, source);
                EXPECT_EQ(source.toString(), text);
            }
        }
    for (const std::size_t bits : kEdgeWidths) {
        auto w = randomTernary(rng, bits);
        const std::string text = w.toString();
        auto& alias = w;
        w = alias;
        EXPECT_EQ(w.toString(), text);
        w = std::move(alias);
        EXPECT_EQ(w.toString(), text);
    }
}

TEST(TernaryWord, ProxyWritesMatchAPerTritModel) {
    numeric::Rng rng(41);
    for (const std::size_t bits : kEdgeWidths) {
        if (bits == 0) continue;
        SCOPED_TRACE(bits);
        TernaryWord w(bits, Trit::One);
        std::vector<Trit> model(bits, Trit::One);
        for (int step = 0; step < 400; ++step) {
            const auto i = static_cast<std::size_t>(rng.uniformInt(0, static_cast<int>(bits) - 1));
            if (rng.bernoulli(0.5)) {
                const auto j =
                    static_cast<std::size_t>(rng.uniformInt(0, static_cast<int>(bits) - 1));
                w[i] = w[j];
                model[i] = model[j];
            } else {
                const Trit t = randomTrit(rng);
                w[i] = t;
                model[i] = t;
            }
        }
        for (std::size_t b = 0; b < bits; ++b) ASSERT_EQ(w[b], model[b]) << "trit " << b;
        // The same trits written in one go compare equal: X bits and padding
        // hold no stale value.
        TernaryWord fresh(bits);
        for (std::size_t b = 0; b < bits; ++b) fresh[b] = model[b];
        EXPECT_EQ(w, fresh);
    }
}

TEST(TernaryWord, ParseTritBytesRejectsAThreeAtWordEdges) {
    for (const std::size_t bits : kEdgeWidths) {
        if (bits == 0) continue;
        for (const std::size_t at : {std::size_t{0}, std::size_t{63}, std::size_t{64}, bits - 1}) {
            if (at >= bits) continue;
            SCOPED_TRACE(std::to_string(bits) + " @ " + std::to_string(at));
            std::string bytes(bits, '\2');
            EXPECT_TRUE(tcam::parseTritBytes(bytes).has_value());
            bytes[at] = 3;
            EXPECT_FALSE(tcam::parseTritBytes(bytes).has_value());
            bytes[at] = static_cast<char>(0x81);
            EXPECT_FALSE(tcam::parseTritBytes(bytes).has_value());
        }
    }
}

TEST(TernaryWord, MatchAndMismatchCountAgreeWithPerTritLoop) {
    numeric::Rng rng(43);
    for (const std::size_t bits : kEdgeWidths) {
        SCOPED_TRACE(bits);
        for (int trial = 0; trial < 50; ++trial) {
            const auto stored = randomTernary(rng, bits);
            // Every third key is the stored word with a few trits flipped, so
            // matches come up as well as misses.
            auto key = randomTernary(rng, bits);
            if (trial % 3 == 0) {
                key = stored;
                for (int f = 0; f < 2 && bits > 0; ++f) {
                    const auto i =
                        static_cast<std::size_t>(rng.uniformInt(0, static_cast<int>(bits) - 1));
                    key[i] = randomTrit(rng);
                }
            }
            std::size_t expected = 0;
            for (std::size_t b = 0; b < bits; ++b) expected += !tritMatches(stored[b], key[b]);
            EXPECT_EQ(stored.mismatchCount(key), expected);
            EXPECT_EQ(stored.matches(key), expected == 0);
            std::size_t wildcards = 0;
            for (std::size_t b = 0; b < bits; ++b) wildcards += stored[b] == Trit::X;
            EXPECT_EQ(stored.wildcardCount(), wildcards);
        }
    }
}

TEST(TernaryPlanes, MismatchCountsAbove255AndOnAPartialGroup) {
    // 512-bit all-definite rows: random rows differ from a definite key in
    // ~256 positions and the complement row in all 512, so counts need the
    // second byte of counter planes. 1024 + 70 rows leave a partial last
    // group; every fifth row is unoccupied and must read kNoEntry.
    constexpr int kBits = 512;
    constexpr std::int64_t kRows = 1024 + 70;
    numeric::Rng rng(47);
    tcam::TernaryPlanes planes(kBits, kRows);
    std::vector<std::optional<TernaryWord>> reference(static_cast<std::size_t>(kRows));
    for (std::int64_t r = 0; r < kRows; ++r) {
        if (r % 5 == 3) continue;
        TernaryWord w(kBits);
        for (std::size_t b = 0; b < kBits; ++b) w[b] = rng.bernoulli(0.5) ? Trit::One : Trit::Zero;
        planes.set(r, w);
        reference[static_cast<std::size_t>(r)] = w;
    }
    // Keys: the complement of the first and of the last occupied row (count
    // 512 on each), and one with a few X trits.
    std::vector<TernaryWord> keys;
    for (const std::int64_t r : {std::int64_t{0}, kRows - 2}) {
        TernaryWord key = *reference[static_cast<std::size_t>(r)];
        for (std::size_t b = 0; b < kBits; ++b)
            key[b] = key[b] == Trit::One ? Trit::Zero : Trit::One;
        keys.push_back(key);
    }
    keys.push_back(keys[0]);
    for (std::size_t b = 0; b < kBits; b += 7) keys.back()[b] = Trit::X;
    std::size_t above255 = 0;
    for (const auto& key : keys) {
        std::vector<std::size_t> got(static_cast<std::size_t>(kRows), 0xdead);
        planes.mismatchCounts(tcam::TernaryPlanes::prepare(key), got.data());
        for (std::int64_t r = 0; r < kRows; ++r) {
            const auto& slot = reference[static_cast<std::size_t>(r)];
            ASSERT_EQ(got[static_cast<std::size_t>(r)],
                      slot ? slot->mismatchCount(key) : tcam::kNoEntry)
                << "row " << r;
            above255 += slot && slot->mismatchCount(key) > 255;
        }
    }
    EXPECT_GT(above255, 500u);
    std::vector<std::size_t> got(static_cast<std::size_t>(kRows));
    planes.mismatchCounts(tcam::TernaryPlanes::prepare(keys[0]), got.data());
    EXPECT_EQ(got[0], 512u);
}

TEST(TernaryPlanes, OverwriteDecodesEveryTritTransitionExactly) {
    // Word position 3 * from + to goes from trit `from` to trit `to`, so one
    // overwrite covers all nine transitions of {0, 1, X} -> {0, 1, X}. Rows
    // sit at block and group edges and at the last row of a partial group.
    constexpr Trit kTrits[] = {Trit::Zero, Trit::One, Trit::X};
    constexpr std::int64_t kRows = 1024 + 3 * 64 + 37;  // partial second group
    TernaryWord before(9), after(9);
    for (int from = 0; from < 3; ++from)
        for (int to = 0; to < 3; ++to) {
            before[static_cast<std::size_t>(3 * from + to)] = kTrits[from];
            after[static_cast<std::size_t>(3 * from + to)] = kTrits[to];
        }
    // Every definite 9-bit key; each row matches some of them.
    std::vector<TernaryWord> keys;
    for (unsigned v = 0; v < 512; ++v) keys.push_back(TernaryWord::fromBits(v, 9));

    numeric::Rng rng(23);
    tcam::TernaryPlanes planes(9, kRows);
    std::vector<std::optional<TernaryWord>> reference(static_cast<std::size_t>(kRows));
    for (std::int64_t r = 0; r < kRows; ++r) {
        if (rng.bernoulli(0.3)) continue;
        TernaryWord w(9);
        for (std::size_t b = 0; b < w.size(); ++b) w[b] = kTrits[rng.uniformInt(0, 2)];
        planes.set(r, w);
        reference[static_cast<std::size_t>(r)] = w;
    }
    for (const std::int64_t row : {std::int64_t{0}, std::int64_t{63}, std::int64_t{64},
                                   std::int64_t{1023}, std::int64_t{1024}, kRows - 1}) {
        SCOPED_TRACE(row);
        for (const auto& [first, second] : {std::pair{before, after}, std::pair{after, before}}) {
            planes.set(row, first);
            planes.set(row, second);
            reference[static_cast<std::size_t>(row)] = second;
            ASSERT_EQ(planes.at(row), second) << second.toString();
            for (const auto& key : keys) {
                const auto slices = tcam::TernaryPlanes::prepare(key);
                ASSERT_EQ(planes.findFirst(row, row + 1, slices),
                          second.matches(key) ? row : -1)
                    << key.toString();
                ASSERT_EQ(planes.findFirst(0, kRows, slices),
                          tcam::referenceFindFirst(reference, key))
                    << key.toString();
            }
        }
    }
    // The overwrites disturbed no other row.
    for (std::int64_t r = 0; r < kRows; ++r)
        ASSERT_EQ(planes.at(r), reference[static_cast<std::size_t>(r)]) << "row " << r;
}

TEST(Cell, DeviceCounts) {
    EXPECT_EQ(cellDeviceCount(CellKind::Cmos16T).transistors, 16);
    EXPECT_EQ(cellDeviceCount(CellKind::ReRam2T2R).transistors, 2);
    EXPECT_EQ(cellDeviceCount(CellKind::ReRam2T2R).rerams, 2);
    EXPECT_EQ(cellDeviceCount(CellKind::FeFet2).fefets, 2);
}

TEST(Cell, EncodingTruthTable) {
    // Stored 1 must discharge on key 0 (SLB branch), hold on key 1.
    const auto one = tcam::encodeTrit(Trit::One);
    EXPECT_FALSE(one.aEnabled);
    EXPECT_TRUE(one.bEnabled);
    const auto zero = tcam::encodeTrit(Trit::Zero);
    EXPECT_TRUE(zero.aEnabled);
    EXPECT_FALSE(zero.bEnabled);
    const auto x = tcam::encodeTrit(Trit::X);
    EXPECT_FALSE(x.aEnabled);
    EXPECT_FALSE(x.bEnabled);
}

TEST(Cell, SearchDrive) {
    EXPECT_TRUE(tcam::searchDrive(Trit::One).sl);
    EXPECT_FALSE(tcam::searchDrive(Trit::One).slb);
    EXPECT_FALSE(tcam::searchDrive(Trit::Zero).sl);
    EXPECT_TRUE(tcam::searchDrive(Trit::Zero).slb);
    EXPECT_FALSE(tcam::searchDrive(Trit::X).sl);
    EXPECT_FALSE(tcam::searchDrive(Trit::X).slb);
}

// ---------------------------------------------------------------------------
// Full truth-table verification per cell technology through circuit
// simulation: 3 stored states x 3 key states on a 4-bit word.
// ---------------------------------------------------------------------------

struct TruthCase {
    CellKind kind;
    Trit stored;
    Trit key;
};

class CellTruthTable : public ::testing::TestWithParam<TruthCase> {};

TEST_P(CellTruthTable, SimulatedDecisionMatchesGoldenModel) {
    const auto [kind, stored, key] = GetParam();
    array::WordSimOptions o;
    o.config.cell = kind;
    o.config.wordBits = 4;
    // Word: the probed trit plus three stored-X padding cells.
    o.stored = tcam::TernaryWord(4, Trit::X);
    o.stored[1] = stored;
    o.key = tcam::TernaryWord(4, Trit::X);
    o.key[1] = key;

    const auto r = simulateWordSearch(o);
    EXPECT_EQ(r.expectedMatch, tritMatches(stored, key));
    EXPECT_EQ(r.matchDetected, r.expectedMatch)
        << cellKindName(kind) << " stored=" << static_cast<int>(stored)
        << " key=" << static_cast<int>(key) << " mlAtSense=" << r.mlAtSense;
}

static std::vector<TruthCase> allTruthCases() {
    std::vector<TruthCase> cases;
    for (CellKind k : {CellKind::Cmos16T, CellKind::ReRam2T2R, CellKind::FeFet2})
        for (Trit s : {Trit::Zero, Trit::One, Trit::X})
            for (Trit q : {Trit::Zero, Trit::One, Trit::X})
                cases.push_back({k, s, q});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCells, CellTruthTable, ::testing::ValuesIn(allTruthCases()));

// ---------------------------------------------------------------------------
// Write sequencers.
// ---------------------------------------------------------------------------

TEST(Write, FeFetWriteVerifiesAndCostsEnergy) {
    const auto tech = device::TechCard::cmos45();
    const auto r = measureWriteEnergy(CellKind::FeFet2, tech);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.energyPerBit, 0.0);
    EXPECT_LT(r.energyPerBit, 1e-12);  // sub-pJ per bit expected
}

TEST(Write, ReramWriteVerifiesAndCostsEnergy) {
    const auto tech = device::TechCard::cmos45();
    const auto r = measureWriteEnergy(CellKind::ReRam2T2R, tech);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.energyPerBit, 0.0);
}

TEST(Write, SramWriteFlipsCell) {
    const auto tech = device::TechCard::cmos45();
    const auto r = tcam::measureSramWrite(tech);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.energyPerBit, 0.0);
    EXPECT_LT(r.energyPerBit, 100e-15);  // a few fJ to flip a 6T cell
}

TEST(Write, FeFetShorterPulseUsesLessEnergyButMayFail) {
    const auto tech = device::TechCard::cmos45();
    const auto full = tcam::measureFeFetWrite(tech, tech.vWriteFe, tech.tWriteFe);
    const auto brief = tcam::measureFeFetWrite(tech, tech.vWriteFe, 2e-9);
    EXPECT_TRUE(full.verified);
    EXPECT_LT(brief.energyPerBit, full.energyPerBit);
}

TEST(Write, HalfSelectDisturbCorruptsButThirdSelectHolds) {
    const auto tech = device::TechCard::cmos45();
    const double vw = tech.vWriteFe;
    // V/2 on unselected gates exceeds the coercive tail: partial flip.
    const double half = tcam::measureWriteDisturb(tech, vw / 2.0, 10, tech.tWriteFe);
    EXPECT_GT(half, -0.5);
    // V/3 sits under the tail: state must hold through many disturbs.
    const double third =
        tcam::measureWriteDisturb(tech, vw / 3.0, 1, 1e6 * tech.tWriteFe);
    EXPECT_LT(third, -0.99);
    EXPECT_THROW(tcam::measureWriteDisturb(tech, 1.0, -1, 1e-9), std::invalid_argument);
}

TEST(Write, ReramWriteLowVoltageFails) {
    const auto tech = device::TechCard::cmos45();
    const auto weak = tcam::measureReramWrite(tech, 1.0, tech.tWriteReram);
    EXPECT_FALSE(weak.verified);  // below both thresholds: state cannot SET
}
