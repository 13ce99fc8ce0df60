// Array-layer tests: word-level search simulation across cell kinds and
// sensing schemes, the analytic array energy model (including its
// concurrent calibration sims under fault plans and tracing), and Monte
// Carlo.
#include <gtest/gtest.h>

#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "array/bank.hpp"
#include "array/energy_model.hpp"
#include "array/montecarlo.hpp"
#include "array/word_sim.hpp"
#include "obs/obs.hpp"
#include "obs/trace_reader.hpp"
#include "recover/fault_injection.hpp"
#include "recover/sim_error.hpp"

using namespace fetcam;
using array::ArrayConfig;
using array::SenseScheme;
using array::WordSimOptions;
using tcam::CellKind;
using tcam::TernaryWord;

namespace {

WordSimOptions makeOptions(CellKind cell, SenseScheme sense, int bits, int mismatches) {
    WordSimOptions o;
    o.config.cell = cell;
    o.config.sense = sense;
    o.config.wordBits = bits;
    o.stored = array::calibrationWord(bits);
    o.key = mismatches == 0 ? o.stored : array::keyWithMismatches(o.stored, mismatches);
    return o;
}

}  // namespace

// Decision correctness for every (cell, scheme) pair, match and mismatch.
struct SchemeCase {
    CellKind cell;
    SenseScheme sense;
};

class WordDecision : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(WordDecision, MatchAndMismatchResolvedCorrectly) {
    const auto [cell, sense] = GetParam();
    const auto match = simulateWordSearch(makeOptions(cell, sense, 8, 0));
    EXPECT_TRUE(match.expectedMatch);
    EXPECT_TRUE(match.matchDetected)
        << "false mismatch, mlAtSense=" << match.mlAtSense;
    EXPECT_FALSE(match.detectDelay.has_value());

    const auto mism = simulateWordSearch(makeOptions(cell, sense, 8, 1));
    EXPECT_FALSE(mism.expectedMatch);
    EXPECT_FALSE(mism.matchDetected)
        << "missed mismatch, mlAtSense=" << mism.mlAtSense;
    EXPECT_TRUE(mism.detectDelay.has_value());
    // The mismatching matchline must actually discharge well below the
    // matching one.
    EXPECT_LT(mism.mlAtSense, 0.5 * match.mlAtSense + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, WordDecision,
    ::testing::Values(SchemeCase{CellKind::Cmos16T, SenseScheme::FullSwing},
                      SchemeCase{CellKind::ReRam2T2R, SenseScheme::FullSwing},
                      SchemeCase{CellKind::FeFet2, SenseScheme::FullSwing},
                      SchemeCase{CellKind::FeFet2, SenseScheme::LowSwing}));

TEST(WordSim, EnergiesArePositiveAndSum) {
    const auto r = simulateWordSearch(makeOptions(CellKind::FeFet2, SenseScheme::FullSwing,
                                                  8, 1));
    EXPECT_GT(r.energyMl, 0.0);
    EXPECT_GT(r.energySl, 0.0);
    EXPECT_NEAR(r.energyTotal, r.energyMl + r.energySl + r.energySa + r.energyStatic,
                1e-20);
    // Sub-100fJ for an 8-bit word search: sanity band.
    EXPECT_LT(r.energyTotal, 100e-15);
}

TEST(WordSim, LowSwingSavesMatchlineEnergy) {
    const auto full = simulateWordSearch(
        makeOptions(CellKind::FeFet2, SenseScheme::FullSwing, 16, 1));
    const auto low = simulateWordSearch(
        makeOptions(CellKind::FeFet2, SenseScheme::LowSwing, 16, 1));
    // ML energy scales ~ Vpre^2: 0.4 V vs 1.0 V should save >3x.
    EXPECT_LT(low.energyMl, full.energyMl / 3.0);
}

TEST(WordSim, ReducedSearchVoltageSavesSearchlineEnergy) {
    auto base = makeOptions(CellKind::FeFet2, SenseScheme::FullSwing, 16, 1);
    auto reduced = base;
    reduced.config.vSearch = 0.8;
    const auto r1 = simulateWordSearch(base);
    const auto r2 = simulateWordSearch(reduced);
    EXPECT_LT(r2.energySl, r1.energySl);
    EXPECT_FALSE(r2.matchDetected);  // still detects the mismatch
}

TEST(WordSim, MoreMismatchesDischargeFaster) {
    const auto one = simulateWordSearch(makeOptions(CellKind::FeFet2,
                                                    SenseScheme::FullSwing, 16, 1));
    const auto many = simulateWordSearch(makeOptions(CellKind::FeFet2,
                                                     SenseScheme::FullSwing, 16, 8));
    ASSERT_TRUE(one.detectDelay.has_value());
    ASSERT_TRUE(many.detectDelay.has_value());
    EXPECT_LT(*many.detectDelay, *one.detectDelay);
}

TEST(WordSim, FeFetBeatsCmosOnSearchEnergy) {
    const auto fefet = simulateWordSearch(makeOptions(CellKind::FeFet2,
                                                      SenseScheme::FullSwing, 16, 1));
    const auto cmos = simulateWordSearch(makeOptions(CellKind::Cmos16T,
                                                     SenseScheme::FullSwing, 16, 1));
    EXPECT_LT(fefet.energyTotal, cmos.energyTotal);
}

// The matchline couples to every cell, so a column order that factors it
// early fills L+U with ~44,500 nonzeros at 64 bits (A holds 1,071); the
// minimum-degree order keeps the factor within a small multiple of A.
TEST(WordSim, SparseLuFillStaysNearMatrixSize) {
    obs::setEnabled(true);
    obs::gauge("spice.lu.nonzeros").reset();
    const auto r = simulateWordSearch(makeOptions(CellKind::FeFet2, SenseScheme::LowSwing, 64, 1));
    obs::setEnabled(false);
    EXPECT_FALSE(r.matchDetected);
    const double nonZeros = obs::gauge("spice.lu.nonzeros").value();
    EXPECT_GT(nonZeros, 0.0);
    EXPECT_LT(nonZeros, 4000.0);
}

TEST(WordSim, ValidatesInputs) {
    WordSimOptions o;
    o.stored = TernaryWord::fromString("0101");
    o.key = TernaryWord::fromString("01");
    EXPECT_THROW(simulateWordSearch(o), recover::SimError);
    o.key = o.stored;
    o.variations.resize(2);
    EXPECT_THROW(simulateWordSearch(o), recover::SimError);
    o.stored = TernaryWord();
    o.key = TernaryWord();
    o.variations.clear();
    EXPECT_THROW(simulateWordSearch(o), recover::SimError);
}

TEST(EnergyModelHelpers, CalibrationWordIsDefiniteAndDeterministic) {
    const auto a = array::calibrationWord(32);
    const auto b = array::calibrationWord(32);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.wildcardCount(), 0u);
    EXPECT_EQ(a.size(), 32u);
}

TEST(EnergyModelHelpers, KeyWithMismatches) {
    const auto stored = TernaryWord::fromString("1X01");
    const auto key = array::keyWithMismatches(stored, 2);
    EXPECT_EQ(stored.mismatchCount(key), 2u);
    EXPECT_THROW(array::keyWithMismatches(TernaryWord::fromString("XX"), 1),
                 recover::SimError);
}

TEST(EnergyModel, BaselineArrayIsFunctionalAndSane) {
    ArrayConfig cfg;
    cfg.cell = CellKind::FeFet2;
    cfg.wordBits = 16;
    cfg.rows = 64;
    const auto tech = device::TechCard::cmos45();
    const auto m = evaluateArray(tech, cfg);
    EXPECT_TRUE(m.functional);
    EXPECT_GT(m.energyPerBitFj, 0.01);
    EXPECT_LT(m.energyPerBitFj, 50.0);  // fJ/bit/search sanity band
    EXPECT_GT(m.searchDelay, 0.0);
    EXPECT_GT(m.throughput, 1e7);
    EXPECT_GT(m.senseMarginV, 0.2);
    EXPECT_GT(m.areaF2, 0.0);
}

TEST(EnergyModel, SegmentationReducesMatchlineEnergy) {
    const auto tech = device::TechCard::cmos45();
    ArrayConfig base;
    base.cell = CellKind::FeFet2;
    base.wordBits = 16;
    base.rows = 128;
    auto seg = base;
    seg.mlSegments = 4;
    const auto m0 = evaluateArray(tech, base);
    const auto m1 = evaluateArray(tech, seg);
    EXPECT_LT(m1.perSearch.ml, m0.perSearch.ml);
    // Early termination costs latency.
    EXPECT_GT(m1.searchDelay, m0.searchDelay);
}

TEST(EnergyModel, SelectivePrechargeReducesEnergy) {
    const auto tech = device::TechCard::cmos45();
    ArrayConfig base;
    base.cell = CellKind::FeFet2;
    base.wordBits = 16;
    base.rows = 128;
    auto sel = base;
    sel.selectivePrecharge = true;
    sel.prefilterBits = 2;
    const auto m0 = evaluateArray(tech, base);
    const auto m1 = evaluateArray(tech, sel);
    EXPECT_LT(m1.perSearch.ml + m1.perSearch.sa, m0.perSearch.ml + m0.perSearch.sa);
}

TEST(EnergyModel, RejectsBadGeometry) {
    ArrayConfig cfg;
    cfg.wordBits = 0;
    EXPECT_THROW(evaluateArray(device::TechCard::cmos45(), cfg), recover::SimError);
}

// --- concurrent calibration sims -------------------------------------------

namespace {

constexpr long long kForever = std::numeric_limits<long long>::max();

ArrayConfig calibrationConfig() {
    ArrayConfig cfg;
    cfg.cell = CellKind::FeFet2;
    cfg.wordBits = 8;
    cfg.rows = 16;
    return cfg;
}

struct FaultedBank {
    bool simFailed = false;
    std::string failureSummary;
    long long solves = 0;
    long long injections = 0;
};

FaultedBank bankUnder(const recover::FaultSpec& fault) {
    recover::FaultPlan plan;
    plan.add(fault);
    recover::ScopedFaultPlan guard(plan);
    const auto b = array::evaluateBank(device::TechCard::cmos45(), calibrationConfig(), 32, {},
                                       {}, recover::FailurePolicy::Lenient);
    return {b.simFailed, b.failureSummary, plan.solvesSeen(), plan.injectionCount()};
}

/// The match and mismatch calibration sims, each run alone on a fresh plan.
std::pair<long long, long long> soloCounts(const recover::FaultSpec& fault) {
    long long solves = 0, injections = 0;
    for (const int mismatches : {0, 1}) {
        recover::FaultPlan plan;
        plan.add(fault);
        recover::ScopedFaultPlan guard(plan);
        try {
            simulateWordSearch(makeOptions(CellKind::FeFet2, SenseScheme::FullSwing, 8,
                                           mismatches));
        } catch (const recover::SimError&) {
        }
        solves += plan.solvesSeen();
        injections += plan.injectionCount();
    }
    return {solves, injections};
}

}  // namespace

TEST(CalibrationFaults, LenientBankIsScheduleIndependent) {
    const recover::FaultSpec singular{recover::FaultKind::SingularStamp, 0, kForever, 1};
    const auto first = bankUnder(singular);
    EXPECT_TRUE(first.simFailed);
    EXPECT_NE(first.failureSummary.find("singular"), std::string::npos)
        << first.failureSummary;
    // Each sim ran on its own clone of the plan, so the caller's counters
    // are the two sims' counters run alone.
    const auto [solves, injections] = soloCounts(singular);
    EXPECT_GT(injections, 0);
    EXPECT_EQ(first.solves, solves);
    EXPECT_EQ(first.injections, injections);
    for (int rep = 0; rep < 5; ++rep) {
        const auto again = bankUnder(singular);
        EXPECT_EQ(again.simFailed, first.simFailed);
        EXPECT_EQ(again.failureSummary, first.failureSummary);
        EXPECT_EQ(again.solves, first.solves);
        EXPECT_EQ(again.injections, first.injections);
    }
}

TEST(CalibrationFaults, InjectionWindowCountsSolvesWithinEachSim) {
    // One poisoned solve per sim; the rescue ladder salvages each step.
    const recover::FaultSpec once{recover::FaultKind::SingularStamp, 3, 4, 1};
    const auto bank = bankUnder(once);
    EXPECT_FALSE(bank.simFailed) << bank.failureSummary;
    EXPECT_EQ(bank.injections, 2);
    EXPECT_EQ(bank.solves, soloCounts(once).first);
}

TEST(CalibrationFaults, StrictBankRaisesTheSerialError) {
    recover::FaultPlan solo;
    solo.add({recover::FaultKind::SingularStamp, 0, kForever, 1});
    std::string serialWhat;
    recover::SimErrorReason serialReason = recover::SimErrorReason::InvalidSpec;
    {
        recover::ScopedFaultPlan guard(solo);
        try {
            simulateWordSearch(makeOptions(CellKind::FeFet2, SenseScheme::FullSwing, 8, 0));
            FAIL() << "expected SimError";
        } catch (const recover::SimError& e) {
            serialWhat = e.what();
            serialReason = e.reason();
        }
    }
    recover::FaultPlan plan(solo.specs());
    recover::ScopedFaultPlan guard(plan);
    try {
        array::evaluateBank(device::TechCard::cmos45(), calibrationConfig(), 32);
        FAIL() << "expected SimError";
    } catch (const recover::SimError& e) {
        EXPECT_EQ(e.reason(), serialReason);
        EXPECT_EQ(std::string(e.what()), serialWhat);
    }
}

TEST(CalibrationFaults, StuckPolarizationPlanReachesEverySim) {
    recover::FaultPlan plan;
    plan.add({recover::FaultKind::StuckPolarization, 0, kForever, 0});
    recover::ScopedFaultPlan guard(plan);
    std::mutex mutex;
    std::vector<std::pair<std::string, bool>> seen;  // (word/key, plan live)
    const array::WordSimFn probe = [&](const WordSimOptions& o) {
        const recover::FaultPlan* active = recover::FaultPlan::active();
        const bool live = active != nullptr && active != &plan && active->stuckPolarization();
        {
            std::lock_guard<std::mutex> lock(mutex);
            seen.emplace_back(o.stored.toString() + "/" + o.key.toString(), live);
        }
        return array::simulateWordSearch(o);
    };
    auto cfg = calibrationConfig();
    cfg.mlSegments = 3;  // stage widths 3, 3, 2: two distinct, four sims
    array::evaluateBank(device::TechCard::cmos45(), cfg, 32, {}, {},
                        recover::FailurePolicy::Strict, probe);
    ASSERT_EQ(seen.size(), 4u);
    for (const auto& [word, live] : seen) EXPECT_TRUE(live) << word;
}

TEST(CalibrationTrace, WordSearchSpansNestUnderTheCaller) {
    const std::string path = ::testing::TempDir() + "calibration_trace.jsonl";
    ASSERT_TRUE(obs::TraceSink::global().open(path));
    auto cfg = calibrationConfig();
    cfg.mlSegments = 3;
    {
        obs::SpanGuard outer("test.outer");
        obs::SpanGuard caller("test.caller");
        evaluateArray(device::TechCard::cmos45(), cfg);
    }
    obs::TraceSink::global().close();

    const auto records = obs::readTraceFile(path);
    const obs::TraceRecord* caller = nullptr;
    for (const auto& r : records)
        if (r.isSpan() && r.name == "test.caller") caller = &r;
    ASSERT_NE(caller, nullptr);
    EXPECT_EQ(caller->depth, 1);
    int searches = 0, transients = 0;
    for (const auto& r : records) {
        if (!r.isSpan()) continue;
        if (r.name == "array.word_search") {
            ++searches;
            EXPECT_EQ(r.depth, caller->depth + 1);
        } else if (r.name == "spice.transient") {
            ++transients;
            EXPECT_EQ(r.depth, caller->depth + 2);
        } else {
            continue;
        }
        EXPECT_GE(r.ts, caller->ts);
        EXPECT_LE(r.end(), caller->end());
    }
    EXPECT_EQ(searches, 4);
    EXPECT_EQ(transients, 4);
}

TEST(MonteCarlo, ZeroSigmaIsErrorFreeAndTight) {
    array::MonteCarloSpec spec;
    spec.config.cell = CellKind::FeFet2;
    spec.config.wordBits = 8;
    spec.trials = 5;
    spec.sigmaVt = 0.0;
    spec.sigmaState = 0.0;
    const auto r = runMonteCarlo(spec);
    EXPECT_EQ(r.matchErrors, 0);
    EXPECT_EQ(r.mismatchErrors, 0);
    EXPECT_NEAR(r.mlMatch.stddev(), 0.0, 1e-9);
    EXPECT_GT(r.senseMarginMean(), 0.3);
}

TEST(MonteCarlo, VariationWidensDistributions) {
    array::MonteCarloSpec spec;
    spec.config.cell = CellKind::FeFet2;
    spec.config.wordBits = 8;
    spec.trials = 12;
    spec.sigmaVt = 0.05;
    spec.sigmaState = 0.10;
    const auto r = runMonteCarlo(spec);
    EXPECT_GT(r.mlMatch.stddev() + r.mlMismatch.stddev(), 1e-4);
    EXPECT_LE(r.errorRate(), 1.0);
    EXPECT_GE(r.senseMarginWorst(), -1.0);  // well-defined
}

TEST(ArrayConfig, EffectiveVoltagesFollowSchemeAndTech) {
    const auto tech = device::TechCard::cmos45();
    ArrayConfig cfg;
    cfg.sense = SenseScheme::FullSwing;
    EXPECT_DOUBLE_EQ(cfg.effectiveVSearch(tech), tech.vdd);
    EXPECT_DOUBLE_EQ(cfg.effectiveVPrecharge(tech), tech.vdd);
    cfg.sense = SenseScheme::LowSwing;
    EXPECT_DOUBLE_EQ(cfg.effectiveVPrecharge(tech), 0.4);
    cfg.vSearch = 0.8;
    cfg.vPrecharge = 0.5;
    EXPECT_DOUBLE_EQ(cfg.effectiveVSearch(tech), 0.8);
    EXPECT_DOUBLE_EQ(cfg.effectiveVPrecharge(tech), 0.5);
}

TEST(ArrayConfig, TimingPhasesAreOrdered) {
    const array::SearchTiming t;
    EXPECT_LT(t.evalStart(), t.evalEnd());
    EXPECT_LT(t.evalEnd(), t.prechargeStart());
    EXPECT_LT(t.prechargeStart(), t.prechargeEnd());
    EXPECT_LT(t.prechargeEnd(), t.cycle());
    EXPECT_LT(t.strobeEnd(), t.evalEnd());  // strobe closes inside eval
}

TEST(MonteCarlo, DeterministicBySeed) {
    array::MonteCarloSpec spec;
    spec.config.cell = CellKind::FeFet2;
    spec.config.wordBits = 8;
    spec.trials = 4;
    spec.seed = 99;
    const auto a = runMonteCarlo(spec);
    const auto b = runMonteCarlo(spec);
    EXPECT_DOUBLE_EQ(a.mlMatch.mean(), b.mlMatch.mean());
    EXPECT_DOUBLE_EQ(a.mlMismatch.mean(), b.mlMismatch.mean());
}
