// Array-level energy/delay model.
//
// Methodology (standard for TCAM circuit papers): simulate one word at
// circuit level for the match and worst-case (1-bit) mismatch cases, then
// scale to the full array analytically:
//
//   E_search = rows * E_SL(word)                         (searchline drive)
//            + nMatch * [E_ML + E_SA](match word)        (matching rows)
//            + (rows - nMatch) * [E_ML + E_SA](mismatch) (discharged rows)
//
// Matchline segmentation and selective precharge reshape the sum: later
// stages only evaluate for rows whose earlier stage matched, with stage
// activation probabilities derived from the workload's bit-match statistics.
#pragma once

#include <functional>

#include "array/word_sim.hpp"

namespace fetcam::array {

/// Pluggable word-simulation provider. The analytic array/bank models run
/// every calibration circuit simulation through this hook, so a caller can
/// substitute a memoizing provider (serve::CharacterizationCache) for the
/// real solver; an empty function means simulateWordSearch. Providers must
/// be deterministic (same options, bit-identical result) and safe to call
/// concurrently: evaluateArray runs its calibration sims at the same time.
using WordSimFn = std::function<WordSimResult(const WordSimOptions&)>;

/// Workload statistics the analytic scaling needs.
struct WorkloadProfile {
    /// Fraction of rows fully matching a query (TCAMs are built so ~1 row hits).
    double matchRowFraction = 1.0 / 64.0;
    /// Probability that one definite cell matches a random key bit; 0.5 for
    /// uniform random data. Drives segment-activation probabilities.
    double bitMatchProbability = 0.5;
};

struct EnergyBreakdown {
    double ml = 0.0;       ///< matchline precharge [J]
    double sl = 0.0;       ///< searchline drivers [J]
    double sa = 0.0;       ///< sense amplifiers [J]
    double staticRail = 0.0;
    double total() const { return ml + sl + sa + staticRail; }
};

struct ArrayMetrics {
    EnergyBreakdown perSearch;        ///< whole-array energy per search [J]
    double energyPerBitFj = 0.0;      ///< fJ / bit / search (the headline metric)
    double searchDelay = 0.0;         ///< match-decision latency [s]
    double cycleTime = 0.0;           ///< search repetition period [s]
    double throughput = 0.0;          ///< searches per second
    double areaF2 = 0.0;              ///< array footprint proxy [F^2]
    double senseMarginV = 0.0;        ///< ML(match) - ML(worst mismatch) at sense
    bool functional = false;          ///< calibration sims decided correctly

    // Calibration word simulations (first/only stage width).
    WordSimResult matchWord;
    WordSimResult mismatchWord;
};

/// Evaluate a full array configuration. Runs 2 word-level circuit
/// simulations per distinct stage width (through `sim` when provided), all
/// at the same time, at most one hardware thread each (inline inside
/// another numeric::parallelFor); everything else is analytic. The results
/// and the error raised are those of a serial loop in (width, match,
/// mismatch) order. A fault plan installed on the caller reaches every sim
/// as a clone (see recover/fault_injection.hpp).
ArrayMetrics evaluateArray(const device::TechCard& tech, const ArrayConfig& config,
                           const WorkloadProfile& workload = {},
                           const WordSimFn& sim = {});

/// Deterministic pseudo-random definite word used for calibration sims.
tcam::TernaryWord calibrationWord(int bits, std::uint64_t seed = 7);

/// Key matching `stored`, with `mismatches` definite positions flipped.
tcam::TernaryWord keyWithMismatches(const tcam::TernaryWord& stored, int mismatches);

}  // namespace fetcam::array
