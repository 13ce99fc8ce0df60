// sim::characterizeMlc — energy / sense-margin / discharge characterization
// of a multi-level-cell FeFET array, built on the same calibrated word
// simulations the exact-match bank model uses.
//
// Methodology: the binary (1 bit/cell) array is characterized by
// array::evaluateArray — two real word-level circuit simulations (match and
// worst-case mismatch) routed through the caller's WordSimFn provider, i.e.
// through serve::CharacterizationCache when one is attached. Everything
// MLC-specific then scales analytically from the device ladder
// (device::mlcLevels):
//
//   * the memory window 2*deltaVt splits into N-1 VT steps, so the
//     worst-case sense margin shrinks by 1/(N-1) relative to binary,
//   * the matchline discharge current per unit *level distance* shrinks by
//     the same factor (one-step overdrive instead of full-window), so the
//     per-unit-distance discharge time constant tauUnit grows by (N-1) and
//     the worst-case search delay stretches with it,
//   * a wordBits-bit key occupies ceil(wordBits / bitsPerCell) cells, so
//     line lengths — matchline wire, searchline wire, storage rail — shrink
//     by cells/bits while the sense amplifier stays per-row; that ratio is
//     the energy win multi-bit CAM papers report.
//
// Because every circuit number flows through the provider, a cache-backed
// characterization is bit-identical cold vs warm and across restarts, with
// zero solver calls on the warm path — the same contract the exact-match
// serving stack already holds.
#pragma once

#include <cstddef>
#include <vector>

#include "array/energy_model.hpp"
#include "device/mlc.hpp"

namespace fetcam::sim {

struct MlcOptions {
    /// Bits stored per FeFET cell, 1..device::kMaxMlcBitsPerCell.
    int bitsPerCell = 2;
    array::WorkloadProfile workload;
};

struct MlcCharacterization {
    int bitsPerCell = 1;
    int statesPerCell = 2;
    int cellsPerWord = 0;      ///< ceil(wordBits / bitsPerCell)
    double windowV = 0.0;      ///< FeFET memory window 2*deltaVt [V]
    double vtStepV = 0.0;      ///< VT separation between adjacent levels [V]
    double senseMarginV = 0.0; ///< worst-case ML sense margin at this ladder [V]
    /// Matchline discharge time per unit distance [s]: a row at distance d
    /// discharges at tauUnit / d (see dischargeTimes below).
    double tauUnitSeconds = 0.0;
    double searchDelay = 0.0;       ///< worst-case (1-step) detect latency [s]
    double energyPerSearchJ = 0.0;  ///< whole-array energy per search [J]
    double energyPerBitFj = 0.0;    ///< fJ / bit / search
    /// Binary baseline the scaling started from (for reports/ratios).
    double binarySenseMarginV = 0.0;
    double binaryEnergyPerBitFj = 0.0;
    bool functional = false;  ///< calibration sims decided correctly and the
                              ///< subdivided margin stayed positive
};

/// Characterize `config` served as an MLC similarity array. `config.cell`
/// must be an FeFET kind (FeFet2 / FeFet2Nand); throws
/// SimError(InvalidSpec) otherwise or on an out-of-range bitsPerCell. Runs
/// the two calibration word sims through `sim` (empty = real solver).
MlcCharacterization characterizeMlc(const device::TechCard& tech,
                                    const array::ArrayConfig& config,
                                    const MlcOptions& options,
                                    const array::WordSimFn& sim = {});

// --- distance-tolerant sensing: the analog matchline discharge model,
// --- from nearest-of-all (latest discharge wins) to bounded distance ---

/// Sentinel distance for an empty row (mirrors tcam::kNoEntry semantics):
/// its matchline is held discharged and can never read as a hit.
inline constexpr std::size_t kEmptyRowDistance = static_cast<std::size_t>(-1);

/// Per-row matchline discharge times for a distance vector:
///   d == 0               -> +inf   (exact match: the ML never discharges)
///   d == kEmptyRowDistance -> 0    (empty row: held low)
///   otherwise            -> tauUnit / d
std::vector<double> dischargeTimes(const std::vector<std::size_t>& distances,
                                   double tauUnitSeconds);

/// Strobe instant that separates distances <= maxDistance from the rest: a
/// row is still high at the strobe iff its discharge time exceeds it, i.e.
/// iff d <= maxDistance. Placed at the geometric mean of the last-accepted
/// and first-rejected discharge times, so the timing margin on both sides
/// is the same ratio. Throws SimError(InvalidSpec) on a non-positive
/// tauUnit.
double strobeFor(double tauUnitSeconds, std::size_t maxDistance);

}  // namespace fetcam::sim
