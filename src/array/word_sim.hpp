// Word-level search simulation: one TCAM word (matchline with N cells,
// searchline drivers, precharger, sense amplifier) simulated through a full
// steady-state search cycle [evaluate -> release -> precharge], starting from
// a precharged matchline. Supply energies over the cycle are the per-search
// energies the array model scales up.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "array/config.hpp"
#include "spice/transient.hpp"
#include "tcam/cell_builder.hpp"
#include "tcam/ternary.hpp"

namespace fetcam::array {

struct WordSimOptions {
    device::TechCard tech = device::TechCard::cmos45();
    ArrayConfig config;
    tcam::TernaryWord stored;
    tcam::TernaryWord key;
    /// Optional per-cell Monte Carlo perturbations (size == wordBits).
    std::vector<tcam::CellVariation> variations;
    /// Keep full waveforms in the result (benches plot from them). Without
    /// it the solver records only the matchline and sense output, and the
    /// result's waveforms stay empty.
    bool recordWaveforms = false;
};

struct WordSimResult {
    // --- functional outcome ---
    bool expectedMatch = false;   ///< golden-model verdict
    bool matchDetected = false;   ///< sense-amp verdict at end of evaluation
    bool correct() const { return expectedMatch == matchDetected; }

    // --- timing ---
    /// Mismatch detection delay: sense output crossing VDD/2 after the start
    /// of evaluation. Empty when the sense amp never fired (i.e. a match).
    std::optional<double> detectDelay;

    // --- matchline analog detail ---
    double mlAtSense = 0.0;   ///< ML voltage at the end of evaluation [V]
    double mlMin = 0.0;       ///< lowest ML voltage during evaluation [V]
    double vPrecharge = 0.0;  ///< precharge level used [V]

    // --- per-search energies [J] ---
    double energyMl = 0.0;      ///< precharge supply
    double energySl = 0.0;      ///< all searchline drivers
    double energySa = 0.0;      ///< sense-amp supply
    double energyStatic = 0.0;  ///< storage rail (SRAM cells; 0 otherwise)
    double energyTotal = 0.0;   ///< sum of the above

    // --- optional waveforms ---
    spice::Waveforms waveforms;
    spice::NodeId mlNode = 0;
    spice::NodeId saOutNode = 0;
    std::vector<double> time() const { return waveforms.time(); }
};

/// Simulate one word search cycle. Throws std::invalid_argument on
/// inconsistent widths.
WordSimResult simulateWordSearch(const WordSimOptions& options);

}  // namespace fetcam::array
