// Adaptive-step transient analysis.
//
// TCAM simulations are pulse-driven, so the engine starts from user-provided
// initial conditions (UIC, the default) rather than a DC operating point:
// ferroelectric gates sit on capacitive dividers that have no DC solution
// worth speaking of. A DC-seeded mode is available for conventional circuits.
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "recover/rescue.hpp"
#include "spice/circuit.hpp"
#include "spice/newton.hpp"
#include "spice/waveform.hpp"

namespace fetcam::spice {

struct TransientSpec {
    double tstop = 0.0;
    double dtMax = 0.0;       ///< required; also the plotting resolution
    double dtMin = 1e-18;
    double dtInitial = 0.0;   ///< 0 -> dtMax / 100
    IntegrationMethod method = IntegrationMethod::Trapezoidal;
    NewtonOptions newton;
    double gmin = 1e-12;

    /// Escalation ladder tried before giving up on a step (see recover/).
    recover::RescuePolicy rescue;

    /// Initial node voltages (UIC). Unlisted nodes start at 0 V.
    std::vector<std::pair<NodeId, double>> initialConditions;

    /// Nodes the result's waveforms keep. Empty keeps every unknown (all
    /// node voltages and branch currents) at every accepted step.
    std::vector<NodeId> probes;
};

/// Throws recover::SimError(InvalidSpec) on non-positive tstop/dtMax,
/// dtMin <= 0, dtMin >= dtMax, dtInitial > dtMax, or non-finite values
/// anywhere in the spec (including initial conditions).
void validateTransientSpec(const TransientSpec& spec);

/// Fixed log-decade histogram of accepted step sizes: one bucket per decade
/// in [1e-18, 1e-6) s plus underflow/overflow buckets. Allocation-free so it
/// can live inside every TransientResult.
struct DtHistogram {
    static constexpr int kDecadeLo = -18;  ///< first decade bucket: [1e-18, 1e-17)
    static constexpr int kDecadeHi = -6;   ///< overflow bucket starts at 1e-6
    static constexpr int kBuckets = kDecadeHi - kDecadeLo + 2;

    std::array<long long, kBuckets> counts{};

    void add(double dt) noexcept;
    long long total() const noexcept;
    /// Lower edge of bucket i (0 for the underflow bucket).
    static double bucketLowerBound(int i) noexcept;
};

/// Where the solver's work and wall time went during one transient run.
///
/// Iteration/step counts and the dt histogram are always collected (cheap
/// arithmetic). The wall-time fields require obs::enabled() — with
/// observability off they stay 0 so the hot loop never reads the clock.
struct SolverStats {
    double stampSeconds = 0.0;   ///< device eval + MNA stamping
    double factorSeconds = 0.0;  ///< sparse LU factorization + triangular solves
    double acceptSeconds = 0.0;  ///< device state commit + waveform recording
    double totalSeconds = 0.0;   ///< whole runTransient wall time
    long long factorizations = 0;    ///< full (symbolic + numeric) LU factorizations
    long long refactorizations = 0;  ///< numeric-only refactorizations (pattern reused)

    DtHistogram dtHistogram;  ///< accepted step sizes

    /// Worst-converging accepted timestep (most Newton iterations).
    double worstStepTime = 0.0;  ///< simulated time of that step
    int worstStepIterations = 0;
    double worstStepMaxDelta = 0.0;

    /// Rescue-ladder activity (see recover::RescuePolicy).
    long long rescuedSteps = 0;     ///< steps salvaged by the ladder
    long long rescueAttempts = 0;   ///< individual rungs tried (incl. failures)
    long long degradedGminSteps = 0;  ///< steps accepted at elevated gmin
};

struct TransientResult {
    Waveforms waveforms;
    int acceptedSteps = 0;
    int rejectedSteps = 0;
    /// Total Newton iterations spent, including work on rejected steps.
    int newtonIterations = 0;
    /// The rejected-step share of newtonIterations (wasted solver work).
    int rejectedNewtonIterations = 0;
    bool finished = false;  ///< reached tstop
    SolverStats stats;
};

/// Run a transient; device internal state (polarization, filament, energy
/// accumulators) is mutated in place, so query devices after the run.
/// Throws recover::SimError(InvalidSpec) on an initial condition or probe
/// naming a node outside the circuit.
TransientResult runTransient(Circuit& circuit, const TransientSpec& spec);

}  // namespace fetcam::spice
