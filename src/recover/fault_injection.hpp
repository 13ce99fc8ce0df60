// Deterministic fault injection for the solver robustness tests.
//
// A FaultPlan describes faults to inject at chosen Newton solves (a solve is
// one solveNewton call; the transient engine issues one or more per step, the
// ladder issues one per rescue attempt). The solver and devices consult the
// thread's installed plan at well-defined points:
//
//   NanCurrent        — solveNewton stamps a NaN current into the chosen
//                       node's KCL row, modelling a device model returning a
//                       non-finite current.
//   SingularStamp     — solveNewton zeroes the chosen node's matrix row and
//                       column after all stamping, making the system
//                       structurally singular at that solve.
//   StuckPolarization — FeFET hysteron banks stop advancing: write pulses
//                       leave the stored state unchanged while the plan is
//                       installed (models an imprinted / fatigued cell).
//
// Plans are installed with ScopedFaultPlan (thread-local, RAII). With no plan
// installed, the hot-path query is a single thread-local pointer read.
//
// Threading model: the active-plan pointer is thread-local, so a plan
// installed on one thread is invisible to workers spawned by the parallel
// sweep engine (numeric::parallelFor) — a plan is never shared across
// threads. Sweeps that want faults inside their workers install their own
// per-work-item plan on the worker thread and fold the clones' counters
// back into the caller's plan with absorb(), in work-item order:
//   * runMonteCarlo clones the caller's plan per trial: solve ordinals
//     restart each trial, so injection windows are trial-relative.
//   * array::evaluateArray (and so evaluateBank and the engine's
//     characterization) clones it per calibration sim: a window counts the
//     solves within one word sim, not across the match/mismatch pair.
// Either way the windows are independent of the execution schedule. Other
// parallel sweeps (searchMany, tuner, design space) do not propagate plans
// into their workers.
#pragma once

#include <limits>
#include <vector>

namespace fetcam::recover {

enum class FaultKind {
    NanCurrent,
    SingularStamp,
    StuckPolarization,
    // --- network faults (consulted by net::Client's send path; the window
    // counts outbound frame ordinals via beginNetFrame, not Newton solves) ---
    TornFrame,     ///< send a prefix of the frame, then close the connection
    GarbageBytes,  ///< corrupt frame bytes before sending (CRC/magic damage)
    Disconnect,    ///< close the connection instead of sending the frame
    StalledRead,   ///< send only the frame header, then stall (slowloris)
};

const char* faultKindName(FaultKind kind) noexcept;

struct FaultSpec {
    FaultKind kind = FaultKind::NanCurrent;
    /// Half-open ordinal window [fromSolve, toSolve) during which the fault
    /// is live. Solver faults count Newton solves (beginSolve); network
    /// faults count outbound frames (beginNetFrame). Defaults cover the
    /// whole run.
    long long fromSolve = 0;
    long long toSolve = std::numeric_limits<long long>::max();
    /// Node whose row is poisoned (NanCurrent / SingularStamp).
    int node = 1;
};

/// Faults live for one particular Newton solve.
struct SolveFaults {
    bool nanCurrent = false;
    bool singularStamp = false;
    int node = 1;
    bool any() const noexcept { return nanCurrent || singularStamp; }
};

/// Faults live for one particular outbound network frame.
struct FrameFaults {
    bool tornFrame = false;
    bool garbageBytes = false;
    bool disconnect = false;
    bool stalledRead = false;
    bool any() const noexcept {
        return tornFrame || garbageBytes || disconnect || stalledRead;
    }
};

class FaultPlan {
public:
    FaultPlan() = default;
    explicit FaultPlan(std::vector<FaultSpec> specs) : specs_(std::move(specs)) {}

    void add(const FaultSpec& spec) { specs_.push_back(spec); }

    /// Advance the solve ordinal and report the faults live for this solve.
    /// Called once per solveNewton invocation.
    SolveFaults beginSolve() noexcept;

    /// Advance the outbound-frame ordinal and report the network faults live
    /// for this frame. Called once per frame the net client sends; the
    /// ordinal stream is independent of the solver's, so one plan can window
    /// both without interference.
    FrameFaults beginNetFrame() noexcept;

    /// True while any StuckPolarization spec is present (not solve-windowed:
    /// polarization commits happen on accepted steps, not solves).
    bool stuckPolarization() const noexcept;

    long long solvesSeen() const noexcept { return nextSolve_; }
    long long framesSeen() const noexcept { return nextFrame_; }
    long long injectionCount() const noexcept { return injections_; }

    const std::vector<FaultSpec>& specs() const noexcept { return specs_; }

    /// Fold a per-work-item clone's activity back into this plan. Parallel
    /// sweeps run `FaultPlan(parent.specs())` clones on their workers and
    /// absorb the counters in work-item order after the join.
    void absorb(long long solves, long long injections) noexcept {
        nextSolve_ += solves;
        injections_ += injections;
    }

    /// The plan installed on this thread, or nullptr.
    static FaultPlan* active() noexcept;

private:
    friend class ScopedFaultPlan;

    std::vector<FaultSpec> specs_;
    long long nextSolve_ = 0;
    long long nextFrame_ = 0;
    long long injections_ = 0;
};

/// Installs `plan` as the thread's active plan for the guard's lifetime;
/// restores the previously installed plan (if any) on destruction.
class ScopedFaultPlan {
public:
    explicit ScopedFaultPlan(FaultPlan& plan);
    ~ScopedFaultPlan();

    ScopedFaultPlan(const ScopedFaultPlan&) = delete;
    ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

private:
    FaultPlan* previous_;
};

}  // namespace fetcam::recover
