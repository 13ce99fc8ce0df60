#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/obs.hpp"
#include "recover/sim_error.hpp"
#include "spice/workspace.hpp"

namespace fetcam::spice {

void DtHistogram::add(double dt) noexcept {
    if (dt <= 0.0) return;
    // Decade from the binary exponent (ilogb costs a few cycles; log10 does
    // not): floor(ilogb * log10(2)) is the true decade or one below it, so
    // promote when dt already reaches the next decade's lower bound.
    int decade = static_cast<int>(
        std::floor(static_cast<double>(std::ilogb(dt)) * 0.30102999566398120));
    if (decade + 1 >= kDecadeLo && decade + 1 <= kDecadeHi &&
        dt >= bucketLowerBound(decade + 1 - kDecadeLo + 1))
        ++decade;
    const int index = std::clamp(decade - kDecadeLo + 1, 0, kBuckets - 1);
    ++counts[static_cast<std::size_t>(index)];
}

long long DtHistogram::total() const noexcept {
    long long n = 0;
    for (const long long c : counts) n += c;
    return n;
}

double DtHistogram::bucketLowerBound(int i) noexcept {
    static constexpr double kLowerBounds[kBuckets] = {
        0.0,   1e-18, 1e-17, 1e-16, 1e-15, 1e-14, 1e-13,
        1e-12, 1e-11, 1e-10, 1e-9,  1e-8,  1e-7,  1e-6,
    };
    if (i <= 0) return 0.0;
    return kLowerBounds[std::min(i, kBuckets - 1)];
}

namespace {

/// Merge, sort and dedupe breakpoints into (0, tstop].
std::vector<double> collectBreakpoints(const Circuit& circuit, double tstop) {
    std::vector<double> bps;
    for (const auto& dev : circuit.devices()) dev->collectBreakpoints(tstop, bps);
    bps.push_back(tstop);
    std::sort(bps.begin(), bps.end());
    std::vector<double> out;
    for (double t : bps) {
        if (t <= 0.0 || t > tstop) continue;
        if (!out.empty() && t - out.back() < 1e-18) continue;
        out.push_back(t);
    }
    return out;
}

}  // namespace

void validateTransientSpec(const TransientSpec& spec) {
    auto fail = [](const std::string& msg) {
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "runTransient", msg);
    };
    if (!std::isfinite(spec.tstop) || spec.tstop <= 0.0) fail("tstop must be finite and > 0");
    if (!std::isfinite(spec.dtMax) || spec.dtMax <= 0.0) fail("dtMax must be finite and > 0");
    if (!std::isfinite(spec.dtMin) || spec.dtMin <= 0.0) fail("dtMin must be finite and > 0");
    if (spec.dtMin >= spec.dtMax) fail("dtMin must be < dtMax");
    if (!std::isfinite(spec.dtInitial) || spec.dtInitial < 0.0)
        fail("dtInitial must be finite and >= 0");
    if (spec.dtInitial > spec.dtMax) fail("dtInitial must be <= dtMax");
    if (!std::isfinite(spec.gmin) || spec.gmin < 0.0) fail("gmin must be finite and >= 0");
    for (const auto& [node, v] : spec.initialConditions) {
        if (node < kGround) fail("initial condition on negative node " + std::to_string(node));
        if (!std::isfinite(v))
            fail("non-finite initial condition on node " + std::to_string(node));
    }
}

TransientResult runTransient(Circuit& circuit, const TransientSpec& spec) {
    validateTransientSpec(spec);
    const auto checkNode = [&](NodeId node, const char* what) {
        if (node < kGround || node >= circuit.numNodes())
            throw recover::SimError(recover::SimErrorReason::InvalidSpec, "runTransient",
                                    std::string(what) + " on unknown node " +
                                        std::to_string(node));
    };
    for (const auto& [node, v] : spec.initialConditions) checkNode(node, "initial condition");
    for (const NodeId node : spec.probes) checkNode(node, "probe");
    const double dtInitial = spec.dtInitial > 0.0 ? spec.dtInitial : spec.dtMax / 100.0;

    std::vector<double> x(static_cast<std::size_t>(circuit.numUnknowns()), 0.0);
    for (const auto& [node, v] : spec.initialConditions) {
        if (node != kGround) x[static_cast<std::size_t>(node) - 1] = v;
    }

    SimContext ctx;
    ctx.mode = AnalysisMode::Transient;
    ctx.method = spec.method;
    ctx.x = &x;
    ctx.time = 0.0;
    ctx.dt = 0.0;
    ctx.gmin = spec.gmin;
    ctx.numNodes = circuit.numNodes();

    for (const auto& dev : circuit.devices()) dev->beginTransient(ctx);

    TransientResult result;
    result.waveforms = Waveforms(circuit.numNodes(), circuit.numBranches(), spec.probes);
    result.waveforms.record(0.0, x);

    const std::vector<double> breakpoints = collectBreakpoints(circuit, spec.tstop);
    std::size_t nextBp = 0;

    double t = 0.0;
    double dt = dtInitial;
    // Backward Euler for a couple of steps after t=0 and after every source
    // discontinuity: damps the trapezoidal rule's tendency to ring on steps.
    int beStepsLeft = 2;

    const bool obsOn = obs::enabled();
    const double tWall0 = obsOn ? obs::monotonicSeconds() : 0.0;
    obs::SpanGuard span("spice.transient",
                        {{"tstop", spec.tstop}, {"unknowns", circuit.numUnknowns()}});
    auto& sink = obs::TraceSink::global();

    std::vector<double> xBackup;
    std::vector<recover::RescueAttempt> trail;  // rungs tried for the current step
    double rescuedGmin = spec.gmin;             // gmin the last rescue accepted at

    // One workspace for the whole run: the MNA pattern, symbolic LU and
    // solution buffer survive across timesteps and rescue rungs.
    SolverWorkspace workspace;

    // Account for one ladder solve and append it to the rescue trail.
    auto bookkeepRung = [&](recover::RescueRung rung, double value, const NewtonResult& nr) {
        result.newtonIterations += nr.iterations;
        result.stats.stampSeconds += nr.stampSeconds;
        result.stats.factorSeconds += nr.factorSeconds;
        result.stats.factorizations += nr.factorizations;
        result.stats.refactorizations += nr.refactorizations;
        ++result.stats.rescueAttempts;
        trail.push_back({rung, value, nr.converged, nr.iterations});
        if (sink.active())
            sink.event("rescue.attempt", {{"rung", recover::rungName(rung)},
                                          {"value", value},
                                          {"ok", nr.converged ? 1 : 0},
                                          {"iters", nr.iterations}});
    };

    // Escalation ladder for a step neither dt-shrinking nor plain retries can
    // solve: tighter damping -> gmin ramp -> source stepping -> forced BE.
    // On success x holds the converged solution for (t, t+ctx.dt), `nrOut` the
    // final rung's solve, and ctx is restored to its normal per-step settings.
    auto tryLadder = [&](NewtonResult& nrOut) -> bool {
        const recover::RescuePolicy& policy = spec.rescue;
        rescuedGmin = spec.gmin;

        // Rung 1: tighter damping — strongly nonlinear devices sometimes just
        // need smaller Newton updates.
        for (double level : policy.dampingLevels) {
            if (level <= 0.0 || level >= spec.newton.maxUpdate) continue;
            x = xBackup;
            NewtonOptions opts = spec.newton;
            opts.maxUpdate = level;
            const NewtonResult nr = solveNewton(circuit, ctx, x, opts, workspace);
            bookkeepRung(recover::RescueRung::TightenDamping, level, nr);
            if (nr.converged) {
                nrOut = nr;
                return true;
            }
        }

        // Rung 2: gmin ramp — solve with a strong conductance to ground, then
        // walk it back down reusing each solution as the next starting point.
        {
            x = xBackup;
            std::vector<double> xGood;
            NewtonResult nrGood;
            double gGood = -1.0;
            bool chainBroken = false;
            for (double g : policy.gminLevels) {
                if (g <= spec.gmin) continue;  // already at or below target
                ctx.gmin = g;
                const NewtonResult nr = solveNewton(circuit, ctx, x, spec.newton, workspace);
                bookkeepRung(recover::RescueRung::GminRamp, g, nr);
                if (!nr.converged) {
                    chainBroken = true;
                    break;
                }
                xGood = x;
                nrGood = nr;
                gGood = g;
            }
            if (!chainBroken && gGood >= 0.0) {
                ctx.gmin = spec.gmin;
                const NewtonResult nr = solveNewton(circuit, ctx, x, spec.newton, workspace);
                bookkeepRung(recover::RescueRung::GminRamp, spec.gmin, nr);
                if (nr.converged) {
                    nrOut = nr;
                    return true;
                }
            }
            ctx.gmin = spec.gmin;
            if (gGood >= 0.0 && gGood <= policy.maxAcceptableGmin) {
                // Degrade gracefully: the solution at a tiny-but-nonzero gmin
                // is accepted rather than losing the whole run.
                x = xGood;
                nrOut = nrGood;
                rescuedGmin = gGood;
                ++result.stats.degradedGminSteps;
                return true;
            }
        }

        // Rung 3: source stepping — ramp the independent sources up from a
        // fraction of their value; each rung must converge, ending at 1.0.
        {
            x = xBackup;
            bool chainOk = true;
            for (double s : policy.sourceSteps) {
                if (s <= 0.0 || s >= 1.0) continue;
                ctx.sourceScale = s;
                const NewtonResult nr = solveNewton(circuit, ctx, x, spec.newton, workspace);
                bookkeepRung(recover::RescueRung::SourceStepping, s, nr);
                if (!nr.converged) {
                    chainOk = false;
                    break;
                }
            }
            if (chainOk) {
                ctx.sourceScale = 1.0;
                const NewtonResult nr = solveNewton(circuit, ctx, x, spec.newton, workspace);
                bookkeepRung(recover::RescueRung::SourceStepping, 1.0, nr);
                if (nr.converged) {
                    nrOut = nr;
                    return true;
                }
            }
            ctx.sourceScale = 1.0;
        }

        // Rung 4: force Backward Euler — trade accuracy for L-stability.
        if (policy.forceBackwardEuler && ctx.method != IntegrationMethod::BackwardEuler) {
            x = xBackup;
            ctx.method = IntegrationMethod::BackwardEuler;
            const NewtonResult nr = solveNewton(circuit, ctx, x, spec.newton, workspace);
            bookkeepRung(recover::RescueRung::ForceBackwardEuler, 1.0, nr);
            if (nr.converged) {
                nrOut = nr;
                return true;
            }
        }

        x = xBackup;
        return false;
    };

    while (t < spec.tstop - 1e-21) {
        // Clamp to the next breakpoint, snapping when nearly there.
        double dtStep = std::min(dt, spec.dtMax);
        if (nextBp < breakpoints.size()) {
            const double toBp = breakpoints[nextBp] - t;
            if (dtStep >= toBp - spec.dtMin) dtStep = toBp;
        }
        dtStep = std::min(dtStep, spec.tstop - t);

        ctx.dt = dtStep;
        ctx.time = t + dtStep;
        ctx.method = beStepsLeft > 0 ? IntegrationMethod::BackwardEuler : spec.method;

        xBackup = x;
        NewtonResult nr = solveNewton(circuit, ctx, x, spec.newton, workspace);
        // Total work includes iterations burned on steps we go on to reject.
        result.newtonIterations += nr.iterations;
        result.stats.stampSeconds += nr.stampSeconds;
        result.stats.factorSeconds += nr.factorSeconds;
        result.stats.factorizations += nr.factorizations;
        result.stats.refactorizations += nr.refactorizations;

        bool rescued = false;
        if (!nr.converged) {
            ++result.rejectedSteps;
            result.rejectedNewtonIterations += nr.iterations;
            if (sink.active())
                sink.event("step.reject", {{"t", ctx.time},
                                           {"dt", dtStep},
                                           {"iters", nr.iterations},
                                           {"maxDelta", nr.maxDelta},
                                           {"failure", newtonFailureName(nr.failure)}});
            x = xBackup;
            // A singular matrix will stay singular at any dt: shrinking the
            // step is pointless, so escalate straight to the rescue ladder.
            if (nr.failure != NewtonFailure::SingularMatrix) {
                dt = dtStep / 4.0;
                if (dt >= spec.dtMin) {
                    beStepsLeft = std::max(beStepsLeft, 1);
                    continue;
                }
            }

            trail.clear();
            if (spec.rescue.enabled) rescued = tryLadder(nr);
            if (!rescued) {
                const NewtonFailure f = nr.failure;
                recover::SimError::Info info;
                info.reason = f == NewtonFailure::SingularMatrix
                                  ? recover::SimErrorReason::SingularMatrix
                              : f == NewtonFailure::NanResidual
                                  ? recover::SimErrorReason::NanResidual
                                  : recover::SimErrorReason::StepUnderflow;
                info.where = "runTransient";
                info.time = ctx.time;
                info.attempted = trail;
                if (sink.active())
                    sink.event("rescue.fail", {{"t", ctx.time},
                                               {"failure", newtonFailureName(f)},
                                               {"attempts", static_cast<long long>(trail.size())}});
                throw recover::SimError(
                    info, f == NewtonFailure::SingularMatrix ? "singular MNA matrix"
                          : f == NewtonFailure::NanResidual  ? "non-finite solver state"
                                                             : "time step underflow");
            }
            ++result.stats.rescuedSteps;
            if (sink.active())
                sink.event("rescue.success", {{"t", ctx.time},
                                              {"gmin", rescuedGmin},
                                              {"attempts", static_cast<long long>(trail.size())}});
            if (obsOn) {
                static obs::Counter& rescues = obs::counter("spice.transient.rescued_steps");
                rescues.add();
            }
        }

        // Accepted: commit device state, record, advance.
        const double tAccept0 = obsOn ? obs::monotonicSeconds() : 0.0;
        for (const auto& dev : circuit.devices()) dev->acceptStep(ctx);
        t = ctx.time;
        result.waveforms.record(t, x);
        if (obsOn) result.stats.acceptSeconds += obs::monotonicSeconds() - tAccept0;
        ++result.acceptedSteps;
        result.stats.dtHistogram.add(dtStep);
        if (nr.iterations > result.stats.worstStepIterations) {
            result.stats.worstStepIterations = nr.iterations;
            result.stats.worstStepTime = t;
            result.stats.worstStepMaxDelta = nr.maxDelta;
        }
        if (sink.active())
            sink.event("step.accept", {{"t", t},
                                       {"dt", dtStep},
                                       {"iters", nr.iterations},
                                       {"maxDelta", nr.maxDelta}});
        if (rescued)
            beStepsLeft = 2;  // a rescued step is a discontinuity of sorts
        else if (beStepsLeft > 0)
            --beStepsLeft;

        const bool hitBp = nextBp < breakpoints.size() &&
                           std::abs(t - breakpoints[nextBp]) <= spec.dtMin;
        if (hitBp) {
            ++nextBp;
            dt = dtInitial;   // restart small after a discontinuity
            beStepsLeft = 2;
        } else if (rescued) {
            dt = dtStep;  // hold: the ladder just barely saved this size
        } else if (nr.iterations <= 8) {
            dt = std::min(dtStep * 1.5, spec.dtMax);
        } else {
            dt = dtStep;  // struggling: hold the step size
        }
    }

    result.finished = true;
    if (obsOn) {
        result.stats.totalSeconds = obs::monotonicSeconds() - tWall0;
        static obs::Counter& runs = obs::counter("spice.transient.runs");
        static obs::Counter& accepted = obs::counter("spice.transient.accepted_steps");
        static obs::Counter& rejected = obs::counter("spice.transient.rejected_steps");
        runs.add();
        accepted.add(result.acceptedSteps);
        rejected.add(result.rejectedSteps);
        span.add({"steps", result.acceptedSteps});
        span.add({"rejected", result.rejectedSteps});
        span.add({"iters", result.newtonIterations});
        span.add({"rescued", result.stats.rescuedSteps});
    }
    return result;
}

}  // namespace fetcam::spice
