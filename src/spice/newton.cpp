#include "spice/newton.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numeric/sparse_matrix.hpp"
#include "obs/obs.hpp"
#include "recover/fault_injection.hpp"
#include "spice/mna.hpp"
#include "spice/workspace.hpp"

namespace fetcam::spice {

const char* newtonFailureName(NewtonFailure f) noexcept {
    switch (f) {
        case NewtonFailure::None: return "none";
        case NewtonFailure::NonConverged: return "non_converged";
        case NewtonFailure::SingularMatrix: return "singular_matrix";
        case NewtonFailure::NanResidual: return "nan_residual";
    }
    return "unknown";
}

namespace {

/// Update solver-health metrics and emit a trace event on non-convergence.
/// Called only when obs::enabled().
void recordSolveHealth(const NewtonResult& result) {
    static obs::Counter& solves = obs::counter("spice.newton.solves");
    static obs::Counter& iterations = obs::counter("spice.newton.iterations");
    static obs::Counter& failures = obs::counter("spice.newton.nonconverged");
    solves.add();
    iterations.add(result.iterations);
    if (!result.converged) {
        failures.add();
        obs::TraceSink::global().event(
            "newton.fail",
            {{"iters", result.iterations},
             {"maxDelta", result.maxDelta},
             {"failure", newtonFailureName(result.failure)}});
    }
}

}  // namespace

NewtonResult solveNewton(const Circuit& circuit, const SimContext& ctx, std::vector<double>& x,
                         const NewtonOptions& options, SolverWorkspace& workspace) {
    const int numNodeUnknowns = circuit.numNodes() - 1;
    workspace.bind(circuit.numNodes(), circuit.numBranches());
    Mna& mna = workspace.mna();
    const bool obsOn = obs::enabled();

    // Fault injection: consult the active plan (if any) once per solve so
    // injected faults hit deterministic Newton-solve ordinals.
    recover::SolveFaults faults;
    if (recover::FaultPlan* plan = recover::FaultPlan::active()) faults = plan->beginSolve();

    const auto stampAll = [&]() {
        for (const auto& dev : circuit.devices()) dev->stamp(mna, ctx);
        mna.stampGminAllNodes(ctx.gmin);
        if (faults.nanCurrent)
            mna.addNodeRhs(faults.node, std::numeric_limits<double>::quiet_NaN());
        if (faults.singularStamp) mna.zeroNode(faults.node);
    };

    NewtonResult result;
    for (int iter = 1; iter <= options.maxIterations; ++iter) {
        result.iterations = iter;
        double tMark = obsOn ? obs::monotonicSeconds() : 0.0;
        mna.beginAssembly(/*allowMapped=*/true);
        stampAll();
        if (!mna.endAssembly()) {
            // The stamp sequence diverged from the frozen pattern (topology
            // or conditional-stamp change): re-stamp through the triplet
            // path, which re-freezes the pattern at compile below.
            mna.beginAssembly(/*allowMapped=*/false);
            stampAll();
            mna.endAssembly();
        }
        if (obsOn) {
            const double tStamped = obs::monotonicSeconds();
            result.stampSeconds += tStamped - tMark;
            tMark = tStamped;
        }

        std::vector<double>& xNew = workspace.solution();
        try {
            const auto& matrix = mna.compile();
            bool refactored = false;
            if (workspace.canRefactor() && workspace.lu().refactor(matrix)) {
                refactored = true;
                ++result.refactorizations;
            }
            if (!refactored) {
                workspace.lu().factor(matrix);
                workspace.noteFactored();
                ++result.factorizations;
                if (obsOn) {
                    static obs::Gauge& luNonZeros = obs::gauge("spice.lu.nonzeros");
                    luNonZeros.set(workspace.lu().nonZeros());
                }
            }
            workspace.lu().solveInto(mna.rhs(), xNew);
        } catch (const std::runtime_error&) {
            workspace.dropFactorization();
            result.converged = false;  // singular matrix: let the caller react
            result.failure = NewtonFailure::SingularMatrix;
            if (obsOn) {
                result.factorSeconds += obs::monotonicSeconds() - tMark;
                recordSolveHealth(result);
            }
            return result;
        }
        if (obsOn) result.factorSeconds += obs::monotonicSeconds() - tMark;

        // Reject non-finite solutions immediately. std::max(x, NaN) keeps x,
        // so the damping/divergence logic below is blind to NaN — without this
        // scan a NaN solve could be reported as converged.
        for (double v : xNew) {
            if (!std::isfinite(v)) {
                result.converged = false;
                result.failure = NewtonFailure::NanResidual;
                if (obsOn) recordSolveHealth(result);
                return result;
            }
        }

        // Damping: clamp the largest node-voltage change per iteration.
        double maxNodeDelta = 0.0;
        for (int i = 0; i < numNodeUnknowns; ++i)
            maxNodeDelta = std::max(maxNodeDelta, std::abs(xNew[i] - x[i]));
        const double scale =
            maxNodeDelta > options.maxUpdate ? options.maxUpdate / maxNodeDelta : 1.0;

        bool converged = scale == 1.0;
        double maxDelta = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double delta = scale * (xNew[i] - x[i]);
            x[i] += delta;
            maxDelta = std::max(maxDelta, std::abs(delta));
            const double absTol =
                static_cast<int>(i) < numNodeUnknowns ? options.vAbsTol : options.iAbsTol;
            if (std::abs(delta) > absTol + options.relTol * std::abs(x[i])) converged = false;
        }
        result.maxDelta = maxDelta;
        if (converged && iter > 1) {
            // Require one extra confirming iteration after full (undamped)
            // steps so strongly nonlinear devices re-evaluate at the solution.
            result.converged = true;
            if (obsOn) recordSolveHealth(result);
            return result;
        }
        if (!std::isfinite(maxDelta)) {  // diverged
            result.failure = NewtonFailure::NanResidual;
            if (obsOn) recordSolveHealth(result);
            return result;
        }
    }
    result.failure = NewtonFailure::NonConverged;
    if (obsOn) recordSolveHealth(result);
    return result;
}

NewtonResult solveNewton(const Circuit& circuit, const SimContext& ctx, std::vector<double>& x,
                         const NewtonOptions& options) {
    SolverWorkspace workspace;
    return solveNewton(circuit, ctx, x, options, workspace);
}

}  // namespace fetcam::spice
