// Integration tests for the MNA engine: DC solutions against hand-derived
// circuits, transients against analytic RC responses, energy bookkeeping
// against Tellegen's theorem.
#include <gtest/gtest.h>

#include "recover/sim_error.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "device/passives.hpp"
#include "device/sources.hpp"
#include "obs/obs.hpp"
#include "obs/trace_reader.hpp"
#include "spice/circuit.hpp"
#include "spice/dcop.hpp"
#include "spice/transient.hpp"

using namespace fetcam;
using device::Capacitor;
using device::CurrentSource;
using device::Resistor;
using device::SourceWave;
using device::VoltageSource;

TEST(DcOp, VoltageDivider) {
    spice::Circuit c;
    const auto vin = c.node("in");
    const auto mid = c.node("mid");
    c.add<VoltageSource>("V1", c, vin, spice::kGround, SourceWave::dc(3.0));
    c.add<Resistor>("R1", vin, mid, 1000.0);
    c.add<Resistor>("R2", mid, spice::kGround, 2000.0);

    const auto op = spice::solveDcOp(c);
    ASSERT_TRUE(op.converged);
    EXPECT_NEAR(op.v(vin), 3.0, 1e-9);
    EXPECT_NEAR(op.v(mid), 2.0, 1e-6);
}

TEST(DcOp, CurrentSourceIntoResistor) {
    spice::Circuit c;
    const auto n1 = c.node("n1");
    // 1 mA pushed from ground into n1 through the source, 1 kOhm to ground.
    c.add<CurrentSource>("I1", spice::kGround, n1, SourceWave::dc(1e-3));
    c.add<Resistor>("R1", n1, spice::kGround, 1000.0);
    const auto op = spice::solveDcOp(c);
    ASSERT_TRUE(op.converged);
    EXPECT_NEAR(op.v(n1), 1.0, 1e-6);
}

TEST(DcOp, VoltageSourceBranchCurrent) {
    spice::Circuit c;
    const auto vin = c.node("in");
    auto& vs = c.add<VoltageSource>("V1", c, vin, spice::kGround, SourceWave::dc(1.0));
    c.add<Resistor>("R1", vin, spice::kGround, 1000.0);
    const auto op = spice::solveDcOp(c);
    ASSERT_TRUE(op.converged);
    // Branch current flows p -> source -> n; the source pushes 1 mA out of
    // its + terminal, so the branch unknown is -1 mA.
    EXPECT_NEAR(op.x[static_cast<std::size_t>(c.numNodes() - 1 + vs.branch())], -1e-3, 1e-9);
}

TEST(Transient, RcChargeMatchesAnalytic) {
    // 10k * 100f = 1 ns time constant.
    const double r = 10e3, cap = 100e-15, tau = r * cap;
    spice::Circuit c;
    const auto vin = c.node("in");
    const auto out = c.node("out");
    c.add<VoltageSource>("V1", c, vin, spice::kGround,
                         SourceWave::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0));
    c.add<Resistor>("R1", vin, out, r);
    c.add<Capacitor>("C1", out, spice::kGround, cap);

    spice::TransientSpec spec;
    spec.tstop = 8.0 * tau;
    spec.dtMax = tau / 50.0;
    const auto res = runTransient(c, spec);
    ASSERT_TRUE(res.finished);

    for (double t : {0.5 * tau, 1.0 * tau, 2.0 * tau, 5.0 * tau}) {
        const double expected = 1.0 - std::exp(-t / tau);
        EXPECT_NEAR(res.waveforms.nodeAt(out, t), expected, 0.01)
            << "at t=" << t;
    }
    EXPECT_NEAR(res.waveforms.finalNode(out), 1.0, 1e-3);
}

TEST(Transient, RcEnergyBookkeeping) {
    const double r = 10e3, cap = 100e-15, tau = r * cap;
    spice::Circuit c;
    const auto vin = c.node("in");
    const auto out = c.node("out");
    auto& vs = c.add<VoltageSource>("V1", c, vin, spice::kGround,
                                    SourceWave::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0));
    auto& res1 = c.add<Resistor>("R1", vin, out, r);
    auto& cap1 = c.add<Capacitor>("C1", out, spice::kGround, cap);

    spice::TransientSpec spec;
    spec.tstop = 12.0 * tau;
    spec.dtMax = tau / 100.0;
    const auto tr = runTransient(c, spec);
    ASSERT_TRUE(tr.finished);

    const double e = cap * 1.0 * 1.0;  // C*V^2 drawn from the supply
    EXPECT_NEAR(vs.deliveredEnergy(), e, 0.02 * e);
    EXPECT_NEAR(res1.energy(), 0.5 * e, 0.02 * e);
    EXPECT_NEAR(cap1.energy(), 0.5 * e, 0.02 * e);
    EXPECT_NEAR(cap1.storedEnergy(), 0.5 * e, 0.02 * e);
    // Tellegen: the sum of absorbed energies over all devices is ~0.
    EXPECT_NEAR(c.totalEnergy(), 0.0, 1e-3 * e);
}

TEST(Transient, UicDischarge) {
    const double r = 1e3, cap = 1e-12, tau = r * cap;
    spice::Circuit c;
    const auto n1 = c.node("n1");
    c.add<Resistor>("R1", n1, spice::kGround, r);
    c.add<Capacitor>("C1", n1, spice::kGround, cap);

    spice::TransientSpec spec;
    spec.tstop = 5.0 * tau;
    spec.dtMax = tau / 50.0;
    spec.initialConditions = {{n1, 1.0}};
    const auto res = runTransient(c, spec);
    EXPECT_NEAR(res.waveforms.nodeAt(n1, tau), std::exp(-1.0), 0.01);
    EXPECT_NEAR(res.waveforms.nodeAt(n1, 3.0 * tau), std::exp(-3.0), 0.01);
}

TEST(Transient, PwlSourceFollowed) {
    spice::Circuit c;
    const auto vin = c.node("in");
    c.add<VoltageSource>(
        "V1", c, vin, spice::kGround,
        SourceWave::pwl({0.0, 1e-9, 2e-9, 3e-9}, {0.0, 1.0, 1.0, -0.5}));
    c.add<Resistor>("R1", vin, spice::kGround, 1e6);

    spice::TransientSpec spec;
    spec.tstop = 4e-9;
    spec.dtMax = 0.05e-9;
    const auto res = runTransient(c, spec);
    EXPECT_NEAR(res.waveforms.nodeAt(vin, 0.5e-9), 0.5, 1e-6);
    EXPECT_NEAR(res.waveforms.nodeAt(vin, 1.5e-9), 1.0, 1e-6);
    EXPECT_NEAR(res.waveforms.nodeAt(vin, 2.5e-9), 0.25, 1e-6);
    EXPECT_NEAR(res.waveforms.nodeAt(vin, 3.5e-9), -0.5, 1e-6);
}

TEST(Transient, BreakpointsAreHit) {
    spice::Circuit c;
    const auto vin = c.node("in");
    c.add<VoltageSource>("V1", c, vin, spice::kGround,
                         SourceWave::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 0.5e-9));
    c.add<Resistor>("R1", vin, spice::kGround, 1e3);

    spice::TransientSpec spec;
    spec.tstop = 3e-9;
    spec.dtMax = 0.4e-9;  // much coarser than the pulse edges
    const auto res = runTransient(c, spec);
    // The pulse must still be fully resolved because edges are breakpoints.
    EXPECT_NEAR(res.waveforms.nodeAt(vin, 1.35e-9), 1.0, 1e-6);
    EXPECT_NEAR(res.waveforms.nodeAt(vin, 2.5e-9), 0.0, 1e-6);
}

TEST(Transient, RejectsBadSpec) {
    spice::Circuit c;
    c.add<Resistor>("R1", c.node("a"), spice::kGround, 1.0);
    spice::TransientSpec spec;
    spec.tstop = 0.0;
    spec.dtMax = 1e-9;
    EXPECT_THROW(runTransient(c, spec), recover::SimError);
    spec.tstop = 1e-9;
    spec.dtMax = 0.0;
    EXPECT_THROW(runTransient(c, spec), recover::SimError);
    // A node the circuit does not have would index past the unknown vector.
    spec.dtMax = 1e-11;
    spec.initialConditions = {{50, 1.0}};
    EXPECT_THROW(runTransient(c, spec), recover::SimError);
}

TEST(Transient, InstrumentedRunStepEventsMatchCounters) {
    const std::string path = ::testing::TempDir() + "spice_step_trace.jsonl";
    ASSERT_TRUE(obs::TraceSink::global().open(path));
    obs::setEnabled(true);

    const double r = 10e3, cap = 100e-15, tau = r * cap;
    spice::Circuit c;
    const auto vin = c.node("in");
    const auto out = c.node("out");
    c.add<VoltageSource>("V1", c, vin, spice::kGround,
                         SourceWave::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0));
    c.add<Resistor>("R1", vin, out, r);
    c.add<Capacitor>("C1", out, spice::kGround, cap);

    spice::TransientSpec spec;
    spec.tstop = 8.0 * tau;
    spec.dtMax = tau / 50.0;
    const auto res = runTransient(c, spec);
    obs::setEnabled(false);
    obs::TraceSink::global().close();
    ASSERT_TRUE(res.finished);

    // Step events in the trace must agree with the result's counters, and
    // the iteration accounting must split cleanly into accepted + rejected.
    const auto records = obs::readTraceFile(path);
    int accepts = 0, rejects = 0, acceptIters = 0, rejectIters = 0;
    for (const auto& rec : records) {
        if (!rec.isEvent()) continue;
        if (rec.name == "step.accept") {
            ++accepts;
            acceptIters += static_cast<int>(rec.num.at("iters"));
            EXPECT_GT(rec.num.at("dt"), 0.0);
        } else if (rec.name == "step.reject") {
            ++rejects;
            rejectIters += static_cast<int>(rec.num.at("iters"));
        }
    }
    EXPECT_EQ(accepts, res.acceptedSteps);
    EXPECT_EQ(rejects, res.rejectedSteps);
    EXPECT_EQ(accepts + rejects, res.acceptedSteps + res.rejectedSteps);
    EXPECT_EQ(acceptIters + rejectIters, res.newtonIterations);
    EXPECT_EQ(rejectIters, res.rejectedNewtonIterations);

    // SolverStats collected during an instrumented run.
    EXPECT_EQ(res.stats.dtHistogram.total(), res.acceptedSteps);
    // Every iteration of this well-posed circuit factors exactly once —
    // a full pivoting factorization for the first, numeric refactorizations
    // replaying the cached pattern for the rest.
    EXPECT_EQ(res.stats.factorizations + res.stats.refactorizations,
              res.newtonIterations);
    EXPECT_GE(res.stats.factorizations, 1);
    EXPECT_GT(res.stats.refactorizations, res.stats.factorizations);
    EXPECT_GT(res.stats.totalSeconds, 0.0);
    EXPECT_GT(res.stats.stampSeconds, 0.0);
    EXPECT_GT(res.stats.factorSeconds, 0.0);
    EXPECT_GE(res.stats.worstStepIterations, 1);

    // The enclosing transient span is present and carries the step counts.
    bool sawSpan = false;
    for (const auto& rec : records) {
        if (rec.isSpan() && rec.name == "spice.transient") {
            sawSpan = true;
            EXPECT_EQ(static_cast<int>(rec.num.at("steps")), res.acceptedSteps);
            EXPECT_EQ(static_cast<int>(rec.num.at("rejected")), res.rejectedSteps);
        }
    }
    EXPECT_TRUE(sawSpan);
}

TEST(Circuit, NodeNamingAndLookup) {
    spice::Circuit c;
    EXPECT_EQ(c.node("0"), spice::kGround);
    EXPECT_EQ(c.node("gnd"), spice::kGround);
    const auto a = c.node("a");
    EXPECT_EQ(c.node("a"), a);
    EXPECT_NE(c.internalNode("x"), c.internalNode("x"));
    EXPECT_TRUE(c.hasNode("a"));
    EXPECT_FALSE(c.hasNode("zzz"));
    EXPECT_THROW(c.findNode("zzz"), std::out_of_range);
    EXPECT_EQ(c.nodeName(a), "a");
}

TEST(Circuit, FindDevice) {
    spice::Circuit c;
    c.add<Resistor>("R1", c.node("a"), spice::kGround, 1.0);
    EXPECT_NE(c.findDevice("R1"), nullptr);
    EXPECT_EQ(c.findDevice("R2"), nullptr);
}

TEST(Waveforms, InterpolationAndPeak) {
    spice::Waveforms w(2, 0);
    w.record(0.0, {0.0});
    w.record(1.0, {2.0});
    w.record(2.0, {-4.0});
    EXPECT_DOUBLE_EQ(w.nodeAt(1, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(w.nodeAt(1, 1.5), -1.0);
    EXPECT_DOUBLE_EQ(w.nodeAt(1, 99.0), -4.0);
    EXPECT_DOUBLE_EQ(w.peakNode(1), 4.0);
    EXPECT_DOUBLE_EQ(w.finalNode(1), -4.0);
    EXPECT_DOUBLE_EQ(w.nodeAt(spice::kGround, 1.0), 0.0);
}

TEST(Waveforms, ProbedRecordReadsLikeTheFullRecord) {
    const auto run = [](std::vector<spice::NodeId> probes) {
        spice::Circuit c;
        const auto vin = c.node("in");
        const auto out = c.node("out");
        c.add<VoltageSource>("V1", c, vin, spice::kGround,
                             SourceWave::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0));
        c.add<Resistor>("R1", vin, out, 10e3);
        c.add<Capacitor>("C1", out, spice::kGround, 100e-15);
        spice::TransientSpec spec;
        spec.tstop = 5e-9;
        spec.dtMax = 2e-11;
        spec.probes = std::move(probes);
        return runTransient(c, spec).waveforms;
    };
    const spice::NodeId in = 1, out = 2;
    const auto full = run({});
    const auto probed = run({out});
    ASSERT_EQ(probed.time(), full.time());
    EXPECT_EQ(probed.node(out), full.node(out));
    for (const double t : {0.0, 0.37e-9, 1e-9, 2.5e-9, 5e-9})
        EXPECT_EQ(probed.nodeAt(out, t), full.nodeAt(out, t)) << "t=" << t;
    EXPECT_EQ(probed.finalNode(out), full.finalNode(out));
    EXPECT_EQ(probed.peakNode(out), full.peakNode(out));
    EXPECT_EQ(probed.nodeAt(spice::kGround, 1e-9), 0.0);

    // Only the probed column was kept: other nodes and branches throw.
    EXPECT_NO_THROW(full.branch(0));
    EXPECT_THROW(probed.node(in), std::out_of_range);
    EXPECT_THROW(probed.nodeAt(in, 1e-9), std::out_of_range);
    EXPECT_THROW(probed.finalNode(in), std::out_of_range);
    EXPECT_THROW(probed.peakNode(in), std::out_of_range);
    EXPECT_THROW(probed.branch(0), std::out_of_range);
    // A probe outside the circuit is a typed spec error.
    try {
        run({3});
        FAIL() << "expected SimError";
    } catch (const recover::SimError& e) {
        EXPECT_EQ(e.reason(), recover::SimErrorReason::InvalidSpec);
    }
}

TEST(Waveforms, NodeAtBoundaryAndNanQueries) {
    spice::Waveforms w(2, 0);
    w.record(0.0, {0.0});
    w.record(1.0, {2.0});
    w.record(2.0, {-4.0});
    // Exact sample times return the recorded value (no zero-width division).
    EXPECT_DOUBLE_EQ(w.nodeAt(1, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(w.nodeAt(1, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(w.nodeAt(1, 2.0), -4.0);
    // Clamped on both sides.
    EXPECT_DOUBLE_EQ(w.nodeAt(1, -5.0), 0.0);
    EXPECT_DOUBLE_EQ(w.nodeAt(1, 1e9), -4.0);
    // Just inside the last interval stays finite and close to the endpoint.
    EXPECT_NEAR(w.nodeAt(1, std::nextafter(2.0, 0.0)), -4.0, 1e-6);
    // Regression: a NaN query used to slip past the range clamps (NaN
    // comparisons are false) and index one past the sample vector; it now
    // raises a structured error instead.
    EXPECT_THROW(w.nodeAt(1, std::numeric_limits<double>::quiet_NaN()),
                 std::runtime_error);
}
