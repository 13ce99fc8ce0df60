// Device-model tests: MOSFET regions and derivative consistency, inverter
// VTC, Preisach hysteresis properties, FeFET program/erase/disturb behavior,
// ReRAM switching.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "device/fefet.hpp"
#include "device/ferro.hpp"
#include "device/mosfet.hpp"
#include "device/passives.hpp"
#include "device/reram.hpp"
#include "device/sources.hpp"
#include "device/tech.hpp"
#include "numeric/stats.hpp"
#include "spice/dcop.hpp"
#include "spice/transient.hpp"

using namespace fetcam;
using namespace fetcam::device;

namespace {
const TechCard kTech = TechCard::cmos45();
}

TEST(MosfetModel, OffAndOnCurrents) {
    const auto& p = kTech.nmos;
    const double idOff = ekvChannel(p, 0.0, 1.0, p.vt0).id;
    const double idOn = ekvChannel(p, 1.0, 1.0, p.vt0).id;
    EXPECT_GT(idOn, 1e-5);        // tens of uA for a near-minimum device
    EXPECT_LT(idOff, 1e-8);       // off leakage
    EXPECT_GT(idOn / idOff, 1e4); // healthy on/off ratio
}

TEST(MosfetModel, SubthresholdSlopeReasonable) {
    const auto& p = kTech.nmos;
    // Current should grow ~10x per n*Ut*ln(10) of gate drive below VT.
    const double i1 = ekvChannel(p, 0.20, 1.0, p.vt0).id;
    const double i2 = ekvChannel(p, 0.20 + p.n * p.ut * std::log(10.0), 1.0, p.vt0).id;
    EXPECT_NEAR(i2 / i1, 10.0, 2.0);
}

TEST(MosfetModel, TriodeVsSaturation) {
    const auto& p = kTech.nmos;
    const double triode = ekvChannel(p, 1.0, 0.05, p.vt0).id;
    const double sat = ekvChannel(p, 1.0, 1.0, p.vt0).id;
    EXPECT_GT(sat, 3.0 * triode);
    // Saturation current should be nearly flat in vds (up to lambda).
    const double sat2 = ekvChannel(p, 1.0, 0.9, p.vt0).id;
    EXPECT_NEAR(sat / sat2, (1.0 + p.lambda * 1.0) / (1.0 + p.lambda * 0.9), 0.05);
}

TEST(MosfetModel, SymmetricConductionReversesSign) {
    const auto& p = kTech.nmos;
    EXPECT_LT(ekvChannel(p, 1.0, -0.3, p.vt0).id, 0.0);
    EXPECT_NEAR(ekvChannel(p, 1.0, 0.0, p.vt0).id, 0.0, 1e-12);
}

// Property: analytic gm/gds match finite differences across random bias.
class MosDerivative : public ::testing::TestWithParam<int> {};

TEST_P(MosDerivative, MatchesFiniteDifference) {
    numeric::Rng rng(37 + static_cast<std::uint64_t>(GetParam()));
    const auto& p = kTech.nmos;
    const double vgs = rng.uniform(-0.2, 1.2);
    const double vds = rng.uniform(-0.5, 1.2);
    const double h = 1e-6;
    const auto e = ekvChannel(p, vgs, vds, p.vt0);
    const double gmFd =
        (ekvChannel(p, vgs + h, vds, p.vt0).id - ekvChannel(p, vgs - h, vds, p.vt0).id) /
        (2.0 * h);
    const double gdsFd =
        (ekvChannel(p, vgs, vds + h, p.vt0).id - ekvChannel(p, vgs, vds - h, p.vt0).id) /
        (2.0 * h);
    const double tol = 1e-6 + 1e-4 * std::abs(gmFd);
    EXPECT_NEAR(e.gm, gmFd, tol);
    EXPECT_NEAR(e.gds, gdsFd, 1e-6 + 1e-4 * std::abs(gdsFd));
}

INSTANTIATE_TEST_SUITE_P(RandomBias, MosDerivative, ::testing::Range(0, 20));

TEST(MosfetModel, InverterVtc) {
    // CMOS inverter driven through a DC sweep: check rails and monotonicity.
    const double vdd = kTech.vdd;
    double prev = vdd + 1.0;
    for (double vin : {0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0}) {
        spice::Circuit c;
        const auto nin = c.node("in");
        const auto nout = c.node("out");
        const auto nvdd = c.node("vdd");
        c.add<VoltageSource>("Vdd", c, nvdd, spice::kGround, SourceWave::dc(vdd));
        c.add<VoltageSource>("Vin", c, nin, spice::kGround, SourceWave::dc(vin));
        c.add<Mosfet>("MP", nin, nout, nvdd, kTech.pmos);
        c.add<Mosfet>("MN", nin, nout, spice::kGround, kTech.nmos);
        const auto op = spice::solveDcOp(c);
        ASSERT_TRUE(op.converged) << "vin=" << vin;
        const double vout = op.v(nout);
        EXPECT_LT(vout, prev + 1e-6) << "VTC must be non-increasing, vin=" << vin;
        prev = vout;
        if (vin == 0.0) {
            EXPECT_NEAR(vout, vdd, 0.02);
        }
        if (vin == 1.0) {
            EXPECT_NEAR(vout, 0.0, 0.02);
        }
    }
}

TEST(MosfetModel, RingOscillatorOscillates) {
    // 3-stage ring oscillator: a strong end-to-end engine check.
    const double vdd = kTech.vdd;
    spice::Circuit c;
    const auto nvdd = c.node("vdd");
    c.add<VoltageSource>("Vdd", c, nvdd, spice::kGround, SourceWave::dc(vdd));
    const spice::NodeId n[3] = {c.node("s0"), c.node("s1"), c.node("s2")};
    for (int i = 0; i < 3; ++i) {
        const auto in = n[i];
        const auto out = n[(i + 1) % 3];
        c.add<Mosfet>("MP" + std::to_string(i), in, out, nvdd, kTech.pmos);
        c.add<Mosfet>("MN" + std::to_string(i), in, out, spice::kGround, kTech.nmos);
        c.add<Capacitor>("CL" + std::to_string(i), out, spice::kGround, 0.5e-15);
    }
    spice::TransientSpec spec;
    spec.tstop = 2e-9;
    spec.dtMax = 2e-12;
    spec.initialConditions = {{n[0], vdd}};  // break the symmetry
    const auto res = runTransient(c, spec);
    ASSERT_TRUE(res.finished);
    // Count mid-rail crossings of one stage in the second half of the run.
    const auto t = res.waveforms.time();
    const auto v = res.waveforms.node(n[1]);
    int crossings = 0;
    for (std::size_t i = 1; i < t.size(); ++i)
        if (t[i] > 1e-9 && (v[i - 1] - vdd / 2) * (v[i] - vdd / 2) < 0.0) ++crossings;
    EXPECT_GE(crossings, 4) << "ring oscillator failed to oscillate";
}

TEST(Preisach, SaturationAndRemanence) {
    PreisachBank bank(kTech.fefet.ferro);
    bank.settle(5.0);
    EXPECT_NEAR(bank.pnorm(), 1.0, 1e-9);
    bank.settle(0.0);  // remove field: remanent state holds
    EXPECT_NEAR(bank.pnorm(), 1.0, 1e-9);
    bank.settle(-5.0);
    EXPECT_NEAR(bank.pnorm(), -1.0, 1e-9);
}

TEST(Preisach, SubCoerciveHold) {
    PreisachBank bank(kTech.fefet.ferro);
    bank.reset(-1.0);
    // Logic-level disturb for a long time: nothing may move (all vc > 0.7).
    for (int i = 0; i < 1000; ++i) bank.advance(0.7, 1e-9);
    EXPECT_NEAR(bank.pnorm(), -1.0, 1e-12);
}

TEST(Preisach, WipingProperty) {
    // Classical Preisach wiping: a larger reversal erases the memory of
    // smaller intermediate cycling.
    PreisachBank a(kTech.fefet.ferro);
    PreisachBank b(kTech.fefet.ferro);
    a.settle(-5.0);
    b.settle(-5.0);
    // Bank a takes a detour through minor loops before the big sweep.
    a.settle(1.6);
    a.settle(-1.2);
    a.settle(1.3);
    a.settle(5.0);
    b.settle(5.0);
    EXPECT_NEAR(a.pnorm(), b.pnorm(), 1e-12);
}

TEST(Preisach, MinorLoopIsContained) {
    PreisachBank bank(kTech.fefet.ferro);
    bank.settle(-5.0);
    bank.settle(1.5);  // partial switch up
    const double pPartial = bank.pnorm();
    EXPECT_GT(pPartial, -1.0);
    EXPECT_LT(pPartial, 1.0);
    bank.settle(-1.1);  // partial switch back down
    EXPECT_LT(bank.pnorm(), pPartial);
    EXPECT_GT(bank.pnorm(), -1.0);
}

TEST(Preisach, MerzFasterAtHigherVoltage) {
    PreisachBank slow(kTech.fefet.ferro);
    PreisachBank fast(kTech.fefet.ferro);
    slow.reset(-1.0);
    fast.reset(-1.0);
    slow.advance(2.2, 5e-9);
    fast.advance(3.2, 5e-9);
    EXPECT_GT(fast.pnorm(), slow.pnorm());
}

TEST(Preisach, ResetValidatesRange) {
    PreisachBank bank(kTech.fefet.ferro);
    EXPECT_THROW(bank.reset(1.5), std::invalid_argument);
}

namespace {

/// pnorm() after construction and after each step of a scripted history:
/// resets, an optional search-level (sub-coercive) advance, partial Merz
/// switching both ways, settle, retention relax, cycling history, then more
/// switching at the reduced polarization.
std::vector<double> scriptedPnorm(bool withSubCoerciveAdvance) {
    PreisachBank bank(kTech.fefet.ferro);
    std::vector<double> p{bank.pnorm()};
    const auto step = [&](auto&& mutate) {
        mutate();
        p.push_back(bank.pnorm());
    };
    step([&] { bank.reset(-1.0); });
    step([&] { bank.reset(0.0); });
    step([&] { bank.reset(0.3); });
    step([&] {
        if (withSubCoerciveAdvance) bank.advance(kTech.vdd, 1e-6);
    });
    step([&] { bank.advance(1.5, 2e-9); });
    step([&] { bank.advance(-1.3, 1e-9); });
    step([&] { bank.settle(1.4); });
    step([&] { bank.relax(3.15e8); });
    step([&] { bank.setCyclingHistory(1e3); });
    step([&] { bank.advance(2.0, 3e-9); });
    step([&] { bank.setCyclingHistory(1e7); });
    step([&] { bank.advance(-3.0, 1e-9); });
    step([&] { bank.settle(-1.2); });
    step([&] { bank.relax(1e9); });
    return p;
}

}  // namespace

// The bank keeps its weighted state sum between reads; these hexfloats were
// recorded (x86-64, glibc libm) from the implementation that re-added every
// hysteron on each pnorm() call, so a mutator that forgets to refresh the
// sum, or a sum taken in another order, shows up as a changed bit.
TEST(Preisach, ScriptedHistoryIsBitExact) {
    const std::vector<double> expected = {
        -0x1.0000000000002p+0,  // constructed (all -1)
        -0x1.0000000000002p+0,  // reset(-1)
        0x0p+0,  // reset(0)
        0x1.3333333333333p-2,  // reset(0.3)
        0x1.3333333333333p-2,  // advance(VDD): sub-coercive
        0x1.606c11f528e84p-2,  // advance(1.5 V, 2 ns)
        0x1.58aa719879ca3p-2,  // advance(-1.3 V, 1 ns)
        0x1.1f985c516b9f3p-1,  // settle(1.4 V)
        0x1.02edd13c1de2ap-1,  // relax(10 years)
        0x1.fccba18be3af4p-2,  // setCyclingHistory(1e3): wake-up
        0x1.3128b10ad454ep-1,  // advance(2 V, 3 ns)
        0x1.1152b21d3ddabp-1,  // setCyclingHistory(1e7): fatigue
        0x1.566ee2e2aa145p-2,  // advance(-3 V, 1 ns)
        0x1.335ea9d437c48p-2,  // settle(-1.2 V)
        0x1.b87aea8518ac1p-3,  // relax(1e9 s)
    };
    const std::vector<double> got = scriptedPnorm(true);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << "step " << i << ": " << std::hexfloat << got[i];
    // A search-level advance touches no hysteron: the later history is
    // bit-identical to a bank that never saw it.
    EXPECT_EQ(scriptedPnorm(false), got);
}

TEST(FerroCap, HysteresisLoopDissipatesEnergy) {
    // Drive a triangular +/-4 V cycle across the FE cap; after a full loop the
    // absorbed energy must be positive (hysteresis loss), unlike a linear cap.
    spice::Circuit c;
    const auto nin = c.node("in");
    c.add<VoltageSource>(
        "V1", c, nin, spice::kGround,
        SourceWave::pwl({0.0, 50e-9, 150e-9, 250e-9, 300e-9}, {0.0, 4.0, -4.0, 4.0, 4.0}));
    auto& fe = c.add<FerroCap>("F1", nin, spice::kGround, kTech.fefet.ferro, 120e-9 * 45e-9);
    fe.setPolarization(-1.0);

    spice::TransientSpec spec;
    spec.tstop = 300e-9;
    spec.dtMax = 0.2e-9;
    const auto res = runTransient(c, spec);
    ASSERT_TRUE(res.finished);
    EXPECT_GT(fe.pnorm(), 0.9);      // ends programmed up
    EXPECT_GT(fe.energy(), 0.0);     // net loss after cycling
}

TEST(FeFet, MemoryWindow) {
    const auto& p = kTech.fefet;
    EXPECT_NEAR(p.vtLow(), 0.15, 1e-9);
    EXPECT_NEAR(p.vtHigh(), 1.25, 1e-9);
    // On/off discrimination at VDD gate drive.
    const double iLow = ekvChannel(p.mos, kTech.vdd, 0.5, p.vtLow()).id;
    const double iHigh = ekvChannel(p.mos, kTech.vdd, 0.5, p.vtHigh()).id;
    EXPECT_GT(iLow / iHigh, 1e3);
}

namespace {

struct PulseEnd {
    double pnorm = 0.0;
    double vtEff = 0.0;
};

/// Apply one gate pulse to a grounded-source FeFET; its final state.
PulseEnd pulseEnd(double startP, double vPulse, double width) {
    spice::Circuit c;
    const auto g = c.node("g");
    c.add<VoltageSource>("Vg", c, g, spice::kGround,
                         SourceWave::pulse(0.0, vPulse, 1e-9, 1e-9, 1e-9, width));
    auto& fet = c.add<FeFet>("X1", g, spice::kGround, spice::kGround, kTech.fefet);
    fet.setPolarization(startP);
    spice::TransientSpec spec;
    spec.tstop = width + 5e-9;
    spec.dtMax = 0.5e-9;
    runTransient(c, spec);
    return {fet.pnorm(), fet.vtEff()};
}

double pulseFeFet(double startP, double vPulse, double width) {
    return pulseEnd(startP, vPulse, width).pnorm;
}

}  // namespace

TEST(FeFet, ProgramAndErasePulses) {
    EXPECT_GT(pulseFeFet(-1.0, kTech.vWriteFe, kTech.tWriteFe), 0.95);   // program
    EXPECT_LT(pulseFeFet(1.0, -kTech.vWriteFe, kTech.tWriteFe), -0.95); // erase
}

TEST(FeFet, SearchPulseDoesNotDisturb) {
    // Thousands of search cycles at VDD must not move the polarization.
    const double p = pulseFeFet(-1.0, kTech.vdd, 1000e-9);
    EXPECT_NEAR(p, -1.0, 1e-9);
}

// Hexfloats recorded like Preisach.ScriptedHistoryIsBitExact's, through
// whole transients: a search pulse on a partly polarized device and a brief
// program pulse.
TEST(FeFet, PulsesAreBitExact) {
    const PulseEnd search = pulseEnd(0.3, kTech.vdd, 200e-9);
    const PulseEnd program = pulseEnd(-1.0, kTech.vWriteFe, 3e-9);
    EXPECT_EQ(search.pnorm, 0x1.3333333333333p-2);
    EXPECT_EQ(search.vtEff, 0x1.11eb851eb851ep-1);
    EXPECT_EQ(program.pnorm, -0x1.7a60740370428p-4);
    EXPECT_EQ(program.vtEff, 0x1.8069d4c6a2eafp-1);
}

TEST(FeFet, ShorterOrWeakerPulseSwitchesLess) {
    const double full = pulseFeFet(-1.0, kTech.vWriteFe, kTech.tWriteFe);
    const double brief = pulseFeFet(-1.0, kTech.vWriteFe, 3e-9);
    const double weak = pulseFeFet(-1.0, 2.0, kTech.tWriteFe);
    EXPECT_LT(brief, full);
    EXPECT_LT(weak, full);
}

TEST(Reram, ResistanceStates) {
    spice::Circuit c;
    Reram r("R1", c.node("a"), spice::kGround, kTech.reram);
    EXPECT_NEAR(r.resistance(), kTech.reram.rOff, 1.0);
    r.setLrs();
    EXPECT_NEAR(r.resistance(), kTech.reram.rOn, 1.0);
    r.setState(0.5);
    EXPECT_NEAR(r.resistance(), std::sqrt(kTech.reram.rOn * kTech.reram.rOff), 10.0);
    EXPECT_THROW(r.setState(1.5), std::invalid_argument);
}

namespace {

double pulseReram(double startW, double vPulse, double width) {
    spice::Circuit c;
    const auto a = c.node("a");
    c.add<VoltageSource>("Vp", c, a, spice::kGround,
                         SourceWave::pulse(0.0, vPulse, 1e-9, 0.5e-9, 0.5e-9, width));
    auto& r = c.add<Reram>("R1", a, spice::kGround, kTech.reram, startW);
    spice::TransientSpec spec;
    spec.tstop = width + 4e-9;
    spec.dtMax = 0.25e-9;
    runTransient(c, spec);
    return r.state();
}

}  // namespace

TEST(Reram, SetAndResetPulses) {
    EXPECT_GT(pulseReram(0.0, kTech.vWriteReram, kTech.tWriteReram), 0.95);
    EXPECT_LT(pulseReram(1.0, -kTech.vWriteReram, kTech.tWriteReram), 0.05);
}

TEST(Reram, ReadIsNonDestructive) {
    EXPECT_NEAR(pulseReram(0.0, 1.0, 200e-9), 0.0, 1e-12);
    EXPECT_NEAR(pulseReram(1.0, -1.0, 200e-9), 1.0, 1e-12);
}

TEST(TechCard, SizingHelpers) {
    const auto w2 = kTech.sizedNmos(2.0);
    EXPECT_DOUBLE_EQ(w2.w, 2.0 * kTech.nmos.w);
    EXPECT_DOUBLE_EQ(w2.l, kTech.nmos.l);
    const auto p3 = kTech.sizedPmos(3.0);
    EXPECT_DOUBLE_EQ(p3.w, 3.0 * kTech.pmos.w);
}
