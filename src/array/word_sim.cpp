#include "array/word_sim.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "device/fefet.hpp"
#include "device/mosfet.hpp"
#include "device/passives.hpp"
#include "device/sources.hpp"
#include "numeric/interp.hpp"
#include "obs/obs.hpp"
#include "recover/sim_error.hpp"

namespace fetcam::array {

namespace {

using namespace fetcam::device;
using tcam::CellPorts;
using tcam::CellVariation;

/// Nodes and sources a word build exposes to the measurement code.
struct WordNetlist {
    spice::NodeId ml = 0;
    spice::NodeId saOut = 0;
    VoltageSource* vPre = nullptr;
    VoltageSource* vPreGate = nullptr;
    VoltageSource* vSa = nullptr;
    VoltageSource* vSaEn = nullptr;
    VoltageSource* vStore = nullptr;
    std::vector<VoltageSource*> slSources;
    std::vector<std::pair<spice::NodeId, double>> initialConditions;
};

SourceWave slWave(bool asserted, double vHigh, const SearchTiming& t) {
    if (!asserted) return SourceWave::dc(0.0);
    return SourceWave::pulse(0.0, vHigh, t.evalStart(), t.slEdge, t.slEdge,
                             t.tEval - 2.0 * t.slEdge);
}

/// A driven line: ideal source behind a series driver resistance, so the
/// driver dissipates the C*V^2 its load actually costs.
VoltageSource& addDrivenNode(spice::Circuit& c, const std::string& name, spice::NodeId node,
                             SourceWave wave, double rDriver,
                             std::vector<std::pair<spice::NodeId, double>>& ics) {
    const auto raw = c.node(name + "_drv");
    auto& src = c.add<VoltageSource>("V" + name, c, raw, spice::kGround, wave);
    c.add<Resistor>("R" + name, raw, node, rDriver);
    const double v0 = src.valueAt(0.0);
    ics.push_back({raw, v0});
    ics.push_back({node, v0});
    return src;
}

/// Build the complete word: cells, searchline drivers, precharger, sense amp.
WordNetlist buildWord(spice::Circuit& c, const WordSimOptions& o) {
    const auto& tech = o.tech;
    const auto& cfg = o.config;
    const auto& t = cfg.timing;
    const int bits = static_cast<int>(o.stored.size());
    const double vdd = tech.vdd;
    const double vPre = cfg.effectiveVPrecharge(tech);
    const double vSearch = cfg.effectiveVSearch(tech);

    WordNetlist w;
    w.ml = c.node("ml");
    const auto nVpre = c.node("vpre");
    const auto nVsa = c.node("vsa");
    const auto nStore = c.node("vstore");

    w.vPre = &c.add<VoltageSource>("Vpre", c, nVpre, spice::kGround, SourceWave::dc(vPre));
    w.vSa = &c.add<VoltageSource>("Vsa", c, nVsa, spice::kGround, SourceWave::dc(vdd));
    w.initialConditions.push_back({nVpre, vPre});
    w.initialConditions.push_back({nVsa, vdd});
    w.initialConditions.push_back({w.ml, vPre});  // steady state: already precharged

    if (cfg.cell == tcam::CellKind::Cmos16T) {
        w.vStore = &c.add<VoltageSource>("Vstore", c, nStore, spice::kGround,
                                         SourceWave::dc(vdd));
        w.initialConditions.push_back({nStore, vdd});
    }

    // Matchline wire parasitics: lumped single node by default, or a
    // distributed RC ladder with one segment per cell (sense end at w.ml).
    const bool nand = tcam::isNandKind(cfg.cell);
    std::vector<spice::NodeId> mlSegment(static_cast<std::size_t>(bits), w.ml);
    if (cfg.distributedMl && !nand) {
        spice::NodeId prev = w.ml;
        for (int i = 0; i < bits; ++i) {
            const auto seg = i == 0 ? w.ml : c.node("ml_seg" + std::to_string(i));
            if (i > 0) {
                c.add<Resistor>("Rml" + std::to_string(i), prev, seg,
                                tech.mlWireResPerCell);
                w.initialConditions.push_back({seg, vPre});
            }
            c.add<Capacitor>("Cml" + std::to_string(i), seg, spice::kGround,
                             tech.mlWireCapPerCell);
            mlSegment[static_cast<std::size_t>(i)] = seg;
            prev = seg;
        }
    } else {
        c.add<Capacitor>("Cml", w.ml, spice::kGround, bits * tech.mlWireCapPerCell);
    }

    // --- cells + searchline drivers ---
    spice::NodeId chainPrev = w.ml;  // NAND: cells chain from the ML downwards
    for (int i = 0; i < bits; ++i) {
        const auto sl = c.node("sl" + std::to_string(i));
        const auto slb = c.node("slb" + std::to_string(i));
        c.add<Capacitor>("Csl" + std::to_string(i), sl, spice::kGround,
                         tech.slWireCapPerCell);
        c.add<Capacitor>("Cslb" + std::to_string(i), slb, spice::kGround,
                         tech.slWireCapPerCell);
        const auto key = o.key[static_cast<std::size_t>(i)];
        const auto drive = nand ? tcam::nandSearchDrive(key) : tcam::searchDrive(key);
        w.slSources.push_back(&addDrivenNode(c, "sl" + std::to_string(i), sl,
                                             slWave(drive.sl, vSearch, t), tech.slDriverRes,
                                             w.initialConditions));
        w.slSources.push_back(&addDrivenNode(c, "slb" + std::to_string(i), slb,
                                             slWave(drive.slb, vSearch, t), tech.slDriverRes,
                                             w.initialConditions));
        const CellVariation* var =
            o.variations.empty() ? nullptr : &o.variations[static_cast<std::size_t>(i)];
        if (nand) {
            const auto chainNext = c.internalNode("chain");
            const tcam::NandCellPorts ports{.chainIn = chainPrev, .chainOut = chainNext,
                                            .sl = sl, .slb = slb};
            buildNandSearchCell(c, tech, o.stored[static_cast<std::size_t>(i)], ports,
                                "c" + std::to_string(i), var);
            chainPrev = chainNext;
        } else {
            const CellPorts ports{.ml = mlSegment[static_cast<std::size_t>(i)], .sl = sl,
                                  .slb = slb, .storeVdd = nStore};
            const auto built = buildSearchCell(c, tech, cfg.cell,
                                               o.stored[static_cast<std::size_t>(i)], ports,
                                               "c" + std::to_string(i), var);
            // Nodes resistively tied to the ML sit at the precharge level in
            // steady state (searchlines idle between cycles).
            for (const auto node : built.mlCoupledNodes)
                w.initialConditions.push_back({node, vPre});
        }
    }
    if (nand) {
        // Evaluation footer: the chain can only discharge during the eval
        // window, so precharge never fights a matching (conducting) chain.
        const auto evalEn = c.node("eval_en");
        addDrivenNode(c, "eval_en", evalEn,
                      SourceWave::pulse(0.0, vdd, t.evalStart(), 30e-12, 30e-12, t.tEval),
                      tech.ctrlDriverRes, w.initialConditions);
        c.add<Mosfet>("Meval", evalEn, chainPrev, spice::kGround, tech.sizedNmos(4.0));
    }

    // --- precharger ---
    const auto preGate = c.node("pre_gate");
    if (cfg.sense == SenseScheme::FullSwing) {
        // PMOS precharger, gate active-low during the precharge window.
        w.vPreGate = &addDrivenNode(c, "pre_gate", preGate,
                                    SourceWave::pulse(vdd, 0.0, t.prechargeStart(), 50e-12,
                                                      50e-12, t.tPrecharge - 100e-12),
                                    tech.ctrlDriverRes, w.initialConditions);
        c.add<Mosfet>("Mpre", preGate, w.ml, nVpre, tech.sizedPmos(4.0));
    } else {
        // NMOS precharger to the reduced level, gate active-high.
        w.vPreGate = &addDrivenNode(c, "pre_gate", preGate,
                                    SourceWave::pulse(0.0, vdd, t.prechargeStart(), 50e-12,
                                                      50e-12, t.tPrecharge - 100e-12),
                                    tech.ctrlDriverRes, w.initialConditions);
        c.add<Mosfet>("Mpre", preGate, nVpre, w.ml, tech.sizedNmos(4.0));
    }

    // --- sense amplifier ---
    const auto saMid = c.node("sa_mid");
    w.saOut = c.node("sa_out");
    if (cfg.sense == SenseScheme::FullSwing) {
        // Skewed inverter (strong NMOS -> low trip) + restoring inverter.
        c.add<Mosfet>("Msa_p", w.ml, saMid, nVsa, tech.sizedPmos(1.0));
        c.add<Mosfet>("Msa_n", w.ml, saMid, spice::kGround, tech.sizedNmos(4.0));
        w.initialConditions.push_back({saMid, 0.0});
        if (cfg.mlKeeper && !nand) {
            // Weak feedback keeper: on while the sense stage reads "match".
            // (Meaningless on NAND chains, where a discharging ML IS the
            // match signal — silently ignored there.)
            c.add<Mosfet>("Mkeep", saMid, w.ml, nVsa, tech.sizedPmos(0.5));
        }
    } else {
        // Clock-gated ratioed PMOS-input amplifier: header PMOS enables the
        // pull-up path only during the strobe window; the NMOS load keeps
        // sa_mid low (default "match") when disabled. Sizing puts the trip
        // current between the amp PMOS current at ML = Vpre (match) and at
        // ML ~ 0 (mismatch).
        const auto saEn = c.node("sa_enb");
        const auto saSrc = c.node("sa_src");
        w.vSaEn = &addDrivenNode(
            c, "sa_enb", saEn,
            SourceWave::pulse(vdd, 0.0, t.evalStart() + t.saStrobeDelay, 30e-12, 30e-12,
                              t.saStrobeLen),
            tech.ctrlDriverRes, w.initialConditions);
        c.add<Mosfet>("Msa_hdr", saEn, saSrc, nVsa, tech.sizedPmos(2.0));
        c.add<Mosfet>("Msa_p", w.ml, saMid, saSrc, tech.sizedPmos(1.0));
        c.add<Mosfet>("Msa_load", nVsa, saMid, spice::kGround, tech.sizedNmos(0.25));
        w.initialConditions.push_back({saMid, 0.0});
    }
    // Restoring inverter: saOut high = match.
    c.add<Mosfet>("Msa2_p", saMid, w.saOut, nVsa, tech.sizedPmos(2.0));
    c.add<Mosfet>("Msa2_n", saMid, w.saOut, spice::kGround, tech.sizedNmos(1.0));
    c.add<Capacitor>("Cout", w.saOut, spice::kGround, 0.5e-15);
    w.initialConditions.push_back({w.saOut, vdd});
    return w;
}

}  // namespace

WordSimResult simulateWordSearch(const WordSimOptions& o) {
    if (o.stored.size() != o.key.size())
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "simulateWordSearch",
                                "stored/key width mismatch");
    if (o.stored.empty())
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "simulateWordSearch",
                                "empty word");
    if (!o.variations.empty() && o.variations.size() != o.stored.size())
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "simulateWordSearch",
                                "variations width mismatch");

    obs::SpanGuard span("array.word_search",
                        {{"bits", static_cast<int>(o.stored.size())},
                         {"cell", tcam::isNandKind(o.config.cell) ? "nand" : "nor"}});
    const bool obsOn = obs::enabled();
    double wall = 0.0;
    if (obsOn) wall = obs::monotonicSeconds();

    spice::Circuit c;
    const WordNetlist w = buildWord(c, o);
    const auto& t = o.config.timing;

    spice::TransientSpec spec;
    spec.tstop = t.cycle();
    spec.dtMax = 10e-12;
    spec.initialConditions = w.initialConditions;
    // The measurements below read two nodes; keep every unknown only when
    // the caller wants the full waveforms.
    if (!o.recordWaveforms) spec.probes = {w.ml, w.saOut};
    auto tr = runTransient(c, spec);

    WordSimResult r;
    r.expectedMatch = o.stored.matches(o.key);
    r.vPrecharge = o.config.effectiveVPrecharge(o.tech);

    const double vdd = o.tech.vdd;
    // Decision time: late in the evaluation window for the continuous
    // full-swing sense (just before the searchlines release, so their falling
    // edge doesn't couple into the reading); end of the strobe window for the
    // clocked low-swing sense.
    const double senseTime = o.config.sense == SenseScheme::FullSwing
                                 ? t.evalStart() + t.tEval - 2.0 * t.slEdge
                                 : t.strobeEnd();
    // NOR arrays: a discharged ML (saOut low) means mismatch. NAND chains
    // invert the polarity: the ML discharges only on a full match.
    const bool saOutHigh = tr.waveforms.nodeAt(w.saOut, senseTime) > vdd / 2.0;
    r.matchDetected = tcam::isNandKind(o.config.cell) ? !saOutHigh : saOutHigh;
    r.mlAtSense = tr.waveforms.nodeAt(w.ml, senseTime);

    // Mismatch-detect delay: saOut falling through VDD/2 after eval start.
    const auto times = tr.waveforms.time();
    const auto saOutWave = tr.waveforms.node(w.saOut);
    if (const auto cross = numeric::firstCrossing(times, saOutWave, vdd / 2.0,
                                                  /*rising=*/false, t.evalStart())) {
        if (*cross <= senseTime) r.detectDelay = *cross - t.evalStart();
    }

    // Lowest ML voltage during evaluation.
    const auto mlWave = tr.waveforms.node(w.ml);
    double mlMin = r.vPrecharge;
    for (std::size_t i = 0; i < times.size(); ++i) {
        if (times[i] < t.evalStart() || times[i] > t.evalEnd()) continue;
        mlMin = std::min(mlMin, mlWave[i]);
    }
    r.mlMin = mlMin;

    // Per-search supply energies.
    r.energyMl = w.vPre->deliveredEnergy() + w.vPreGate->deliveredEnergy();
    for (const auto* src : w.slSources) r.energySl += src->deliveredEnergy();
    r.energySa = w.vSa->deliveredEnergy();
    if (w.vSaEn) r.energySa += w.vSaEn->deliveredEnergy();
    if (w.vStore) r.energyStatic = w.vStore->deliveredEnergy();
    r.energyTotal = r.energyMl + r.energySl + r.energySa + r.energyStatic;

    if (obsOn) {
        static obs::Counter& searches = obs::counter("array.word_search.count");
        static obs::Histogram& seconds = obs::histogram(
            "array.word_search.seconds", obs::Histogram::exponentialBounds(1e-4, 100.0));
        searches.add();
        seconds.observe(obs::monotonicSeconds() - wall);
        // Per-supply energy deltas for the trace's energy ranking.
        auto& sink = obs::TraceSink::global();
        sink.event("energy.device", {{"device", "matchline"}, {"energy", r.energyMl}});
        sink.event("energy.device", {{"device", "searchlines"}, {"energy", r.energySl}});
        sink.event("energy.device", {{"device", "sense_amp"}, {"energy", r.energySa}});
        if (r.energyStatic != 0.0)
            sink.event("energy.device", {{"device", "storage"}, {"energy", r.energyStatic}});
        span.add({"match", r.matchDetected});
        span.add({"energyTotal", r.energyTotal});
        span.add({"steps", tr.acceptedSteps});
        span.add({"rejected", tr.rejectedSteps});
    }

    if (o.recordWaveforms) {
        r.waveforms = std::move(tr.waveforms);
        r.mlNode = w.ml;
        r.saOutNode = w.saOut;
    }
    return r;
}

}  // namespace fetcam::array
