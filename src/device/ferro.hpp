// Ferroelectric polarization model.
//
// Classical scalar Preisach model realized as a bank of symmetric hysterons:
// hysteron i switches up above +vc_i and down below -vc_i, with coercive
// voltages vc_i spread by a Gaussian distribution. This reproduces the
// saturation loop shape, minor loops, history dependence and the Preisach
// wiping property without any curve-fitting hacks.
//
// Switching dynamics follow a Merz-law relaxation: above threshold a
// hysteron's state relaxes exponentially toward +/-1 with a voltage-dependent
// time constant tau(v) = tau0 * exp(kMerz * vc_i / |v|); far above the
// coercive voltage switching is fast, just above it is slow. Below threshold
// the state holds (non-volatility).
//
// pnorm() is read once per FeFET per Newton iteration, so the bank keeps the
// weighted state sum instead of re-adding every hysteron on each read.
// Invariant: every mutator of state_ (constructor, reset, advance, settle,
// relax) ends with refreshSum(), which adds the hysterons in index order, so
// pnorm() returns the same double as summing on demand would.
#pragma once

#include <vector>

#include "spice/circuit.hpp"
#include "spice/device.hpp"

namespace fetcam::device {

struct FerroParams {
    double ps = 0.23;          ///< saturation polarization [C/m^2] (HfZrO2-class)
    double vcMean = 1.2;       ///< mean gate-referred coercive voltage [V]
    double vcSigma = 0.25;     ///< coercive-voltage spread [V]
    double tau0 = 2e-9;        ///< Merz prefactor [s]
    double kMerz = 2.5;        ///< Merz exponent (dimensionless)
    double epsR = 28.0;        ///< background (non-switching) permittivity
    double thickness = 8e-9;   ///< ferroelectric film thickness [m]
    int numHysterons = 101;
    /// Zero-field depolarization time constant [s]. Calibrated so an
    /// HZO-class film loses ~10% polarization over the canonical 10-year
    /// retention spec (3.15e8 s): exp(-3.15e8/3e9) ~ 0.90.
    double tauRetention = 3.0e9;

    // Endurance (cycling) model: pristine films "wake up" over the first
    // ~1e4 cycles, then fatigue closes the window logarithmically.
    double pristineFactor = 0.93;   ///< fraction of full Ps before wake-up
    double wakeupCycles = 1e4;      ///< cycles to reach full polarization
    double fatigueOnsetCycles = 1e5;
    double fatiguePerDecade = 0.06; ///< Ps fraction lost per decade beyond onset
    double fatigueFloor = 0.3;

    /// Linear (background) capacitance per area [F/m^2].
    double linearCapPerArea() const;
};

/// Bank of relaxing hysterons; normalized polarization pnorm() in [-1, 1].
class PreisachBank {
public:
    explicit PreisachBank(const FerroParams& params);

    /// Set every hysteron to the same state (e.g. -1, 0, +1 or partial).
    void reset(double pnorm);

    /// Advance the bank by dt under applied voltage v.
    void advance(double v, double dt);

    /// Weighted mean state in [-1, 1].
    double pnorm() const;

    /// Quasi-static response: advance with a long dwell so every hysteron
    /// whose threshold is exceeded switches fully. Used for loop tracing.
    void settle(double v);

    /// Zero-field retention loss: every hysteron state decays toward 0 with
    /// the tauRetention time constant. Used by ageing studies; circuit-time
    /// steps (ns) make this negligible by construction.
    void relax(double seconds);

    /// Polarization availability after `cycles` program/erase cycles
    /// (wake-up then fatigue), in (0, 1]. Pure function of the parameters.
    double enduranceFactor(double cycles) const;

    /// Record accumulated cycling: pnorm() is scaled by enduranceFactor and
    /// future switching saturates at the reduced level.
    void setCyclingHistory(double cycles);
    double cyclingCycles() const { return cycles_; }

    const FerroParams& params() const { return params_; }

private:
    void refreshSum();

    FerroParams params_;
    std::vector<double> vc_;      ///< per-hysteron coercive voltage (>0)
    std::vector<double> weight_;  ///< normalized Gaussian weights
    std::vector<double> state_;   ///< per-hysteron state in [-1, 1]
    double vcMin_ = 0.0;          ///< smallest vc_: at or below it advance() is a no-op
    double sum_ = 0.0;            ///< cached sum of weight_[i] * state_[i]
    double cycles_ = 0.0;         ///< accumulated program/erase cycles
    double endurance_ = 1.0;      ///< cached enduranceFactor(cycles_)
};

/// Two-terminal ferroelectric capacitor: background linear capacitance in
/// parallel with the Preisach polarization charge Qp = area * Ps * pnorm.
/// The polarization current is stepped explicitly (state at the start of the
/// step), which is stable for the small steps the transient engine takes
/// around write pulses.
class FerroCap : public spice::Device {
public:
    FerroCap(std::string name, spice::NodeId a, spice::NodeId b, FerroParams params,
             double area);

    void stamp(spice::Mna& mna, const spice::SimContext& ctx) override;
    void stampAc(spice::AcStamper& mna, const spice::SimContext& opCtx) const override;
    void acceptStep(const spice::SimContext& ctx) override;
    void beginTransient(const spice::SimContext& ctx) override;

    double energy() const override { return energy_.energy(); }
    double current() const override { return lastCurrent_; }

    double pnorm() const { return bank_.pnorm(); }
    void setPolarization(double pnorm) { bank_.reset(pnorm); }
    double area() const { return area_; }
    /// Total charge at voltage v with the current polarization state.
    double charge(double v) const;

private:
    spice::NodeId a_, b_;
    PreisachBank bank_;
    double area_;
    spice::CompanionCap linear_;
    spice::EnergyIntegrator energy_;
    double lastCurrent_ = 0.0;
    double ipPrev_ = 0.0;  ///< committed polarization current for the next step
};

}  // namespace fetcam::device
