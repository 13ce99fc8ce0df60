#include "device/ferro.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "spice/ac.hpp"

namespace fetcam::device {

namespace {
constexpr double kEps0 = 8.854e-12;  // [F/m]
}

double FerroParams::linearCapPerArea() const { return kEps0 * epsR / thickness; }

PreisachBank::PreisachBank(const FerroParams& params) : params_(params) {
    const int n = params.numHysterons;
    if (n < 1) throw std::invalid_argument("PreisachBank: need at least one hysteron");
    vc_.resize(n);
    weight_.resize(n);
    state_.assign(n, -1.0);

    // Coercive voltages on a +/-3 sigma grid around the mean, truncated at a
    // small positive floor; Gaussian weights, normalized.
    double wSum = 0.0;
    for (int i = 0; i < n; ++i) {
        const double frac = n == 1 ? 0.0 : (static_cast<double>(i) / (n - 1) - 0.5) * 6.0;
        vc_[i] = std::max(0.05, params.vcMean + frac * params.vcSigma);
        const double w = std::exp(-0.5 * frac * frac);
        weight_[i] = w;
        wSum += w;
    }
    for (auto& w : weight_) w /= wSum;
    vcMin_ = *std::min_element(vc_.begin(), vc_.end());
    refreshSum();
}

void PreisachBank::refreshSum() {
    double acc = 0.0;
    for (std::size_t i = 0; i < vc_.size(); ++i) acc += weight_[i] * state_[i];
    sum_ = acc;
}

void PreisachBank::reset(double pnorm) {
    if (pnorm < -1.0 || pnorm > 1.0)
        throw std::invalid_argument("PreisachBank::reset: pnorm outside [-1,1]");
    for (auto& s : state_) s = pnorm;
    refreshSum();
}

void PreisachBank::advance(double v, double dt) {
    const double mag = std::abs(v);
    if (mag <= vcMin_) return;  // every hysteron below threshold (search pulses)
    for (std::size_t i = 0; i < vc_.size(); ++i) {
        if (mag <= vc_[i]) continue;  // below threshold: hold (non-volatile)
        const double target = v > 0.0 ? 1.0 : -1.0;
        const double tau = params_.tau0 * std::exp(params_.kMerz * vc_[i] / mag);
        const double alpha = 1.0 - std::exp(-dt / tau);
        state_[i] += (target - state_[i]) * alpha;
    }
    refreshSum();
}

void PreisachBank::settle(double v) {
    const double mag = std::abs(v);
    for (std::size_t i = 0; i < vc_.size(); ++i) {
        if (mag <= vc_[i]) continue;
        state_[i] = v > 0.0 ? 1.0 : -1.0;
    }
    refreshSum();
}

void PreisachBank::relax(double seconds) {
    if (seconds < 0.0) throw std::invalid_argument("PreisachBank::relax: negative time");
    const double factor = std::exp(-seconds / params_.tauRetention);
    for (auto& s : state_) s *= factor;
    refreshSum();
}

double PreisachBank::pnorm() const { return sum_ * endurance_; }

double PreisachBank::enduranceFactor(double cycles) const {
    if (cycles < 0.0) throw std::invalid_argument("enduranceFactor: negative cycles");
    const auto& p = params_;
    // Wake-up: pristine -> 1.0 linearly in log10(cycles).
    double f;
    if (cycles <= 1.0) {
        f = p.pristineFactor;
    } else if (cycles <= p.wakeupCycles) {
        const double t = std::log10(cycles) / std::log10(p.wakeupCycles);
        f = p.pristineFactor + (1.0 - p.pristineFactor) * t;
    } else if (cycles <= p.fatigueOnsetCycles) {
        f = 1.0;
    } else {
        f = 1.0 - p.fatiguePerDecade * std::log10(cycles / p.fatigueOnsetCycles);
    }
    return std::max(p.fatigueFloor, f);
}

void PreisachBank::setCyclingHistory(double cycles) {
    cycles_ = cycles;
    endurance_ = enduranceFactor(cycles);
}

FerroCap::FerroCap(std::string name, spice::NodeId a, spice::NodeId b, FerroParams params,
                   double area)
    : Device(std::move(name)), a_(a), b_(b), bank_(params), area_(area),
      linear_(params.linearCapPerArea() * area) {
    if (area <= 0.0) throw std::invalid_argument("FerroCap: area must be > 0");
}

double FerroCap::charge(double v) const {
    return linear_.capacitance() * v + area_ * bank_.params().ps * bank_.pnorm();
}

void FerroCap::stamp(spice::Mna& mna, const spice::SimContext& ctx) {
    linear_.stamp(mna, ctx, a_, b_);
    if (ctx.mode == spice::AnalysisMode::Dc || ctx.dt <= 0.0) return;
    // Polarization switching is integrated explicitly: the rate committed at
    // the end of the previous step (ipPrev_) drives this step. This keeps the
    // stamped current and the accepted current identical, so KCL and the
    // energy bookkeeping stay consistent; the one-step lag is harmless at the
    // small steps the engine takes around write pulses.
    mna.stampCurrentSource(a_, b_, ipPrev_);
}

void FerroCap::stampAc(spice::AcStamper& mna, const spice::SimContext& opCtx) const {
    (void)opCtx;  // sub-coercive small signal: only the background dielectric responds
    mna.stampCapacitance(a_, b_, linear_.capacitance());
}

void FerroCap::acceptStep(const spice::SimContext& ctx) {
    const double v = ctx.v(a_) - ctx.v(b_);
    const double il = linear_.accept(v, ctx);
    lastCurrent_ = il + ipPrev_;  // what the rest of the circuit saw this step
    energy_.add(lastCurrent_ * v, ctx.dt);

    // Advance polarization with the accepted voltage; its rate becomes the
    // explicit source for the next step.
    const double qs = area_ * bank_.params().ps;
    const double pBefore = bank_.pnorm();
    bank_.advance(v, ctx.dt);
    ipPrev_ = ctx.dt > 0.0 ? qs * (bank_.pnorm() - pBefore) / ctx.dt : 0.0;
}

void FerroCap::beginTransient(const spice::SimContext& ctx) {
    const double v = ctx.v(a_) - ctx.v(b_);
    linear_.reset(v);
    ipPrev_ = 0.0;
    energy_.reset();
    lastCurrent_ = 0.0;
}

}  // namespace fetcam::device
