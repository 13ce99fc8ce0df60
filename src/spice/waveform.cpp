#include "spice/waveform.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace fetcam::spice {

Waveforms::Waveforms(int numNodes, int numBranches, const std::vector<NodeId>& probes)
    : numNodes_(numNodes),
      columnOf_(static_cast<std::size_t>(numNodes - 1 + numBranches), -1) {
    if (probes.empty()) {
        columns_.resize(columnOf_.size());
        std::iota(columns_.begin(), columns_.end(), 0);
    }
    for (const NodeId n : probes)
        if (n != kGround) columns_.push_back(n - 1);
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        int& slot = columnOf_[static_cast<std::size_t>(columns_[c])];
        if (slot < 0) slot = static_cast<int>(c);
    }
}

void Waveforms::record(double t, const std::vector<double>& x) {
    time_.push_back(t);
    for (const int u : columns_) data_.push_back(x[static_cast<std::size_t>(u)]);
}

std::size_t Waveforms::column(int unknown) const {
    const int c = unknown >= 0 && static_cast<std::size_t>(unknown) < columnOf_.size()
                      ? columnOf_[static_cast<std::size_t>(unknown)]
                      : -1;
    if (c < 0)
        throw std::out_of_range("Waveforms: unknown " + std::to_string(unknown) +
                                " was not recorded");
    return static_cast<std::size_t>(c);
}

std::size_t Waveforms::nodeColumn(NodeId n) const {
    return n == kGround ? kNoColumn : column(n - 1);
}

std::vector<double> Waveforms::node(NodeId n) const {
    const std::size_t col = nodeColumn(n);
    std::vector<double> out(time_.size());
    for (std::size_t i = 0; i < time_.size(); ++i) out[i] = sample(i, col);
    return out;
}

std::vector<double> Waveforms::branch(int branch) const {
    const std::size_t col = column(numNodes_ - 1 + branch);
    std::vector<double> out(time_.size());
    for (std::size_t i = 0; i < time_.size(); ++i) out[i] = sample(i, col);
    return out;
}

double Waveforms::nodeAt(NodeId n, double t) const {
    if (time_.empty()) throw std::runtime_error("Waveforms::nodeAt: empty record");
    // A NaN t slips past both range clamps (every NaN comparison is false)
    // and would send upper_bound to end(), indexing one past the record.
    if (std::isnan(t)) throw std::runtime_error("Waveforms::nodeAt: t is NaN");
    const std::size_t col = nodeColumn(n);
    if (t <= time_.front()) return sample(0, col);
    if (t >= time_.back()) return sample(time_.size() - 1, col);
    const auto it = std::upper_bound(time_.begin(), time_.end(), t);
    const std::size_t hi =
        std::min(static_cast<std::size_t>(it - time_.begin()), time_.size() - 1);
    const std::size_t lo = hi - 1;
    const double span = time_[hi] - time_[lo];
    const double frac = span > 0.0 ? (t - time_[lo]) / span : 0.0;
    return sample(lo, col) + frac * (sample(hi, col) - sample(lo, col));
}

double Waveforms::finalNode(NodeId n) const {
    if (time_.empty()) throw std::runtime_error("Waveforms::finalNode: empty record");
    return sample(time_.size() - 1, nodeColumn(n));
}

double Waveforms::peakNode(NodeId n) const {
    const std::size_t col = nodeColumn(n);
    double peak = 0.0;
    for (std::size_t i = 0; i < time_.size(); ++i) peak = std::max(peak, std::abs(sample(i, col)));
    return peak;
}

}  // namespace fetcam::spice
