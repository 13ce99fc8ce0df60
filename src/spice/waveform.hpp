// Waveform storage for transient results.
//
// A record keeps a chosen set of unknowns (its columns) at every accepted
// step, in one flat step-major buffer, plus a map from unknown to column.
// The default column list is every unknown (all node voltages, then all
// branch currents); a probed record keeps only the listed nodes, which is
// what a measurement that reads two nodes of a 400-unknown word needs.
// Reading a node or branch the record did not keep throws.
#pragma once

#include <vector>

#include "spice/types.hpp"

namespace fetcam::spice {

class Waveforms {
public:
    Waveforms() = default;
    /// `probes` lists the nodes to keep, each in [0, numNodes); empty keeps
    /// every unknown. Ground needs no column (it always reads 0).
    Waveforms(int numNodes, int numBranches, const std::vector<NodeId>& probes = {});

    /// Append one accepted step: `x` is the full unknown vector.
    void record(double t, const std::vector<double>& x);

    std::size_t size() const { return time_.size(); }
    const std::vector<double>& time() const { return time_; }

    /// Voltage series of a node across all recorded steps.
    std::vector<double> node(NodeId n) const;

    /// Branch-current series (full records only).
    std::vector<double> branch(int branch) const;

    /// Node voltage at an arbitrary time (linear interpolation, clamped).
    double nodeAt(NodeId n, double t) const;

    /// Final (last recorded) node voltage.
    double finalNode(NodeId n) const;

    /// Peak absolute node voltage over the run.
    double peakNode(NodeId n) const;

    int numNodes() const { return numNodes_; }

private:
    /// Column holding unknown `unknown`; throws when it was not kept.
    std::size_t column(int unknown) const;
    /// Column of node `n`, or kNoColumn for ground.
    std::size_t nodeColumn(NodeId n) const;
    double sample(std::size_t step, std::size_t col) const {
        return col == kNoColumn ? 0.0 : data_[step * columns_.size() + col];
    }

    static constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

    int numNodes_ = 0;
    std::vector<int> columns_;   ///< unknown index of each kept column
    std::vector<int> columnOf_;  ///< column of each unknown, -1 if not kept
    std::vector<double> time_;
    std::vector<double> data_;   ///< step-major: data_[step * columns + col]
};

}  // namespace fetcam::spice
