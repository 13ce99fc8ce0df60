#include "spice/mna.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace fetcam::spice {

Mna::Mna(int numNodes, int numBranches)
    : numNodes_(numNodes),
      unknowns_(numNodes - 1 + numBranches),
      triplets_(unknowns_, unknowns_),
      rhs_(static_cast<std::size_t>(unknowns_), 0.0) {}

void Mna::beginAssembly(bool allowMapped) {
    std::fill(rhs_.begin(), rhs_.end(), 0.0);
    mapMiss_ = false;
    patternPoisoned_ = false;
    cursor_ = 0;
    mapped_ = allowMapped && patternFrozen_;
    if (mapped_)
        csc_.zeroValues();
    else
        triplets_.clear();
}

bool Mna::endAssembly() {
    // A mapped pass must consume the exact recorded stamp sequence; a short
    // pass (device skipped a stamp) is as much a divergence as a mismatch.
    if (mapped_ && (mapMiss_ || cursor_ != stampMap_.size())) {
        mapped_ = false;
        return false;
    }
    return true;
}

void Mna::stampConductance(NodeId a, NodeId b, double g) {
    addNodeJacobian(a, a, g);
    addNodeJacobian(b, b, g);
    addNodeJacobian(a, b, -g);
    addNodeJacobian(b, a, -g);
}

void Mna::stampCurrentSource(NodeId from, NodeId to, double i) {
    addNodeRhs(from, -i);
    addNodeRhs(to, i);
}

void Mna::stampVccs(NodeId from, NodeId to, NodeId cp, NodeId cn, double g) {
    addNodeJacobian(from, cp, g);
    addNodeJacobian(from, cn, -g);
    addNodeJacobian(to, cp, -g);
    addNodeJacobian(to, cn, g);
}

void Mna::stampVoltageSource(NodeId p, NodeId n, int branch, double voltage) {
    const int br = branchIndex(branch);
    if (p != kGround) {
        addEntry(nodeIndex(p), br, 1.0);
        addEntry(br, nodeIndex(p), 1.0);
    }
    if (n != kGround) {
        addEntry(nodeIndex(n), br, -1.0);
        addEntry(br, nodeIndex(n), -1.0);
    }
    rhs_[br] += voltage;
}

void Mna::stampGminAllNodes(double gmin) {
    for (NodeId n = 1; n < numNodes_; ++n) addNodeJacobian(n, n, gmin);
}

void Mna::zeroNode(NodeId n) {
    if (n == kGround || n >= numNodes_) return;
    const int idx = nodeIndex(n);
    if (mapped_) {
        // Zero the row and column in place: numerically singular, pattern
        // intact, so the stamp map survives the faulted solve.
        auto& vals = csc_.values();
        const auto& cp = csc_.colPtr();
        const auto& ri = csc_.rowIdx();
        for (int p = cp[idx]; p < cp[idx + 1]; ++p) vals[p] = 0.0;
        for (int c = 0; c < csc_.cols(); ++c)
            for (int p = cp[c]; p < cp[c + 1]; ++p)
                if (ri[p] == idx) vals[p] = 0.0;
    } else {
        triplets_.eraseIf([idx](const numeric::TripletList::Entry& e) {
            return e.row == idx || e.col == idx;
        });
        // The erased pattern must not be frozen: it only exists while the
        // fault is active.
        patternPoisoned_ = true;
        patternFrozen_ = false;
        stampMap_.clear();
    }
    rhs_[idx] = 0.0;
}

const numeric::SparseMatrixCsc& Mna::compile() {
    if (mapped_) {
        if (obs::enabled()) {
            static obs::Counter& mappedPasses = obs::counter("spice.mna.mapped_passes");
            mappedPasses.add();
        }
        return csc_;
    }
    if (obs::enabled()) {
        static obs::Counter& builds = obs::counter("spice.mna.matrix_builds");
        static obs::Gauge& unknowns = obs::gauge("spice.mna.unknowns");
        builds.add();
        unknowns.set(unknowns_);
    }
    if (patternPoisoned_) {
        csc_ = numeric::SparseMatrixCsc::fromTriplets(triplets_);
        return csc_;
    }
    std::vector<int> slots;
    csc_ = numeric::SparseMatrixCsc::fromTriplets(triplets_, &slots);
    const auto& es = triplets_.entries();
    stampMap_.resize(es.size());
    for (std::size_t i = 0; i < es.size(); ++i)
        stampMap_[i] = {es[i].row, es[i].col, slots[i]};
    patternFrozen_ = true;
    ++patternEpoch_;
    return csc_;
}

}  // namespace fetcam::spice
