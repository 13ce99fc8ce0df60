// Modified nodal analysis assembler.
//
// Devices stamp their linearized companion models into this structure every
// Newton iteration. Ground (node 0) rows/columns are skipped automatically.
//
// Assembly has two speeds. The first pass accumulates triplets, sorts them
// into CSC, and FREEZES the resulting pattern together with a "stamp map":
// the value-slot index each stamp in the pass landed in, in stamp order.
// Later passes opened with beginAssembly(allowMapped=true) replay that map —
// every addEntry writes straight into SparseMatrixCsc::values() with no
// triplet accumulation, no sort, no duplicate-summing. Each mapped add
// verifies its (row, col) against the recorded sequence; any divergence
// (a device stamping conditionally, a topology change) flags the pass as
// failed at endAssembly() and the caller re-stamps through the triplet path,
// which re-freezes the new pattern.
#pragma once

#include "numeric/sparse_matrix.hpp"
#include "spice/types.hpp"

namespace fetcam::spice {

class Mna {
public:
    Mna(int numNodes, int numBranches);

    /// Start a triplet-path stamping pass (alias for beginAssembly(false)).
    void clear() { beginAssembly(false); }

    /// Start a stamping pass. With allowMapped and a frozen pattern, stamps
    /// go straight into the cached CSC values; otherwise triplets accumulate.
    void beginAssembly(bool allowMapped);
    /// Finish the pass. Returns false when a mapped pass diverged from the
    /// frozen pattern — nothing usable was assembled; re-stamp after
    /// beginAssembly(false).
    bool endAssembly();
    /// True while the current/last pass is writing through the stamp map.
    bool mappedAssembly() const { return mapped_; }
    /// True when a frozen pattern (and stamp map) is available.
    bool patternFrozen() const { return patternFrozen_; }
    /// Identifier of the frozen pattern; bumps every re-freeze. Lets a solver
    /// workspace check that a cached symbolic factorization still matches the
    /// matrix compile() returns.
    long long patternEpoch() const { return patternEpoch_; }

    int unknowns() const { return unknowns_; }
    int numNodes() const { return numNodes_; }

    // --- raw access (indices are node/branch ids; ground rows are dropped) ---

    /// Add to the Jacobian at (row-node, col-node).
    void addNodeJacobian(NodeId row, NodeId col, double value) {
        if (row == kGround || col == kGround) return;
        addEntry(nodeIndex(row), nodeIndex(col), value);
    }
    /// Add to the right-hand side of a node's KCL row. Positive means current
    /// flowing INTO the node from the stamped element's equivalent source.
    void addNodeRhs(NodeId node, double value) {
        if (node == kGround) return;
        rhs_[nodeIndex(node)] += value;
    }

    int branchIndex(int branch) const { return numNodes_ - 1 + branch; }
    void addBranchJacobian(int branchRow, int colIndex, double value) {
        addEntry(branchIndex(branchRow), colIndex, value);
    }
    void addRawJacobian(int row, int col, double value) {
        if (row < 0 || col < 0) return;
        addEntry(row, col, value);
    }
    void addRawRhs(int row, double value) {
        if (row < 0) return;
        rhs_[row] += value;
    }

    // --- common element stamps ---

    /// Linear conductance g between nodes a and b.
    void stampConductance(NodeId a, NodeId b, double g);

    /// Independent current source: current i flows from node `from` through
    /// the element to node `to` (i.e. leaves `from`, enters `to`).
    void stampCurrentSource(NodeId from, NodeId to, double i);

    /// Voltage-controlled current source: current g*(v(cp)-v(cn)) flows from
    /// `from` to `to`.
    void stampVccs(NodeId from, NodeId to, NodeId cp, NodeId cn, double g);

    /// Ideal voltage source of value `voltage` between p (+) and n (-),
    /// with its branch current as extra unknown `branch`.
    void stampVoltageSource(NodeId p, NodeId n, int branch, double voltage);

    /// Convergence aid: small conductance from every node to ground.
    void stampGminAllNodes(double gmin);

    /// Fault-injection aid: make the assembled matrix singular in node n's
    /// row/column (and zero its RHS). On the triplet path the entries are
    /// erased (structural singularity) and the pass is barred from freezing a
    /// pattern; on the mapped path the frozen pattern's values are zeroed in
    /// place (numerical singularity) — same solver outcome, pattern intact.
    /// No-op for ground.
    void zeroNode(NodeId n);

    // --- assembly ---

    /// Compile the pass into the internal CSC matrix and return it. Triplet
    /// passes rebuild the matrix (and, unless the pass was poisoned by
    /// zeroNode, freeze the pattern + stamp map); mapped passes are already
    /// compiled and return immediately.
    const numeric::SparseMatrixCsc& compile();

    const std::vector<double>& rhs() const { return rhs_; }

private:
    int nodeIndex(NodeId n) const { return n - 1; }  // ground -> -1

    // Hot path: one branch + one slot write when mapped.
    void addEntry(int row, int col, double value) {
        if (mapped_) {
            if (cursor_ < stampMap_.size()) {
                const StampSlot& s = stampMap_[cursor_];
                if (s.row == row && s.col == col) {
                    ++cursor_;
                    csc_.values()[s.slot] += value;
                    return;
                }
            }
            mapMiss_ = true;
            return;
        }
        triplets_.add(row, col, value);
    }

    struct StampSlot {
        int row;
        int col;
        int slot;  ///< index into csc_.values()
    };

    int numNodes_;
    int unknowns_;
    numeric::TripletList triplets_;
    std::vector<double> rhs_;

    // Frozen pattern + stamp map (valid while patternFrozen_).
    numeric::SparseMatrixCsc csc_;
    std::vector<StampSlot> stampMap_;
    bool patternFrozen_ = false;
    long long patternEpoch_ = 0;

    // Per-pass state.
    bool mapped_ = false;
    bool mapMiss_ = false;
    bool patternPoisoned_ = false;  // zeroNode erased triplets: don't freeze
    std::size_t cursor_ = 0;
};

}  // namespace fetcam::spice
