// Sparse matrices in compressed-sparse-column form plus a left-looking
// (Gilbert-Peierls) LU factorization with a minimum-degree column order and
// threshold partial pivoting.
//
// This is the workhorse linear solver behind the MNA circuit engine. The
// nonzero pattern of a circuit's Jacobian is fixed across Newton iterations,
// so the engine freezes the CSC pattern after the first assembly (stamping
// values in place from then on — see spice::Mna) and splits the LU into a
// one-time symbolic analysis plus cheap numeric refactorizations that follow
// the cached column order, nonzero pattern and pivot order (KLU-style reuse).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace fetcam::numeric {

/// Coordinate-format accumulator used to assemble a sparse matrix.
/// Duplicate (row, col) entries are summed when compiled to CSC.
class TripletList {
public:
    TripletList(int rows, int cols) : rows_(rows), cols_(cols) {}

    void add(int row, int col, double value) { entries_.push_back({row, col, value}); }
    void clear() { entries_.clear(); }

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    struct Entry {
        int row;
        int col;
        double value;
    };
    const std::vector<Entry>& entries() const { return entries_; }

    /// Remove every entry matching `pred(entry)`. Used by fault injection to
    /// carve structurally singular rows/columns out of an assembled matrix.
    template <typename Pred>
    void eraseIf(Pred pred) {
        entries_.erase(std::remove_if(entries_.begin(), entries_.end(), pred), entries_.end());
    }

private:
    int rows_;
    int cols_;
    std::vector<Entry> entries_;
};

/// Compressed-sparse-column matrix.
class SparseMatrixCsc {
public:
    SparseMatrixCsc() = default;

    /// Compile a triplet list, summing duplicates. When `slotOfEntry` is
    /// non-null it receives, for each triplet entry (in insertion order), the
    /// index into values() that entry was accumulated into — the "stamp map"
    /// that lets an assembler replay the same stamp sequence straight into
    /// values() without re-sorting.
    static SparseMatrixCsc fromTriplets(const TripletList& t,
                                        std::vector<int>* slotOfEntry = nullptr);

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int nonZeros() const { return static_cast<int>(values_.size()); }

    const std::vector<int>& colPtr() const { return colPtr_; }
    const std::vector<int>& rowIdx() const { return rowIdx_; }
    const std::vector<double>& values() const { return values_; }
    std::vector<double>& values() { return values_; }

    /// Zero every stored value, keeping the pattern (start of an in-place
    /// re-stamping pass).
    void zeroValues() { std::fill(values_.begin(), values_.end(), 0.0); }

    /// y = A * x.
    std::vector<double> multiply(const std::vector<double>& x) const;

    /// Entry lookup (O(column nnz)); returns 0 for structural zeros.
    double at(int row, int col) const;

private:
    int rows_ = 0;
    int cols_ = 0;
    std::vector<int> colPtr_;   // size cols+1
    std::vector<int> rowIdx_;   // size nnz
    std::vector<double> values_;
};

/// Sparse LU with a fill-reducing column order and threshold partial
/// pivoting (left-looking Gilbert-Peierls).
///
/// Factors P*A*Q = L*U. Q is a minimum-degree order of the pattern of A+A^T,
/// a pure function of that pattern (deterministic tie-breaks): an MNA matrix
/// has hub unknowns — a matchline touching every cell, a supply rail — and
/// factoring a hub column early fills L and U densely, while eliminating it
/// last costs almost nothing. P is chosen
/// column by column: the diagonal entry A(q[k], q[k]) is kept as the pivot
/// whenever its magnitude is within `pivotTol` of the column maximum, which
/// preserves the (mostly) diagonally dominant structure of MNA matrices.
///
/// factor() performs the ordering plus the full symbolic + numeric work and
/// caches the column order, the L/U nonzero pattern and the pivot order.
/// refactor() redoes only the numeric part for a matrix with the SAME
/// sparsity pattern, following the cached pattern and pivots — no ordering,
/// no DFS, no pivot search, no allocation. A refactorization that encounters
/// a collapsed pivot returns false; call factor() again to recover (fresh
/// pivoting).
class SparseLu {
public:
    SparseLu() = default;
    explicit SparseLu(const SparseMatrixCsc& a, double pivotTol = 0.1) { factor(a, pivotTol); }

    /// Full symbolic + numeric factorization. Reuses internal storage across
    /// calls. Throws std::runtime_error on a singular matrix (the cached
    /// factorization is then unusable until a factor() succeeds).
    void factor(const SparseMatrixCsc& a, double pivotTol = 0.1);

    /// Numeric-only refactorization of a matrix with the same pattern (colPtr
    /// and rowIdx) as the last successful factor(). Returns false — leaving
    /// the factorization unusable until the next successful factor() — when
    /// the pattern doesn't match, or a pivot falls below `pivotFloor` times
    /// its column maximum (or is zero / non-finite): the cached pivot order
    /// has degraded and a fresh pivoting factorization is required.
    bool refactor(const SparseMatrixCsc& a, double pivotFloor = 1e-10);

    bool factored() const { return factored_; }

    std::vector<double> solve(const std::vector<double>& b) const;
    /// Allocation-free solve into a caller-owned vector (resized to n).
    void solveInto(const std::vector<double>& b, std::vector<double>& x) const;

    int size() const { return n_; }
    /// nnz(L)+nnz(U), both diagonals included.
    int nonZeros() const { return static_cast<int>(li_.size() + ui_.size()); }
    int fillIn() const { return nonZeros() - static_cast<int>(aRowIdx_.size()); }

private:
    void orderColumns(const SparseMatrixCsc& a);

    int n_ = 0;
    bool factored_ = false;
    // Pattern of the last factor()ed A; refactor() accepts only this pattern.
    std::vector<int> aColPtr_, aRowIdx_;
    std::vector<int> q_;  // pivot step -> column of A (the fill-reducing order)
    // L: unit lower triangular (diagonal stored explicitly as 1.0, first in column).
    std::vector<int> lp_, li_;
    std::vector<double> lx_;
    // U: upper triangular (diagonal stored last in column).
    std::vector<int> up_, ui_;
    std::vector<double> ux_;
    std::vector<int> pinv_;  // row of A -> pivot step

    // Reused numeric scratch (kept zero outside active columns).
    std::vector<double> work_;
    std::vector<char> visited_;
    std::vector<int> xi_, pstack_;
    // Minimum-degree scratch (see orderColumns).
    std::vector<int> mdList_, mdWork_;
};

}  // namespace fetcam::numeric
