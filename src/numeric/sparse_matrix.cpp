#include "numeric/sparse_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fetcam::numeric {

SparseMatrixCsc SparseMatrixCsc::fromTriplets(const TripletList& t,
                                              std::vector<int>* slotOfEntry) {
    SparseMatrixCsc m;
    m.rows_ = t.rows();
    m.cols_ = t.cols();
    const auto& es = t.entries();

    // Count entries per column (including duplicates for now).
    std::vector<int> count(t.cols() + 1, 0);
    for (const auto& e : es) {
        if (e.row < 0 || e.row >= t.rows() || e.col < 0 || e.col >= t.cols())
            throw std::out_of_range("SparseMatrixCsc::fromTriplets: index out of range");
        ++count[e.col + 1];
    }
    std::vector<int> colStart(t.cols() + 1, 0);
    for (int c = 0; c < t.cols(); ++c) colStart[c + 1] = colStart[c] + count[c + 1];

    // Scatter into per-column buckets, remembering each entry's origin so the
    // stamp map can be reported in insertion order.
    std::vector<int> rows(es.size());
    std::vector<double> vals(es.size());
    std::vector<int> origin(es.size());
    std::vector<int> fill = colStart;
    for (std::size_t i = 0; i < es.size(); ++i) {
        const auto& e = es[i];
        const int slot = fill[e.col]++;
        rows[slot] = e.row;
        vals[slot] = e.value;
        origin[slot] = static_cast<int>(i);
    }
    if (slotOfEntry) slotOfEntry->assign(es.size(), -1);

    // Sort each column by row and merge duplicates.
    m.colPtr_.assign(t.cols() + 1, 0);
    m.rowIdx_.reserve(es.size());
    m.values_.reserve(es.size());
    std::vector<int> order;
    for (int c = 0; c < t.cols(); ++c) {
        const int lo = colStart[c];
        const int hi = colStart[c + 1];
        order.resize(hi - lo);
        for (int i = 0; i < hi - lo; ++i) order[i] = lo + i;
        std::sort(order.begin(), order.end(), [&](int a, int b) { return rows[a] < rows[b]; });
        int lastRow = -1;
        for (int idx : order) {
            if (rows[idx] != lastRow) {
                m.rowIdx_.push_back(rows[idx]);
                m.values_.push_back(vals[idx]);
                lastRow = rows[idx];
            } else {
                m.values_.back() += vals[idx];
            }
            if (slotOfEntry)
                (*slotOfEntry)[origin[idx]] = static_cast<int>(m.values_.size()) - 1;
        }
        m.colPtr_[c + 1] = static_cast<int>(m.rowIdx_.size());
    }
    return m;
}

std::vector<double> SparseMatrixCsc::multiply(const std::vector<double>& x) const {
    if (static_cast<int>(x.size()) != cols_)
        throw std::invalid_argument("SparseMatrixCsc::multiply: size mismatch");
    std::vector<double> y(rows_, 0.0);
    for (int c = 0; c < cols_; ++c) {
        const double xc = x[c];
        if (xc == 0.0) continue;
        for (int p = colPtr_[c]; p < colPtr_[c + 1]; ++p) y[rowIdx_[p]] += values_[p] * xc;
    }
    return y;
}

double SparseMatrixCsc::at(int row, int col) const {
    for (int p = colPtr_[col]; p < colPtr_[col + 1]; ++p)
        if (rowIdx_[p] == row) return values_[p];
    return 0.0;
}

namespace {

/// Iterative depth-first search over the pattern of the partially built L,
/// recording reached nodes in topological order at xi[top-1], xi[top-2], ...
/// Returns the new top. `pinv` maps original rows to pivot positions (-1 if
/// the row is not yet pivotal, in which case it has no L column to traverse).
int luDfs(int start, const std::vector<int>& lp, const std::vector<int>& li,
          const std::vector<int>& pinv, std::vector<char>& visited, std::vector<int>& xi,
          std::vector<int>& pstack, int top) {
    int head = 0;
    xi[0] = start;
    while (head >= 0) {
        const int j = xi[head];
        const int jPivot = pinv[j];
        if (!visited[j]) {
            visited[j] = 1;
            pstack[head] = (jPivot < 0) ? 0 : lp[jPivot];
        }
        bool done = true;
        const int pEnd = (jPivot < 0) ? 0 : lp[jPivot + 1];
        for (int p = pstack[head]; p < pEnd; ++p) {
            const int child = li[p];
            if (visited[child]) continue;
            pstack[head] = p;       // resume here (child will be marked visited)
            xi[++head] = child;     // recurse into child
            done = false;
            break;
        }
        if (done) {
            --head;
            xi[--top] = j;  // postorder: all descendants already emitted
        }
    }
    return top;
}

}  // namespace

// Minimum-degree column order on the quotient graph of A+A^T (George & Liu;
// degree bound and element absorption as in AMD, Amestoy-Davis-Duff 1996).
// Each eliminated pivot becomes an "element" holding its uneliminated
// neighbours, so the fill it implies is never materialized and the graph
// stays within nnz(A) plus one member list per pivot.
//
// The pivot is the head of the lowest non-empty degree bucket. Buckets are
// LIFO lists filled in descending index order, so ties go to the variable
// whose degree changed last, then to the lowest index: the order is a pure
// function of the pattern.
//
// Storage is one flat list (mdList_) with a region per node
// [start, start + len). A variable's region holds its `elems` adjacent
// elements first, then its adjacent variables; an element's region holds
// its members. state: 0 variable, 1 element, 2 absorbed element.
void SparseLu::orderColumns(const SparseMatrixCsc& a) {
    const auto& ap = a.colPtr();
    const auto& ai = a.rowIdx();
    auto& list = mdList_;
    mdWork_.assign(10 * static_cast<std::size_t>(n_) + 1, 0);
    int* start = mdWork_.data();  // n_ + 1 entries
    int* len = start + n_ + 1;
    int* elems = len + n_;
    int* degree = elems + n_;
    int* mark = degree + n_;
    int* outside = mark + n_;
    int* state = outside + n_;
    int* head = state + n_;
    int* next = head + n_;
    int* prev = next + n_;

    // Pattern of A+A^T without the diagonal: upper-bound regions, filled,
    // then deduplicated in place.
    for (int c = 0; c < n_; ++c)
        for (int p = ap[c]; p < ap[c + 1]; ++p)
            if (ai[p] != c) {
                ++start[ai[p] + 1];
                ++start[c + 1];
            }
    for (int i = 0; i < n_; ++i) start[i + 1] += start[i];
    list.resize(start[n_]);
    for (int c = 0; c < n_; ++c)
        for (int p = ap[c]; p < ap[c + 1]; ++p)
            if (const int r = ai[p]; r != c) {
                list[start[r] + len[r]++] = c;
                list[start[c] + len[c]++] = r;
            }
    for (int i = 0; i < n_; ++i) {
        int kept = 0;
        for (int j = start[i]; j < start[i] + len[i]; ++j)
            if (const int v = list[j]; mark[v] != i + 1) {
                mark[v] = i + 1;
                list[start[i] + kept++] = v;
            }
        len[i] = degree[i] = kept;
    }

    int minDegree = 0;
    const auto insert = [&](int i) {
        const int d = degree[i];
        next[i] = head[d];
        prev[i] = -1;
        if (head[d] >= 0) prev[head[d]] = i;
        head[d] = i;
        minDegree = std::min(minDegree, d);
    };
    const auto remove = [&](int i) {
        (prev[i] >= 0 ? next[prev[i]] : head[degree[i]]) = next[i];
        if (next[i] >= 0) prev[next[i]] = prev[i];
    };
    std::fill(head, head + n_, -1);
    for (int i = n_ - 1; i >= 0; --i) insert(i);

    q_.resize(n_);
    for (int k = 0; k < n_; ++k) {
        while (head[minDegree] < 0) ++minDegree;
        const int piv = head[minDegree];
        remove(piv);
        q_[k] = piv;

        // The new element Lp: every variable reachable from piv through its
        // elements (which it absorbs) or directly. mark[v] == stamp flags Lp.
        const int lpStart = static_cast<int>(list.size());
        const int stamp = n_ + k + 1;
        mark[piv] = stamp;
        for (int j = start[piv]; j < start[piv] + len[piv]; ++j) {
            const int v = list[j];
            if (j < start[piv] + elems[piv]) {
                state[v] = 2;
                for (int m = start[v]; m < start[v] + len[v]; ++m)
                    if (const int w = list[m]; mark[w] != stamp) {
                        mark[w] = stamp;
                        list.push_back(w);
                    }
            } else if (mark[v] != stamp) {
                mark[v] = stamp;
                list.push_back(v);
            }
        }
        state[piv] = 1;
        start[piv] = lpStart;
        const int lpLen = static_cast<int>(list.size()) - lpStart;
        len[piv] = lpLen;

        // outside[e] = |Le \ Lp| for every other element next to Lp.
        for (int j = lpStart; j < lpStart + lpLen; ++j) {
            const int i = list[j];
            for (int m = start[i]; m < start[i] + elems[i]; ++m) {
                const int e = list[m];
                if (state[e] != 1) continue;
                if (mark[e] != stamp) {
                    mark[e] = stamp;
                    outside[e] = len[e];
                }
                --outside[e];
            }
        }

        // Each member drops absorbed elements, elements now inside Lp, and
        // the variables Lp covers, and gains piv. It held piv directly or
        // through an absorbed element, so its region never grows. Its degree
        // becomes the AMD bound: the variables and element members it still
        // sees outside Lp, plus Lp itself.
        const int remaining = n_ - k - 2;
        for (int j = lpStart; j < lpStart + lpLen; ++j) {
            const int i = list[j];
            const int from = start[i];
            const int varsFrom = from + elems[i];
            const int end = from + len[i];
            int out = from;
            int d = lpLen - 1;
            for (int m = from; m < varsFrom; ++m) {
                const int e = list[m];
                if (state[e] != 1) continue;
                if (outside[e] == 0) {
                    state[e] = 2;  // Le is a subset of Lp
                    continue;
                }
                d += outside[e];
                list[out++] = e;
            }
            // piv goes after the elements; the first variable moves to the
            // end to make room.
            const int firstVar = out;
            for (int m = varsFrom; m < end; ++m)
                if (const int v = list[m]; mark[v] != stamp) {
                    ++d;
                    list[out++] = v;
                }
            if (out > firstVar) list[out] = list[firstVar];
            list[firstVar] = piv;
            elems[i] = firstVar - from + 1;
            len[i] = out + 1 - from;
            d = std::min({d, degree[i] + lpLen - 1, remaining});
            if (d != degree[i]) {
                remove(i);
                degree[i] = d;
                insert(i);
            }
        }
    }
}

void SparseLu::factor(const SparseMatrixCsc& a, double pivotTol) {
    if (a.rows() != a.cols()) throw std::invalid_argument("SparseLu: matrix must be square");
    factored_ = false;
    n_ = a.rows();
    const auto& ap = a.colPtr();
    const auto& ai = a.rowIdx();
    const auto& ax = a.values();
    aColPtr_ = ap;
    aRowIdx_ = ai;
    orderColumns(a);

    const int nnzA = a.nonZeros();
    lp_.assign(n_ + 1, 0);
    up_.assign(n_ + 1, 0);
    pinv_.assign(n_, -1);
    li_.clear();
    lx_.clear();
    ui_.clear();
    ux_.clear();
    li_.reserve(4 * nnzA);
    lx_.reserve(4 * nnzA);
    ui_.reserve(4 * nnzA);
    ux_.reserve(4 * nnzA);

    work_.assign(n_, 0.0);
    visited_.assign(n_, 0);
    xi_.resize(n_);
    pstack_.resize(n_);
    auto& x = work_;

    for (int k = 0; k < n_; ++k) {
        const int col = q_[k];
        // --- Symbolic: nodes reachable from the pattern of A(:,col) through L.
        int top = n_;
        for (int p = ap[col]; p < ap[col + 1]; ++p)
            if (!visited_[ai[p]])
                top = luDfs(ai[p], lp_, li_, pinv_, visited_, xi_, pstack_, top);

        // --- Numeric: scatter A(:,col) and run the sparse triangular solve
        // (x is all-zero between steps).
        for (int p = ap[col]; p < ap[col + 1]; ++p) x[ai[p]] = ax[p];
        for (int p = top; p < n_; ++p) {
            const int row = xi_[p];
            const int rowPivot = pinv_[row];
            if (rowPivot < 0) continue;  // not yet pivotal: stays in L
            // L's columns store the unit diagonal first; divide is by 1.0.
            const double xj = x[row];
            for (int q = lp_[rowPivot] + 1; q < lp_[rowPivot + 1]; ++q)
                x[li_[q]] -= lx_[q] * xj;
        }

        // --- Pivot selection: largest magnitude among non-pivotal rows, with a
        // threshold preference for the diagonal A(col, col).
        int pivotRow = -1;
        double pivotMag = -1.0;
        for (int p = top; p < n_; ++p) {
            const int row = xi_[p];
            if (pinv_[row] >= 0) continue;
            const double mag = std::abs(x[row]);
            if (mag > pivotMag) {
                pivotMag = mag;
                pivotRow = row;
            }
        }
        if (pivotRow < 0 || pivotMag <= 0.0) {
            // Leave the scratch zeroed for the next factor()/refactor() call.
            for (int p = top; p < n_; ++p) {
                visited_[xi_[p]] = 0;
                x[xi_[p]] = 0.0;
            }
            throw std::runtime_error("SparseLu: singular matrix");
        }
        if (pinv_[col] < 0 && std::abs(x[col]) >= pivotTol * pivotMag) pivotRow = col;
        const double pivotValue = x[pivotRow];

        // --- Emit U(:,k) (pivotal rows, diagonal last) and L(:,k) (unit
        // diagonal first, then the other non-pivotal rows) in one pass over
        // the reach, resetting the work arrays for the next step.
        li_.push_back(pivotRow);
        lx_.push_back(1.0);
        for (int p = top; p < n_; ++p) {
            const int row = xi_[p];
            if (pinv_[row] >= 0) {
                ui_.push_back(pinv_[row]);
                ux_.push_back(x[row]);
            } else if (row != pivotRow) {
                li_.push_back(row);
                lx_.push_back(x[row] / pivotValue);
            }
            visited_[row] = 0;
            x[row] = 0.0;
        }
        ui_.push_back(k);
        ux_.push_back(pivotValue);
        up_[k + 1] = static_cast<int>(ui_.size());
        lp_[k + 1] = static_cast<int>(li_.size());
        pinv_[pivotRow] = k;
    }

    // Remap L's row indices into pivot order so L is genuinely lower triangular.
    for (auto& row : li_) row = pinv_[row];
    factored_ = true;
}

bool SparseLu::refactor(const SparseMatrixCsc& a, double pivotFloor) {
    if (!factored_ || a.rows() != n_ || a.colPtr() != aColPtr_ || a.rowIdx() != aRowIdx_) {
        factored_ = false;
        return false;
    }
    const auto& ap = a.colPtr();
    const auto& ai = a.rowIdx();
    const auto& ax = a.values();
    auto& x = work_;  // all-zero outside active columns (invariant kept below)

    for (int k = 0; k < n_; ++k) {
        // Scatter A(:,q[k]) in pivot space. Every scattered position lies in
        // the cached L/U pattern of this step (the pattern is the DFS closure
        // of A(:,q[k])), so the reset at the end covers it.
        const int col = q_[k];
        for (int p = ap[col]; p < ap[col + 1]; ++p) x[pinv_[ai[p]]] = ax[p];

        // Replay the sparse triangular solve in the stored topological order:
        // U(:,k)'s pivotal rows were emitted exactly in elimination order.
        // Each x[u] is consumed exactly once and (by the topological order)
        // never written again this step, so it is re-zeroed on the spot —
        // no separate reset pass over the pattern.
        for (int j = up_[k]; j < up_[k + 1] - 1; ++j) {
            const int u = ui_[j];
            const double xu = x[u];
            ux_[j] = xu;
            x[u] = 0.0;
            if (xu != 0.0)
                for (int q = lp_[u] + 1; q < lp_[u + 1]; ++q) x[li_[q]] -= lx_[q] * xu;
        }

        const double pivot = x[k];
        x[k] = 0.0;
        // One fused pass over L(:,k): track the column max for the pivot
        // health check, divide, and re-zero. On pivot failure the half-updated
        // lx_/ux_ values are discarded anyway (factored_ drops below).
        double colMax = std::abs(pivot);
        for (int q = lp_[k] + 1; q < lp_[k + 1]; ++q) {
            const double v = x[li_[q]];
            x[li_[q]] = 0.0;
            colMax = std::max(colMax, std::abs(v));
            lx_[q] = v / pivot;
        }

        // Pivot health: the cached pivot order degrades when the diagonal (in
        // pivot space) collapses relative to its column — bail out so the
        // caller can run a fresh pivoting factorization.
        if (!std::isfinite(colMax) || pivot == 0.0 || !(std::abs(pivot) >= pivotFloor * colMax)) {
            std::fill(x.begin(), x.end(), 0.0);  // restore the scratch invariant
            factored_ = false;
            return false;
        }

        ux_[up_[k + 1] - 1] = pivot;
    }
    return true;
}

std::vector<double> SparseLu::solve(const std::vector<double>& b) const {
    std::vector<double> x;
    solveInto(b, x);
    return x;
}

void SparseLu::solveInto(const std::vector<double>& b, std::vector<double>& x) const {
    if (static_cast<int>(b.size()) != n_) throw std::invalid_argument("SparseLu::solve: size");
    if (!factored_) throw std::runtime_error("SparseLu::solve: not factored");
    // Solve L*U*z = P*b with z[k] kept in x[q[k]]: since x = Q*z, the result
    // lands un-permuted and no scratch vector is needed.
    x.resize(n_);
    for (int i = 0; i < n_; ++i) x[q_[pinv_[i]]] = b[i];
    // Forward solve (unit diagonal stored first in each L column).
    for (int c = 0; c < n_; ++c) {
        const double xc = x[q_[c]];
        for (int p = lp_[c] + 1; p < lp_[c + 1]; ++p) x[q_[li_[p]]] -= lx_[p] * xc;
    }
    // Back solve (diagonal stored last in each U column).
    for (int c = n_ - 1; c >= 0; --c) {
        x[q_[c]] /= ux_[up_[c + 1] - 1];
        const double xc = x[q_[c]];
        for (int p = up_[c]; p < up_[c + 1] - 1; ++p) x[q_[ui_[p]]] -= ux_[p] * xc;
    }
}

}  // namespace fetcam::numeric
