#include "numeric/dense_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fetcam::numeric {

DenseMatrix DenseMatrix::identity(std::size_t n) {
    DenseMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

std::vector<double> DenseMatrix::multiply(const std::vector<double>& x) const {
    if (x.size() != cols_) throw std::invalid_argument("DenseMatrix::multiply: size mismatch");
    std::vector<double> y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        const double* row = &data_[r * cols_];
        for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
        y[r] = acc;
    }
    return y;
}

DenseLu::DenseLu(const DenseMatrix& a) : n_(a.rows()), lu_(a), perm_(a.rows()) {
    if (a.rows() != a.cols()) throw std::invalid_argument("DenseLu: matrix must be square");
    for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;

    for (std::size_t k = 0; k < n_; ++k) {
        // Partial pivoting: find largest |entry| in column k at/below diagonal.
        std::size_t pivot = k;
        double best = std::abs(lu_(k, k));
        for (std::size_t r = k + 1; r < n_; ++r) {
            const double v = std::abs(lu_(r, k));
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        if (best == 0.0) throw std::runtime_error("DenseLu: singular matrix");
        if (pivot != k) {
            for (std::size_t c = 0; c < n_; ++c) std::swap(lu_(k, c), lu_(pivot, c));
            std::swap(perm_[k], perm_[pivot]);
            permSign_ = -permSign_;
        }
        const double diag = lu_(k, k);
        for (std::size_t r = k + 1; r < n_; ++r) {
            const double factor = lu_(r, k) / diag;
            lu_(r, k) = factor;
            if (factor == 0.0) continue;
            for (std::size_t c = k + 1; c < n_; ++c) lu_(r, c) -= factor * lu_(k, c);
        }
    }
}

std::vector<double> DenseLu::solve(const std::vector<double>& b) const {
    if (b.size() != n_) throw std::invalid_argument("DenseLu::solve: size mismatch");
    std::vector<double> x(n_);
    // Apply permutation, then forward substitution (L has unit diagonal).
    for (std::size_t i = 0; i < n_; ++i) x[i] = b[perm_[i]];
    for (std::size_t i = 0; i < n_; ++i) {
        double acc = x[i];
        for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
        x[i] = acc;
    }
    // Back substitution.
    for (std::size_t ii = n_; ii-- > 0;) {
        double acc = x[ii];
        for (std::size_t j = ii + 1; j < n_; ++j) acc -= lu_(ii, j) * x[j];
        x[ii] = acc / lu_(ii, ii);
    }
    return x;
}

double DenseLu::determinant() const {
    double det = permSign_;
    for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
    return det;
}

std::vector<double> solveDense(const DenseMatrix& a, const std::vector<double>& b) {
    return DenseLu(a).solve(b);
}

}  // namespace fetcam::numeric
