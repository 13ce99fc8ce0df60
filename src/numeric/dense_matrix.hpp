// Dense matrix with LU factorization (partial pivoting).
//
// Used for small linear systems (device-level fitting, small circuits) and
// as the reference implementation the sparse solver is tested against.
#pragma once

#include <cstddef>
#include <vector>

namespace fetcam::numeric {

/// Row-major dense matrix of doubles.
class DenseMatrix {
public:
    DenseMatrix() = default;
    DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    static DenseMatrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    /// y = A * x. Requires x.size() == cols().
    std::vector<double> multiply(const std::vector<double>& x) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// LU factorization with partial pivoting: P*A = L*U.
///
/// Throws std::runtime_error on (numerically) singular input.
class DenseLu {
public:
    explicit DenseLu(const DenseMatrix& a);

    /// Solve A x = b. Requires b.size() == n.
    std::vector<double> solve(const std::vector<double>& b) const;

    /// Determinant of A (product of U diagonal, sign from pivoting).
    double determinant() const;

    std::size_t size() const { return n_; }

private:
    std::size_t n_ = 0;
    DenseMatrix lu_;                 // packed L (unit diag, below) and U (on/above)
    std::vector<std::size_t> perm_;  // row permutation
    int permSign_ = 1;
};

/// Convenience: solve a dense system in one call.
std::vector<double> solveDense(const DenseMatrix& a, const std::vector<double>& b);

}  // namespace fetcam::numeric
