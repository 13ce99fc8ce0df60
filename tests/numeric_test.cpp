// Unit and property tests for the numeric substrate: dense/sparse LU,
// interpolation, statistics, RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "numeric/dense_matrix.hpp"
#include "numeric/interp.hpp"
#include "numeric/sparse_matrix.hpp"
#include "numeric/stats.hpp"

namespace num = fetcam::numeric;

namespace {

num::DenseMatrix randomDiagDominant(num::Rng& rng, std::size_t n) {
    num::DenseMatrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        double rowSum = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
            if (r == c) continue;
            a(r, c) = rng.uniform(-1.0, 1.0);
            rowSum += std::abs(a(r, c));
        }
        a(r, r) = rowSum + rng.uniform(0.5, 2.0);
    }
    return a;
}

}  // namespace

TEST(DenseMatrix, IdentitySolve) {
    const auto eye = num::DenseMatrix::identity(4);
    const std::vector<double> b{1.0, -2.0, 3.0, 0.5};
    EXPECT_EQ(num::solveDense(eye, b), b);
}

TEST(DenseMatrix, Known2x2) {
    num::DenseMatrix a(2, 2);
    a(0, 0) = 2.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 3.0;
    const auto x = num::solveDense(a, {5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseMatrix, PivotingHandlesZeroDiagonal) {
    num::DenseMatrix a(2, 2);
    a(0, 0) = 0.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 0.0;
    const auto x = num::solveDense(a, {3.0, 4.0});
    EXPECT_NEAR(x[0], 4.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseMatrix, SingularThrows) {
    num::DenseMatrix a(2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 2.0;
    a(1, 1) = 4.0;
    EXPECT_THROW(num::DenseLu{a}, std::runtime_error);
}

TEST(DenseMatrix, DeterminantOfTriangular) {
    num::DenseMatrix a(3, 3);
    a(0, 0) = 2.0;
    a(1, 1) = 3.0;
    a(2, 2) = -4.0;
    a(0, 1) = 7.0;
    a(0, 2) = -1.0;
    a(1, 2) = 5.0;
    num::DenseLu lu(a);
    EXPECT_NEAR(lu.determinant(), -24.0, 1e-12);
}

// Property: random diagonally dominant systems solve to small residual.
class DenseLuProperty : public ::testing::TestWithParam<int> {};

TEST_P(DenseLuProperty, ResidualSmall) {
    num::Rng rng(42 + static_cast<std::uint64_t>(GetParam()));
    const std::size_t n = static_cast<std::size_t>(3 + GetParam() * 7 % 40);
    const auto a = randomDiagDominant(rng, n);
    std::vector<double> b(n);
    for (auto& v : b) v = rng.uniform(-5.0, 5.0);
    const auto x = num::solveDense(a, b);
    const auto ax = a.multiply(x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Random, DenseLuProperty, ::testing::Range(0, 12));

TEST(SparseMatrix, TripletDuplicatesSum) {
    num::TripletList t(3, 3);
    t.add(0, 0, 1.0);
    t.add(0, 0, 2.0);
    t.add(2, 1, -1.0);
    const auto m = num::SparseMatrixCsc::fromTriplets(t);
    EXPECT_EQ(m.nonZeros(), 2);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(m.at(2, 1), -1.0);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
    num::Rng rng(7);
    const int n = 20;
    num::TripletList t(n, n);
    num::DenseMatrix d(n, n);
    for (int k = 0; k < 80; ++k) {
        const int r = rng.uniformInt(0, n - 1);
        const int c = rng.uniformInt(0, n - 1);
        const double v = rng.uniform(-2.0, 2.0);
        t.add(r, c, v);
        d(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
    }
    const auto s = num::SparseMatrixCsc::fromTriplets(t);
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    const auto ys = s.multiply(x);
    const auto yd = d.multiply(x);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(SparseLu, SolvesIdentity) {
    num::TripletList t(3, 3);
    for (int i = 0; i < 3; ++i) t.add(i, i, 1.0);
    num::SparseLu lu(num::SparseMatrixCsc::fromTriplets(t));
    const auto x = lu.solve({1.0, 2.0, 3.0});
    EXPECT_NEAR(x[0], 1.0, 1e-14);
    EXPECT_NEAR(x[1], 2.0, 1e-14);
    EXPECT_NEAR(x[2], 3.0, 1e-14);
}

TEST(SparseLu, RequiresPivoting) {
    // Zero diagonal forces off-diagonal pivoting.
    num::TripletList t(2, 2);
    t.add(0, 1, 1.0);
    t.add(1, 0, 2.0);
    num::SparseLu lu(num::SparseMatrixCsc::fromTriplets(t));
    const auto x = lu.solve({3.0, 8.0});
    EXPECT_NEAR(x[0], 4.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseLu, SingularThrows) {
    num::TripletList t(2, 2);
    t.add(0, 0, 1.0);
    t.add(1, 0, 1.0);  // column 1 empty -> singular
    EXPECT_THROW(num::SparseLu{num::SparseMatrixCsc::fromTriplets(t)}, std::runtime_error);
}

// Property: sparse LU agrees with dense LU on random sprinkled systems.
class SparseLuProperty : public ::testing::TestWithParam<int> {};

TEST_P(SparseLuProperty, MatchesDense) {
    num::Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
    const int n = 5 + GetParam() * 11 % 60;
    num::TripletList t(n, n);
    num::DenseMatrix d(n, n);
    // Diagonally dominant sparse pattern (MNA-like).
    for (int i = 0; i < n; ++i) {
        double offSum = 0.0;
        const int fanout = rng.uniformInt(1, 4);
        for (int k = 0; k < fanout; ++k) {
            const int j = rng.uniformInt(0, n - 1);
            if (j == i) continue;
            const double v = rng.uniform(-1.0, 1.0);
            t.add(i, j, v);
            d(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) += v;
            offSum += std::abs(v);
        }
        const double diag = offSum + rng.uniform(0.5, 1.5);
        t.add(i, i, diag);
        d(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += diag;
    }
    std::vector<double> b(static_cast<std::size_t>(n));
    for (auto& v : b) v = rng.uniform(-3.0, 3.0);

    num::SparseLu slu(num::SparseMatrixCsc::fromTriplets(t));
    const auto xs = slu.solve(b);
    const auto xd = num::solveDense(d, b);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(xs[static_cast<std::size_t>(i)],
                                            xd[static_cast<std::size_t>(i)], 1e-8);
}

// Property: an MNA-shaped system — a node block with a hub node coupled to
// every third node (a matchline), plus voltage-source branch rows whose
// diagonal is structurally zero — solves like dense LU. Minimum degree
// orders the low-degree branch columns first, so their pivots come from the
// node rows.
TEST_P(SparseLuProperty, MnaWithVoltageSourcesMatchesDense) {
    num::Rng rng(300 + static_cast<std::uint64_t>(GetParam()));
    const int nodes = 8 + GetParam() * 7 % 50;
    const int sources = 1 + GetParam() % 4;
    const int n = nodes + sources;
    num::TripletList t(n, n);
    num::DenseMatrix d(n, n);
    const auto add = [&](int r, int c, double v) {
        t.add(r, c, v);
        d(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
    };
    const auto conductance = [&](int a, int b, double g) {
        add(a, a, g);
        add(b, b, g);
        add(a, b, -g);
        add(b, a, -g);
    };
    for (int i = 0; i < nodes; ++i) {
        add(i, i, rng.uniform(1e-3, 1e-2));  // leak to ground
        if (i + 1 < nodes) conductance(i, i + 1, rng.uniform(0.1, 1.0));
        if (i % 3 == 0 && i != 0) conductance(0, i, rng.uniform(0.1, 1.0));
    }
    // Source s drives node 1+s against ground, or against the last node
    // (never itself driven), so the branch columns stay independent.
    for (int s = 0; s < sources; ++s) {
        const int br = nodes + s;
        const int pos = 1 + s;
        add(pos, br, 1.0);
        add(br, pos, 1.0);
        if (s % 2 == 1) {
            add(nodes - 1, br, -1.0);
            add(br, nodes - 1, -1.0);
        }
    }
    std::vector<double> b(static_cast<std::size_t>(n));
    for (auto& v : b) v = rng.uniform(-3.0, 3.0);

    num::SparseLu slu(num::SparseMatrixCsc::fromTriplets(t));
    const auto xs = slu.solve(b);
    const auto xd = num::solveDense(d, b);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(xs[static_cast<std::size_t>(i)],
                                            xd[static_cast<std::size_t>(i)], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Random, SparseLuProperty, ::testing::Range(0, 16));

// An arrow matrix with its hub in column 0: factored in natural order the hub
// fills L and U completely (O(n^2)); the minimum-degree order eliminates it
// last, so no fill beyond the double-counted diagonal.
TEST(SparseLu, ArrowMatrixHubFactorsWithoutFill) {
    const int n = 200;
    num::TripletList t(n, n);
    num::DenseMatrix d(n, n);
    const auto add = [&](int r, int c, double v) {
        t.add(r, c, v);
        d(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
    };
    add(0, 0, 4.0 * n);
    for (int j = 1; j < n; ++j) {
        add(0, j, 1.0);
        add(j, 0, -1.0);
        add(j, j, 2.0 + j % 5);
    }
    num::SparseLu lu(num::SparseMatrixCsc::fromTriplets(t));
    EXPECT_LE(lu.fillIn(), n);

    std::vector<double> b(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) b[static_cast<std::size_t>(i)] = 1.0 + i % 7;
    const auto xs = lu.solve(b);
    const auto xd = num::solveDense(d, b);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(xs[static_cast<std::size_t>(i)],
                                            xd[static_cast<std::size_t>(i)], 1e-10);
}

namespace {

/// Random diagonally dominant MNA-like matrix, same triplet list reusable
/// for value perturbation (identical pattern, different values).
num::TripletList mnaLikeTriplets(int n, num::Rng& rng) {
    num::TripletList t(n, n);
    for (int i = 0; i < n; ++i) {
        double offSum = 0.0;
        const int fanout = rng.uniformInt(1, 4);
        for (int k = 0; k < fanout; ++k) {
            const int j = rng.uniformInt(0, n - 1);
            if (j == i) continue;
            const double v = rng.uniform(-1.0, 1.0);
            t.add(i, j, v);
            offSum += std::abs(v);
        }
        t.add(i, i, offSum + rng.uniform(0.5, 1.5));
    }
    return t;
}

}  // namespace

TEST(SparseMatrix, FromTripletsReportsStampSlots) {
    num::TripletList t(3, 3);
    t.add(2, 2, 5.0);
    t.add(0, 0, 1.0);
    t.add(0, 0, 2.0);  // duplicate: same slot as the previous entry
    t.add(1, 0, -1.0);
    std::vector<int> slots;
    const auto m = num::SparseMatrixCsc::fromTriplets(t, &slots);
    ASSERT_EQ(slots.size(), 4u);
    // Replaying each entry into values()[slot] must reproduce the matrix.
    auto values = m.values();
    std::fill(values.begin(), values.end(), 0.0);
    const auto& es = t.entries();
    for (std::size_t i = 0; i < es.size(); ++i)
        values[static_cast<std::size_t>(slots[i])] += es[i].value;
    EXPECT_EQ(values, m.values());
    EXPECT_EQ(slots[1], slots[2]);  // the duplicate shares its slot
    EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
}

// The core symbolic-reuse guarantee: refactoring with perturbed values (same
// pattern) must match a from-scratch factorization's solution to 1e-12.
TEST(SparseLu, RefactorMatchesFreshFactor) {
    for (int round = 0; round < 8; ++round) {
        num::Rng rng(500 + static_cast<std::uint64_t>(round));
        const int n = 120;
        auto t = mnaLikeTriplets(n, rng);
        num::SparseLu lu(num::SparseMatrixCsc::fromTriplets(t));

        for (int perturb = 0; perturb < 4; ++perturb) {
            // New values, identical pattern (rebuild from scaled entries).
            num::TripletList t2(n, n);
            for (const auto& e : t.entries())
                t2.add(e.row, e.col, e.value * rng.uniform(0.5, 1.5));
            const auto m2 = num::SparseMatrixCsc::fromTriplets(t2);
            std::vector<double> b(static_cast<std::size_t>(n));
            for (auto& v : b) v = rng.uniform(-3.0, 3.0);

            ASSERT_TRUE(lu.refactor(m2));
            const auto xRefactor = lu.solve(b);
            const auto xFresh = num::SparseLu(m2).solve(b);
            for (int i = 0; i < n; ++i)
                ASSERT_NEAR(xRefactor[static_cast<std::size_t>(i)],
                            xFresh[static_cast<std::size_t>(i)], 1e-12);
        }
    }
}

TEST(SparseLu, RefactorRejectsDegradedPivotThenFactorRecovers) {
    // Factor a diagonally dominant 2x2, then swap in values whose diagonal
    // collapses to zero: the cached no-pivoting order is now unusable.
    num::TripletList t(2, 2);
    t.add(0, 0, 4.0);
    t.add(0, 1, 1.0);
    t.add(1, 0, 1.0);
    t.add(1, 1, 4.0);
    auto m = num::SparseMatrixCsc::fromTriplets(t);
    num::SparseLu lu(m);
    ASSERT_TRUE(lu.factored());

    auto& v = m.values();  // CSC column-major: (0,0) (1,0) (0,1) (1,1)
    v = {0.0, 2.0, 2.0, 0.0};  // anti-diagonal: needs off-diagonal pivots
    EXPECT_FALSE(lu.refactor(m));
    EXPECT_FALSE(lu.factored());

    // The fallback path: a fresh pivoting factorization handles it.
    lu.factor(m);
    ASSERT_TRUE(lu.factored());
    const auto x = lu.solve({6.0, 4.0});
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);

    // And refactor works again after the recovery factor.
    ASSERT_TRUE(lu.refactor(m));
    const auto x2 = lu.solve({6.0, 4.0});
    EXPECT_NEAR(x2[0], 2.0, 1e-12);
    EXPECT_NEAR(x2[1], 3.0, 1e-12);
}

TEST(SparseLu, RefactorRejectsPatternMismatch) {
    num::TripletList t(2, 2);
    t.add(0, 0, 1.0);
    t.add(1, 1, 1.0);
    num::SparseLu lu(num::SparseMatrixCsc::fromTriplets(t));
    t.add(0, 1, 0.5);  // different nonzero count
    EXPECT_FALSE(lu.refactor(num::SparseMatrixCsc::fromTriplets(t)));
}

TEST(SparseLu, RefactorRejectsSamePatternSizeDifferentPattern) {
    // [[2,0],[1,3]] and [[2,1],[0,3]] both hold three nonzeros; following
    // the first one's factorization with the second one's values would solve
    // the wrong system (x = (1.5, 1) for b = (3, 3)).
    num::TripletList t(2, 2);
    t.add(0, 0, 2.0);
    t.add(1, 0, 1.0);
    t.add(1, 1, 3.0);
    num::SparseLu lu(num::SparseMatrixCsc::fromTriplets(t));
    num::TripletList u(2, 2);
    u.add(0, 0, 2.0);
    u.add(0, 1, 1.0);
    u.add(1, 1, 3.0);
    const auto m = num::SparseMatrixCsc::fromTriplets(u);
    EXPECT_FALSE(lu.refactor(m));
    EXPECT_FALSE(lu.factored());

    lu.factor(m);
    const auto x = lu.solve({3.0, 3.0});
    EXPECT_NEAR(x[0], 1.0, 1e-14);
    EXPECT_NEAR(x[1], 1.0, 1e-14);
}

// The column order is a pure function of the pattern, so factoring the same
// matrix twice — on one reused object, after an unrelated factorization, or
// on a fresh object — gives bit-identical solves.
TEST(SparseLu, RepeatedFactorIsBitIdentical) {
    num::Rng rng(77);
    const auto m = num::SparseMatrixCsc::fromTriplets(mnaLikeTriplets(150, rng));
    const auto other = num::SparseMatrixCsc::fromTriplets(mnaLikeTriplets(90, rng));
    std::vector<double> b(150);
    for (auto& v : b) v = rng.uniform(-3.0, 3.0);

    num::SparseLu lu(m);
    const auto first = lu.solve(b);
    lu.factor(other);
    lu.factor(m);
    EXPECT_EQ(lu.solve(b), first);
    EXPECT_EQ(num::SparseLu(m).solve(b), first);
}

TEST(Rng, ForStreamIsOrderIndependent) {
    // Stream k depends only on (seed, k) — not on how many streams were made.
    auto a = num::Rng::forStream(42, 7);
    num::Rng::forStream(42, 3);  // unrelated stream creation in between
    auto b = num::Rng::forStream(42, 7);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());

    // Distinct streams and distinct seeds diverge.
    auto c = num::Rng::forStream(42, 8);
    auto d = num::Rng::forStream(43, 7);
    auto e = num::Rng::forStream(42, 7);
    EXPECT_NE(e.nextU64(), c.nextU64());
    EXPECT_NE(e.nextU64(), d.nextU64());
}

TEST(Interp, PiecewiseLinearBasics) {
    num::PiecewiseLinear f({0.0, 1.0, 3.0}, {0.0, 2.0, 0.0});
    EXPECT_DOUBLE_EQ(f(-1.0), 0.0);   // clamped
    EXPECT_DOUBLE_EQ(f(0.5), 1.0);
    EXPECT_DOUBLE_EQ(f(1.0), 2.0);
    EXPECT_DOUBLE_EQ(f(2.0), 1.0);
    EXPECT_DOUBLE_EQ(f(5.0), 0.0);    // clamped
    EXPECT_DOUBLE_EQ(f.slope(0.5), 2.0);
    EXPECT_DOUBLE_EQ(f.slope(2.0), -1.0);
}

TEST(Interp, RejectsUnsortedX) {
    EXPECT_THROW(num::PiecewiseLinear({0.0, 0.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Interp, NanQueryDoesNotIndexPastTheEnd) {
    // Regression: NaN compares false against every knot, so upper_bound
    // returned end() and the interpolation read one past the y vector. A NaN
    // query now propagates NaN (operator()) / a zero slope instead of UB.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    num::PiecewiseLinear f({0.0, 1.0, 3.0}, {0.0, 2.0, 0.0});
    EXPECT_TRUE(std::isnan(f(nan)));
    EXPECT_DOUBLE_EQ(f.slope(nan), 0.0);
}

TEST(Interp, RejectsNanKnots) {
    // A NaN knot passes the pairwise strictly-increasing check (NaN
    // comparisons are all false) and then breaks upper_bound's partition
    // precondition; the constructor must reject it up front.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(num::PiecewiseLinear({0.0, nan, 2.0}, {1.0, 2.0, 3.0}),
                 std::invalid_argument);
    EXPECT_THROW(num::PiecewiseLinear({nan}, {1.0}), std::invalid_argument);
    EXPECT_THROW(num::PiecewiseLinear({0.0, std::numeric_limits<double>::infinity()},
                                      {1.0, 2.0}),
                 std::invalid_argument);
}

TEST(Interp, ExactKnotAndBoundaryQueries) {
    num::PiecewiseLinear f({0.0, 1.0, 3.0}, {0.5, 2.0, -1.0});
    // Exact knot hits land on the stored value, not an interpolation of a
    // zero-width interval.
    EXPECT_DOUBLE_EQ(f(0.0), 0.5);
    EXPECT_DOUBLE_EQ(f(1.0), 2.0);
    EXPECT_DOUBLE_EQ(f(3.0), -1.0);
    // Just inside the last interval still interpolates finitely.
    const double x = std::nextafter(3.0, 0.0);
    EXPECT_TRUE(std::isfinite(f(x)));
    EXPECT_NEAR(f(x), -1.0, 1e-9);
    EXPECT_DOUBLE_EQ(f.slope(x), -1.5);
    // Boundary slopes are clamped to zero outside the knot span.
    EXPECT_DOUBLE_EQ(f.slope(3.0), 0.0);
    EXPECT_DOUBLE_EQ(f.slope(-1.0), 0.0);

    // Single-knot tables degenerate to a constant.
    num::PiecewiseLinear one({2.0}, {7.0});
    EXPECT_DOUBLE_EQ(one(-10.0), 7.0);
    EXPECT_DOUBLE_EQ(one(2.0), 7.0);
    EXPECT_DOUBLE_EQ(one(10.0), 7.0);
    EXPECT_DOUBLE_EQ(one.slope(2.0), 0.0);
}

TEST(Interp, FirstCrossing) {
    const std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
    const std::vector<double> ys{0.0, 1.0, 0.0, 1.0};
    const auto rise = num::firstCrossing(xs, ys, 0.5, /*rising=*/true);
    ASSERT_TRUE(rise.has_value());
    EXPECT_NEAR(*rise, 0.5, 1e-12);
    const auto fall = num::firstCrossing(xs, ys, 0.5, /*rising=*/false);
    ASSERT_TRUE(fall.has_value());
    EXPECT_NEAR(*fall, 1.5, 1e-12);
    const auto later = num::firstCrossing(xs, ys, 0.5, /*rising=*/true, 1.0);
    ASSERT_TRUE(later.has_value());
    EXPECT_NEAR(*later, 2.5, 1e-12);
    EXPECT_FALSE(num::firstCrossing(xs, ys, 2.0, true).has_value());
}

TEST(Interp, Trapezoid) {
    EXPECT_NEAR(num::trapezoid({0.0, 1.0, 2.0}, {0.0, 1.0, 0.0}), 1.0, 1e-12);
}

TEST(Stats, RunningStatsMoments) {
    num::RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_NEAR(s.mean(), 5.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, Percentile) {
    std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_NEAR(num::percentile(v, 0.0), 1.0, 1e-12);
    EXPECT_NEAR(num::percentile(v, 100.0), 4.0, 1e-12);
    EXPECT_NEAR(num::percentile(v, 50.0), 2.5, 1e-12);
    EXPECT_THROW(num::percentile({}, 50.0), std::invalid_argument);
}

TEST(Rng, DeterministicAndBounded) {
    num::Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
    num::Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const int k = r.uniformInt(-3, 3);
        EXPECT_GE(k, -3);
        EXPECT_LE(k, 3);
    }
}

TEST(Rng, NormalMoments) {
    num::Rng r(99);
    num::RunningStats s;
    for (int i = 0; i < 20000; ++i) s.add(r.normal(1.5, 2.0));
    EXPECT_NEAR(s.mean(), 1.5, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}
