// Approximate (nearest-neighbour) associative search.
//
// FeFET TCAMs are attractive beyond exact match: on a mismatch the matchline
// discharge rate is proportional to the number of mismatching cells, so the
// row whose ML falls last is the Hamming-nearest entry — the primitive
// behind hyperdimensional-computing and few-shot-learning accelerators.
//
// This module provides the exact functional model plus the analog
// discharge-time model that maps distances to ML fall times.
//
// Distances ride the same bit-plane kernel as the serving hot path: rows
// pack into tcam::TernaryPlanes and all per-row mismatch counts come from
// one bit-sliced ripple-carry pass over the key's kill planes instead of a
// trit-by-trit walk — bit-identical to TernaryWord::mismatchCount by
// the planes' contract (cross-checked in apps_test).
#pragma once

#include <cstdint>
#include <vector>

#include "tcam/bitplanes.hpp"
#include "tcam/ternary.hpp"

namespace fetcam::apps {

struct NearestResult {
    std::size_t index = 0;      ///< winning row
    std::size_t distance = 0;   ///< its Hamming distance
    bool unique = true;         ///< no tie with another row
};

class AssociativeMemory {
public:
    explicit AssociativeMemory(std::size_t bits) : planes_(static_cast<int>(bits)) {}

    /// Store a fully-definite word. Throws on width mismatch or wildcards.
    void add(const tcam::TernaryWord& word);

    std::size_t size() const { return static_cast<std::size_t>(planes_.rows()); }
    std::size_t bits() const { return static_cast<std::size_t>(planes_.bits()); }

    /// Exact nearest row by Hamming distance (golden model).
    NearestResult nearest(const tcam::TernaryWord& query) const;

    /// All distances (for distribution studies).
    std::vector<std::size_t> distances(const tcam::TernaryWord& query) const;

    /// Analog model: per-row matchline discharge time constants, inversely
    /// proportional to mismatch count:  t_row = tauUnit / max(d, epsilon).
    /// A winner-take-all on the *latest* discharge recovers the nearest row;
    /// the ordering is identical to the exact model except exact matches,
    /// which never discharge (represented as +inf).
    std::vector<double> dischargeTimes(const tcam::TernaryWord& query,
                                       double tauUnit = 1e-9) const;

    /// Winner via the analog model (latest discharge wins). Deterministic
    /// and identical to nearest(): ties — rows at equal distance, whose
    /// discharge times compare exactly equal (including +inf for several
    /// exact matches) — resolve to the lowest row index with unique=false,
    /// and an exact match (+inf, never discharges) always beats distance 1.
    NearestResult nearestViaDischarge(const tcam::TernaryWord& query,
                                      double tauUnit = 1e-9) const;

private:
    tcam::TernaryPlanes planes_;  ///< the stored rows, all occupied
};

}  // namespace fetcam::apps
