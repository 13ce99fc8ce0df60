// Similarity-query vocabulary shared by the serving engine, the net
// protocol front-end, the tools and the benches.
//
// Two query shapes, both defined over the bitwise Hamming distance the
// bit-plane mismatchCounts kernel computes (wildcard stored trits match
// everything, exactly like TernaryWord::mismatchCount):
//
//   * NearestK  — the k best rows, best-first,
//   * Threshold — every row at distance <= maxDistance, capped at
//                 maxResults rows (the cap keeps replies bounded; it is
//                 deterministic: the first maxResults in the order below).
//
// Ordering contract: hits sort by (distance ascending, row ascending).
// Lowest-row tie-breaking is the same priority-encoder convention the
// exact-match path uses, so a distance-0 NearestK(1) degenerates to
// findFirst. Results are a pure function of (entries, key, options) —
// never of thread schedule, backend, cache temperature, or shard layout —
// which is what makes the serving determinism contract testable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "tcam/ternary.hpp"

namespace fetcam::sim {

enum class SimilarityKind : std::uint8_t {
    NearestK = 1,   ///< k best rows by (distance, row)
    Threshold = 2,  ///< all rows with distance <= maxDistance (capped)
};

struct SimilarityOptions {
    SimilarityKind kind = SimilarityKind::NearestK;
    /// NearestK: rows requested.
    int k = 1;
    /// Threshold: largest accepted Hamming distance.
    std::size_t maxDistance = 0;
    /// Threshold reply cap (bounded replies on the wire); also the ceiling
    /// NearestK's k is validated against.
    std::size_t maxResults = 64;

    /// Rows one query may return: k for NearestK, maxResults for Threshold.
    std::size_t limit() const {
        return kind == SimilarityKind::NearestK ? static_cast<std::size_t>(k) : maxResults;
    }
};

/// Throws SimError(InvalidSpec) on an invalid kind, k < 1, k > maxResults,
/// or maxResults < 1.
void validateSimilarityOptions(const SimilarityOptions& options);

struct SimilarityHit {
    std::int64_t row = -1;
    std::uint32_t distance = 0;
    friend bool operator==(const SimilarityHit& a, const SimilarityHit& b) {
        return a.row == b.row && a.distance == b.distance;
    }
};

using SimilarityHits = std::vector<SimilarityHit>;

/// Bounded best-first selector: feed it every (row, distance) candidate in
/// any order, take() the hits sorted (distance, row). Keeps at most
/// options.limit() candidates via a max-heap on the same total order, so
/// the result never depends on insertion order — the determinism primitive
/// under the engine's shard scan.
class TopSelector {
public:
    explicit TopSelector(const SimilarityOptions& options);

    /// Offer one occupied row. Threshold queries drop rows beyond
    /// maxDistance here; both kinds keep only the limit() best.
    void consider(std::int64_t row, std::size_t distance);

    /// Sorted hits; the selector is empty afterwards.
    SimilarityHits take();

private:
    std::size_t limit_;
    std::optional<std::size_t> maxDistance_;
    SimilarityHits heap_;  ///< max-heap by (distance, row)
};

/// The trusted reference: the same selection computed row-at-a-time with
/// TernaryWord::mismatchCount over an optional-word table — no planes, no
/// backend machinery. Tests and bench_sim cross-check against this.
SimilarityHits naiveSimilarity(const std::vector<std::optional<tcam::TernaryWord>>& rows,
                               const tcam::TernaryWord& key,
                               const SimilarityOptions& options);

}  // namespace fetcam::sim
