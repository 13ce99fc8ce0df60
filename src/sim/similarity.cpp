#include "sim/similarity.hpp"

#include <algorithm>

#include "recover/sim_error.hpp"

namespace fetcam::sim {

namespace {

/// The one total order everything sorts by: distance, then row.
bool hitLess(const SimilarityHit& a, const SimilarityHit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.row < b.row;
}

}  // namespace

void validateSimilarityOptions(const SimilarityOptions& options) {
    if (options.kind != SimilarityKind::NearestK &&
        options.kind != SimilarityKind::Threshold)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                "validateSimilarityOptions", "unknown similarity kind");
    if (options.maxResults < 1)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                "validateSimilarityOptions", "maxResults must be >= 1");
    if (options.kind == SimilarityKind::NearestK) {
        if (options.k < 1)
            throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                    "validateSimilarityOptions", "k must be >= 1");
        if (static_cast<std::size_t>(options.k) > options.maxResults)
            throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                    "validateSimilarityOptions",
                                    "k exceeds the maxResults reply cap");
    }
}

TopSelector::TopSelector(const SimilarityOptions& options) : limit_(options.limit()) {
    if (options.kind == SimilarityKind::Threshold) maxDistance_ = options.maxDistance;
    heap_.reserve(limit_);
}

void TopSelector::consider(std::int64_t row, std::size_t distance) {
    if (maxDistance_ && distance > *maxDistance_) return;
    const SimilarityHit hit{row, static_cast<std::uint32_t>(distance)};
    if (heap_.size() < limit_) {
        heap_.push_back(hit);
        std::push_heap(heap_.begin(), heap_.end(), hitLess);
        return;
    }
    // Full: replace the current worst only if this hit is strictly better
    // in the (distance, row) order — a total order, so the surviving set is
    // the same whatever order candidates arrive in.
    if (!hitLess(hit, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), hitLess);
    heap_.back() = hit;
    std::push_heap(heap_.begin(), heap_.end(), hitLess);
}

SimilarityHits TopSelector::take() {
    std::sort_heap(heap_.begin(), heap_.end(), hitLess);
    return std::move(heap_);
}

SimilarityHits naiveSimilarity(const std::vector<std::optional<tcam::TernaryWord>>& rows,
                               const tcam::TernaryWord& key,
                               const SimilarityOptions& options) {
    validateSimilarityOptions(options);
    TopSelector selector(options);
    for (std::size_t r = 0; r < rows.size(); ++r)
        if (rows[r])
            selector.consider(static_cast<std::int64_t>(r), rows[r]->mismatchCount(key));
    return selector.take();
}

}  // namespace fetcam::sim
