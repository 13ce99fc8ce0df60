// The query engine's functional-match chunk: one tcam::TernaryPlanes (the
// 2FeFET cell's per-search-line kill planes, a 1024-row group cleared per
// key bit) behind the two primitives the serving loop needs — "lowest
// occupied row in [begin, end) matching this key" (the chunk-local priority
// encoder) and the per-row mismatchCounts the similarity workloads ride.
//
// Correctness is checked against tcam::referenceFindFirst and
// sim::naiveSimilarity over a plain optional-word table: by
// match_backend_test's differential fuzz, churn_test's model-based oracle
// test and bench_match on every run.
//
// Width discipline: the engine validates key widths once per batch, then
// calls prepare() once per key and findFirst() once per (key, chunk) — no
// per-call width checks anywhere on the hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "recover/sim_error.hpp"
#include "tcam/bitplanes.hpp"
#include "tcam/ternary.hpp"

namespace fetcam::serve {

/// The one match implementation. Kept as a one-value enum only because the
/// frozen end-to-end benchmark (e2ebench/) still names it; nothing selects
/// on it.
enum class MatchBackendKind {
    BitPlane,  ///< kill bit-planes, 1024-row groups per key bit
};

/// A key prepared once per batch: the kill planes its definite bits select.
using PreparedKey = tcam::KeySlices;

class MatchBackend final {
public:
    /// `rows` x `bits`, all rows empty.
    MatchBackend(std::int64_t rows, int bits) : planes_(bits, rows) {}

    /// Store `word` at `row`. Width == bits() and row in range are the
    /// caller's (already-validated) responsibility.
    void set(std::int64_t row, const tcam::TernaryWord& word) { planes_.set(row, word); }

    /// Mark `row` empty.
    void clear(std::int64_t row) { planes_.clear(row); }

    /// Entry at `row` (nullopt when empty), decoded from the planes —
    /// introspection, not hot path.
    std::optional<tcam::TernaryWord> at(std::int64_t row) const { return planes_.get(row); }

    /// Whether `row` holds an entry — what mutation and replay ask instead
    /// of decoding the whole word through at().
    bool occupied(std::int64_t row) const { return planes_.occupied(row); }

    /// Deep copy with identical entries — the copy-on-write primitive behind
    /// the engine's mutable chunk snapshots. A clone and its source never
    /// share storage.
    std::unique_ptr<MatchBackend> clone() const { return std::make_unique<MatchBackend>(*this); }

    /// Decompose a (width-validated) key once per batch.
    static PreparedKey prepare(const tcam::TernaryWord& key) { return tcam::KeySlices::of(key); }

    /// Chunk-local priority encoder: lowest occupied matching row in
    /// [begin, end), or -1.
    std::int64_t findFirst(std::int64_t begin, std::int64_t end, const PreparedKey& key) const {
        return planes_.findFirstMatch(begin, end, key);
    }

    /// Per-row mismatch counts into out[0..rows()); empty rows get
    /// tcam::kNoEntry.
    void mismatchCounts(const PreparedKey& key, std::size_t* out) const {
        planes_.mismatchCounts(key, out);
    }

    std::int64_t rows() const noexcept { return planes_.rows(); }
    int bits() const noexcept { return planes_.bits(); }

private:
    tcam::TernaryPlanes planes_;
};

/// A `rows` x `bits` chunk, all rows empty; throws recover::SimError
/// (InvalidSpec) when the geometry is out of range.
inline std::unique_ptr<MatchBackend> makeMatchBackend(MatchBackendKind, std::int64_t rows,
                                                      int bits) {
    if (rows < 0 || bits < 0 || bits > tcam::TernaryPlanes::kMaxBits)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "makeMatchBackend",
                                "backend geometry out of range");
    return std::make_unique<MatchBackend>(rows, bits);
}

}  // namespace fetcam::serve
