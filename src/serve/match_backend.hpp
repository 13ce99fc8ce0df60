// Pluggable functional-match backends for the query engine's hot path.
//
// The engine's serving loop reduces to one primitive — "lowest occupied row
// in [begin, end) matching this key" (the chunk-local priority encoder) —
// plus the bit-parallel mismatchCounts the similarity workloads ride. This
// interface makes the implementation swappable:
//
//   * Scalar   — the original row-at-a-time scan over
//                std::vector<std::optional<TernaryWord>>. Slow, obviously
//                correct: it is the cross-check oracle.
//   * BitPlane — tcam::TernaryPlanes per-search-line kill planes, one
//                1024-row group per key bit (default).
//   * Checked  — runs both on every call and throws on any divergence; what
//                the differential tests and the paranoid deployment flag use.
//
// Contract: backends are bit-identical. For the same entry set and key,
// findFirst returns the same row and mismatchCounts the same counts, on any
// backend — asserted by match_backend_test's differential fuzz and by
// bench_match on every run.
//
// Width discipline: the engine validates key widths once per batch, then
// calls prepare() once per key and findFirst() once per (key, chunk) — no
// per-call width checks anywhere on the hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tcam/bitplanes.hpp"
#include "tcam/ternary.hpp"

namespace fetcam::serve {

enum class MatchBackendKind {
    Scalar,    ///< row-at-a-time oracle
    BitPlane,  ///< kill bit-planes, 1024-row groups per key bit (default)
    Checked,   ///< both, cross-asserted per call
};

/// Stable name ("scalar" / "bitplane" / "checked").
const char* backendName(MatchBackendKind kind) noexcept;

/// Parse a --backend value; throws recover::SimError(InvalidSpec) on others.
MatchBackendKind parseBackendKind(const std::string& name);

/// A key prepared once per batch: the word itself (scalar path) plus the
/// kill planes its definite bits select (bit-plane path). Holds a pointer —
/// the key must outlive the PreparedKey, which batch loops guarantee.
struct PreparedKey {
    const tcam::TernaryWord* word = nullptr;
    tcam::KeySlices slices;
};

class MatchBackend {
public:
    virtual ~MatchBackend() = default;

    virtual MatchBackendKind kind() const noexcept = 0;

    /// Store `word` at `row`. Width == bits() and row in range are the
    /// caller's (already-validated) responsibility.
    virtual void set(std::int64_t row, const tcam::TernaryWord& word) = 0;

    /// Mark `row` empty.
    virtual void clear(std::int64_t row) = 0;

    /// Entry at `row` (nullopt when empty) — introspection, not hot path.
    virtual std::optional<tcam::TernaryWord> at(std::int64_t row) const = 0;

    /// Whether `row` holds an entry — what mutation and replay ask instead
    /// of decoding the whole word through at().
    virtual bool occupied(std::int64_t row) const = 0;

    /// Deep copy with identical entries — the copy-on-write primitive behind
    /// the engine's mutable chunk snapshots. Backends are value types
    /// underneath, so a clone and its source never share storage.
    virtual std::unique_ptr<MatchBackend> clone() const = 0;

    /// Decompose a (width-validated) key once per batch.
    virtual PreparedKey prepare(const tcam::TernaryWord& key) const = 0;

    /// Chunk-local priority encoder: lowest occupied matching row in
    /// [begin, end), or -1.
    virtual std::int64_t findFirst(std::int64_t begin, std::int64_t end,
                                   const PreparedKey& key) const = 0;

    /// Per-row mismatch counts into out[0..rows()); empty rows get
    /// tcam::kNoEntry.
    virtual void mismatchCounts(const PreparedKey& key, std::size_t* out) const = 0;

    std::int64_t rows() const noexcept { return rows_; }
    int bits() const noexcept { return bits_; }

protected:
    MatchBackend(std::int64_t rows, int bits) : rows_(rows), bits_(bits) {}

private:
    std::int64_t rows_;
    int bits_;
};

/// Factory: a `rows` x `bits` backend of the requested kind, all rows empty.
std::unique_ptr<MatchBackend> makeMatchBackend(MatchBackendKind kind, std::int64_t rows,
                                               int bits);

}  // namespace fetcam::serve
