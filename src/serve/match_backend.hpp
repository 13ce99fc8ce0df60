// The query engine's functional-match chunk is a tcam::TernaryPlanes itself
// (the 2FeFET cell's per-search-line kill planes, a 1024-row group cleared
// per key bit): prepare() once per key, findFirst() — the chunk-local
// priority encoder — and mismatchCounts() for the similarity workloads,
// with clone() as the engine's copy-on-write primitive. The names below
// stay only because the frozen end-to-end benchmark (e2ebench/) uses them.
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

#include "recover/sim_error.hpp"
#include "tcam/bitplanes.hpp"

namespace fetcam::serve {

/// The one match implementation, as a one-value enum; nothing selects on it.
enum class MatchBackendKind {
    BitPlane,  ///< kill bit-planes, 1024-row groups per key bit
};

/// The engine's chunk type under its older name. Note the constructor
/// order: TernaryPlanes(bits, rows), the reverse of makeMatchBackend(kind,
/// rows, bits).
using MatchBackend = tcam::TernaryPlanes;

/// A key prepared once per batch: the kill planes its definite bits select.
using PreparedKey = tcam::KeySlices;

/// A `rows` x `bits` chunk, all rows empty; throws recover::SimError
/// (InvalidSpec) when the geometry is out of range.
inline std::unique_ptr<MatchBackend> makeMatchBackend(MatchBackendKind, std::int64_t rows,
                                                      int bits) {
    if (rows < 0 || bits < 0 || bits > tcam::TernaryPlanes::kMaxBits)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "makeMatchBackend",
                                "backend geometry out of range");
    return std::make_unique<MatchBackend>(bits, rows);
}

}  // namespace fetcam::serve
