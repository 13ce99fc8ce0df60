// Deterministic fork-join parallelism for embarrassingly parallel sweeps.
//
// parallelFor runs fn(0..count-1) across a team of threads that pull indices
// from a shared atomic counter (dynamic scheduling, no work stealing, no
// per-thread deques). Callers that need deterministic results write each
// index's output into a preallocated per-index slot and merge in index order
// after the call returns — the schedule never influences the result.
//
// Exceptions thrown by fn are captured per index; after the join, the
// exception for the LOWEST failing index is rethrown, which makes the
// parallel failure identical to what a sequential loop would have raised.
#pragma once

#include <functional>
#include <string>

namespace fetcam::numeric {

/// Number of hardware threads (>= 1 even when unknown).
int hardwareConcurrency();

/// Process-wide default worker count used when a sweep is asked for `jobs=0`.
/// Starts at 1 (serial) so library users opt in explicitly; the CLI/bench
/// `--jobs` flags call setDefaultJobs. array::evaluateArray does not read
/// it: its fan-out is its own calibration sims (2 per distinct stage
/// width), always run with `jobs=-1`.
int defaultJobs();

/// Set the process-wide default worker count. `jobs <= 0` selects
/// hardwareConcurrency(). Not synchronized with concurrently running sweeps —
/// call it from startup code.
void setDefaultJobs(int jobs);

/// Resolve a user-facing jobs parameter: 0 -> defaultJobs(), negative ->
/// hardwareConcurrency(), otherwise the value itself.
int resolveJobs(int jobs);

/// Ceiling applied by parseJobs: a fat-fingered `--jobs 100000` should not
/// turn into a hundred thousand threads.
inline constexpr int kMaxJobs = 1024;

/// The one parser behind every `--jobs` flag (CLI tools and benches), so all
/// call sites agree on the semantics:
///   * strict decimal integer — anything else (empty, trailing junk, "4k")
///     throws std::invalid_argument instead of silently becoming 0,
///   * 0 or negative -> hardwareConcurrency() ("use every core"),
///   * positive values clamp to kMaxJobs.
/// Returns the resolved worker count (always in [1, kMaxJobs]).
int parseJobs(const std::string& text);

/// Run fn(i) for i in [0, count). With jobs <= 1 (or count <= 1, or when
/// called from inside another parallelFor) the loop runs inline on the
/// calling thread in index order. Otherwise min(jobs, count) threads pull
/// indices from an atomic counter. Blocks until every index completed; then
/// rethrows the exception of the lowest failing index, if any.
void parallelFor(int jobs, int count, const std::function<void(int)>& fn);

}  // namespace fetcam::numeric
