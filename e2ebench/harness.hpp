// Pure helpers of the end-to-end benchmark, kept apart from the socket code
// so selftest.cpp can check them: exact percentiles, the scalar oracle the
// replies are checked against, and the generator-lateness verdict.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tcam/ternary.hpp"

namespace fetcam::e2e {

/// Exact percentile of raw samples (q in [0, 1]), linear between the two
/// nearest order statistics (the "type 7" estimator numpy and Python's
/// statistics.quantiles(method="inclusive") use). 0 for an empty set.
double percentile(std::vector<double> samples, double q);

/// Percentile robust to bursts: the median, over `chunks` consecutive
/// equal-count chunks of `samples` (taken in arrival order, so each chunk is
/// a stretch of time), of each chunk's percentile q. A stall burst that
/// spoils one stretch moves one chunk's value, not the result.
double chunkedPercentile(const std::vector<double>& samples, int chunks, double q);

/// The chunk count the benchmark uses: one per 250 samples, 1 to 16.
int chunksFor(std::size_t samples);

/// One stored word packed for the oracle: bit b of `care` is set when trit
/// b is definite, and bit b of `value` then holds it. Widths up to 64 bits.
struct PackedWord {
    std::uint64_t value = 0;
    std::uint64_t care = 0;
};

PackedWord pack(const tcam::TernaryWord& word);

/// Trit-level mismatch distance between a stored word and a fully
/// specified key: definite stored trits that differ from the key bit.
inline int distance(const PackedWord& entry, std::uint64_t key) {
    return __builtin_popcountll((entry.value ^ key) & entry.care);
}

/// (distance, row): one nearest-k hit, ordered as the server orders them.
using NearHit = std::pair<std::uint32_t, std::int64_t>;

/// Row-at-a-time reference over the seed table. Written independently of
/// the program's match backends, so a wrong reply cannot agree with it by
/// sharing code.
///
/// The checks take `absent`: the seed rows that may have been missing from
/// the server's table when it answered (erased, and their reinstall not yet
/// acknowledged). It is empty for a static table, and the reply must then
/// equal the oracle's answer exactly. Each returns "" when the reply is
/// right, else a description of the violation.
class Oracle {
public:
    explicit Oracle(const std::vector<tcam::TernaryWord>& table);

    /// Lowest row whose word matches `key`, or -1: the answer a
    /// priority-encoded TCAM gives.
    std::int64_t firstMatch(std::uint64_t key) const;
    /// The `n` nearest rows by brute force, in (distance, row) order.
    std::vector<NearHit> nearest(std::uint64_t key, std::size_t n) const;
    std::int64_t rows() const { return static_cast<std::int64_t>(table_.size()); }
    const PackedWord& at(std::int64_t row) const { return table_[static_cast<std::size_t>(row)]; }

    /// An exact-match reply row: the first match of the seed table with
    /// some of `absent` left out. `expected` is firstMatch(key).
    std::string checkRow(std::uint64_t key, std::int64_t expected, std::int64_t row,
                         const std::vector<std::int64_t>& absent) const;

    /// A nearest-k hit list: the true k nearest rows with their distances,
    /// in (distance, row) order, of the seed table with some of `absent`
    /// left out.
    std::string checkNearest(std::uint64_t key, std::size_t k,
                             const std::vector<std::int64_t>& rows,
                             const std::vector<std::uint32_t>& distances,
                             const std::vector<std::int64_t>& absent) const;

private:
    std::vector<PackedWord> table_;
};

/// Key bits as a packed word (fully specified keys only).
std::uint64_t packKey(const tcam::TernaryWord& key);

/// Is an open-loop generator's schedule trustworthy? lateness[i] is how
/// long after its scheduled time send i went out [s], in send order.
struct LatenessVerdict {
    double p99 = 0.0;     ///< [s]
    double growth = 0.0;  ///< mean of the last tenth minus the first tenth [s]
    bool valid = true;
};

/// Valid when the p99 lateness (chunked, see chunkedPercentile) stays within
/// `limit` and the lateness does not grow across the run by more than
/// `limit` (a generator that falls further behind with every send is a
/// backlog, not a slow server).
LatenessVerdict judgeLateness(const std::vector<double>& lateness, double limit);

/// Pool-adjacent-violators fit: the non-decreasing sequence closest (least
/// squares) to `y`. Smooths the noise in a latency-vs-rate curve, which can
/// only rise with load, before the SLO crossing is read off it.
std::vector<double> isotonicFit(const std::vector<double>& y);

/// Offered-rate ladder -> the rate at which the fitted p99 crosses `slo`.
/// rates ascend; p99[i] is +inf for a step that failed outright (errors,
/// falling behind, growing backlog). Interpolated in log-log space between
/// the last step at or under the SLO and the first one over it; the top
/// rate when none is over, 0 when even the first one is.
double sloCrossing(const std::vector<double>& rates, const std::vector<double>& p99, double slo);

}  // namespace fetcam::e2e
