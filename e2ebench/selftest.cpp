// Self-test of the benchmark's own checks. run.py runs it before every
// benchmark run; a failure stops the run. Exit 0 when every check holds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "harness.hpp"
#include "listen_workload.hpp"

using namespace fetcam;

namespace {

int gFailures = 0;

void check(bool ok, const std::string& what) {
    if (!ok) {
        std::fprintf(stderr, "e2e_selftest: FAILED %s\n", what.c_str());
        ++gFailures;
    }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

void percentileMatchesKnownSets() {
    // Reference values from numpy.percentile / statistics.quantiles
    // (method="inclusive"), which use the same linear estimator.
    const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    check(near(e2e::percentile(ten, 0.5), 5.5), "p50 of 1..10 is 5.5");
    check(near(e2e::percentile(ten, 0.25), 3.25), "p25 of 1..10 is 3.25");
    check(near(e2e::percentile(ten, 0.99), 9.91), "p99 of 1..10 is 9.91");
    check(near(e2e::percentile(ten, 0.0), 1.0), "p0 is the minimum");
    check(near(e2e::percentile(ten, 1.0), 10.0), "p100 is the maximum");
    check(near(e2e::percentile({42.0}, 0.99), 42.0), "one sample is every percentile");
    check(e2e::percentile({}, 0.5) == 0.0, "empty set reads 0");
    std::vector<double> thousand;
    for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
    check(near(e2e::percentile(thousand, 0.99), 990.01), "p99 of 1..1000 is 990.01");
    // Unlike obs::quantile's buckets, one outlier moves only the top order
    // statistics.
    thousand.back() = 1e9;
    check(near(e2e::percentile(thousand, 0.5), 500.5), "p50 ignores one outlier");

    // Chunked: 6000 samples of 1 ms with one 250-sample burst of 80 ms.
    std::vector<double> bursty(6000, 1e-3);
    for (int i = 2000; i < 2250; ++i) bursty[static_cast<std::size_t>(i)] = 80e-3;
    check(e2e::percentile(bursty, 0.99) == 80e-3, "a burst owns the plain p99");
    check(near(e2e::chunkedPercentile(bursty, e2e::chunksFor(bursty.size()), 0.99), 1e-3),
          "the chunked p99 shrugs the burst off");
    check(e2e::chunksFor(2000) == 8 && e2e::chunksFor(100) == 1 && e2e::chunksFor(1e6) == 16,
          "chunk count is one per 250 samples, 1 to 16");
    check(near(e2e::chunkedPercentile(ten, 1, 0.5), 5.5), "one chunk is the plain percentile");
}

void oracleFlagsCorruptedRows() {
    // 128 patterns, each stored twice (rows r and r + 128), so a key that
    // hits has a second match further down.
    auto table = tools::makeListenEntries(7, 128, 64);
    table.insert(table.end(), table.begin(), table.end());
    const e2e::Oracle oracle(table);
    const std::vector<std::int64_t> none;
    numeric::Rng rng(11);
    int hits = 0, later = 0;
    for (int i = 0; i < 64; ++i) {
        const auto& pattern = table[static_cast<std::size_t>(rng.uniformInt(0, 255))];
        const std::uint64_t key = e2e::packKey(tools::specializeKey(pattern, rng));
        const std::int64_t expected = oracle.firstMatch(key);
        check(expected >= 0, "a specialized key hits its own pattern");
        if (expected < 0) continue;
        ++hits;
        check(oracle.checkRow(key, expected, expected, none).empty(), "the oracle row passes");
        check(!oracle.checkRow(key, expected, expected + 1, none).empty(), "a shifted row is flagged");
        check(!oracle.checkRow(key, expected, -1, none).empty(), "a dropped hit is flagged");
        check(!oracle.checkRow(key, expected, oracle.rows(), {expected}).empty(),
              "an out-of-table row is flagged");
        // While the first match may be erased, the server may answer the
        // next matching row, or miss when there is none; never a row whose
        // word does not match, nor one past a matching row that stayed.
        std::int64_t second = expected + 1;
        while (second < oracle.rows() && e2e::distance(oracle.at(second), key) != 0) ++second;
        std::int64_t wrong = (expected + 1) % oracle.rows();
        while (e2e::distance(oracle.at(wrong), key) == 0) wrong = (wrong + 1) % oracle.rows();
        check(!oracle.checkRow(key, expected, wrong, {expected}).empty(),
              "a non-matching row is flagged");
        if (second == oracle.rows()) {
            check(oracle.checkRow(key, expected, -1, {expected}).empty(),
                  "a miss passes while the only match is erased");
            continue;
        }
        ++later;
        check(oracle.checkRow(key, expected, second, {expected}).empty(),
              "the next match passes while the first is erased");
        check(!oracle.checkRow(key, expected, second, {second}).empty(),
              "the next match is flagged while the first stays");
        check(!oracle.checkRow(key, expected, -1, {expected}).empty(),
              "a miss is flagged while another match stays");
    }
    check(hits == 64, "all specialized keys hit");
    check(later > 0, "some keys match more than one row");

    // Nearest-k: build the true answer by brute force, then corrupt it.
    const std::uint64_t key = e2e::packKey(tools::randomKey(64, rng));
    std::vector<e2e::NearHit> all;
    for (std::int64_t r = 0; r < oracle.rows(); ++r)
        all.emplace_back(static_cast<std::uint32_t>(e2e::distance(oracle.at(r), key)), r);
    std::sort(all.begin(), all.end());
    check(oracle.nearest(key, 9) == std::vector<e2e::NearHit>(all.begin(), all.begin() + 9),
          "the oracle's nearest-9 is the brute-force one");
    auto listOf = [](const std::vector<e2e::NearHit>& hits, std::vector<std::int64_t>& rows,
                     std::vector<std::uint32_t>& dist) {
        rows.clear();
        dist.clear();
        for (const auto& [d, r] : hits) rows.push_back(r), dist.push_back(d);
    };
    std::vector<std::int64_t> rows;
    std::vector<std::uint32_t> dist;
    listOf({all.begin(), all.begin() + 8}, rows, dist);
    check(oracle.checkNearest(key, 8, rows, dist, none).empty(), "true nearest-8 passes");
    auto badDist = dist;
    badDist[3] += 1;
    check(!oracle.checkNearest(key, 8, rows, badDist, none).empty(), "a wrong distance is flagged");
    auto swapped = rows;
    auto swappedDist = dist;
    std::swap(swapped[0], swapped[7]);
    std::swap(swappedDist[0], swappedDist[7]);
    check(!oracle.checkNearest(key, 8, swapped, swappedDist, none).empty(),
          "out-of-order hits are flagged");
    check(!oracle.checkNearest(key, 9, rows, dist, none).empty(), "a short list is flagged");

    // A sorted list with true distances that leaves out a nearer row.
    std::vector<e2e::NearHit> skipped(all.begin(), all.begin() + 9);
    const std::int64_t left = skipped[2].second;
    skipped.erase(skipped.begin() + 2);
    listOf(skipped, rows, dist);
    check(!oracle.checkNearest(key, 8, rows, dist, none).empty(),
          "a list that leaves out a nearer row is flagged");
    check(oracle.checkNearest(key, 8, rows, dist, {left}).empty(),
          "the same list passes while that row may be erased");
    check(!oracle.checkNearest(key, 8, rows, dist, {all[0].second}).empty(),
          "... but not while another row may be");
    // The first 8 rows of the table, sorted, with their true distances.
    std::vector<e2e::NearHit> firstRows(all.size());
    for (const auto& hit : all) firstRows[static_cast<std::size_t>(hit.second)] = hit;
    firstRows.resize(8);
    std::sort(firstRows.begin(), firstRows.end());
    listOf(firstRows, rows, dist);
    check(!oracle.checkNearest(key, 8, rows, dist, none).empty(),
          "a sorted list of arbitrary rows is flagged");
}

void latenessRejectsStalledGenerator() {
    std::vector<double> steady(10000, 20e-6);
    for (std::size_t i = 0; i < steady.size(); i += 97) steady[i] = 400e-6;
    check(e2e::judgeLateness(steady, 1e-3).valid, "a punctual generator is valid");

    // Falls further behind with every send: the backlog grows to 100 ms.
    std::vector<double> falling;
    for (int i = 0; i < 10000; ++i) falling.push_back(i * 10e-6);
    const auto fallingVerdict = e2e::judgeLateness(falling, 1e-3);
    check(!fallingVerdict.valid, "a generator falling behind is rejected");
    check(fallingVerdict.growth > 0.05, "its lateness growth is measured");

    // Stalls of 50 ms every 500 sends, each delaying the next 4 % of sends.
    std::vector<double> stalled(10000, 20e-6);
    for (int s = 0; s < 10000; s += 500)
        for (int i = s; i < s + 20; ++i) stalled[static_cast<std::size_t>(i)] = 50e-3 - (i - s) * 1e-3;
    check(!e2e::judgeLateness(stalled, 1e-3).valid, "a stalled generator is rejected");

    // One stall burst in an otherwise punctual run is the machine, not the
    // generator.
    std::vector<double> once(10000, 20e-6);
    for (int i = 5000; i < 5200; ++i) once[static_cast<std::size_t>(i)] = 50e-3 - (i - 5000) * 1e-4;
    check(e2e::judgeLateness(once, 1e-3).valid, "a single stall burst is not a stalled generator");
    check(e2e::judgeLateness({}, 1e-3).valid, "no sends is not a stall");
}

void sloCrossingReadsTheFittedCurve() {
    const double inf = std::numeric_limits<double>::infinity();
    const auto fit = e2e::isotonicFit({1, 3, 2, 4, 6, 5});
    const std::vector<double> want = {1, 2.5, 2.5, 4, 5.5, 5.5};
    bool same = fit.size() == want.size();
    for (std::size_t i = 0; same && i < fit.size(); ++i) same = near(fit[i], want[i]);
    check(same, "isotonic fit pools adjacent violators");
    const auto withInf = e2e::isotonicFit({1, inf, 2});
    check(std::isinf(withInf[1]) && std::isinf(withInf[2]), "a hard failure is never averaged away");

    const std::vector<double> rates = {1000, 2000, 4000, 8000};
    // p99 doubles per step: 5 ms sits exactly at 4000 q/s in log-log space.
    check(near(e2e::sloCrossing(rates, {1.25e-3, 2.5e-3, 5e-3, 10e-3}, 5e-3), 4000),
          "crossing on a grid point");
    const double mid = e2e::sloCrossing(rates, {1e-3, 2e-3, 4e-3, 16e-3}, 8e-3);
    check(near(mid, std::sqrt(4000.0 * 8000.0)), "crossing interpolates in log-log space");
    // A noisy spike below the knee is pooled with its neighbours, not taken
    // as the crossing.
    check(e2e::sloCrossing(rates, {1e-3, 9e-3, 2e-3, 30e-3}, 8e-3) > 2000,
          "one noisy step does not end the ladder");
    check(e2e::sloCrossing(rates, {1e-3, 2e-3, 3e-3, 4e-3}, 8e-3) == 8000,
          "no crossing reads the top rate");
    check(e2e::sloCrossing(rates, {9e-3, inf, inf, inf}, 8e-3) == 0.0,
          "a ladder failing from the start reads 0");
    check(near(e2e::sloCrossing(rates, {1e-3, 2e-3, inf, inf}, 8e-3), 2000),
          "a hard failure after a pass reads the last passing rate");
}

}  // namespace

int main() {
    percentileMatchesKnownSets();
    oracleFlagsCorruptedRows();
    latenessRejectsStalledGenerator();
    sloCrossingReadsTheFittedCurve();
    if (gFailures > 0) {
        std::fprintf(stderr, "e2e_selftest: %d check(s) failed\n", gFailures);
        return 1;
    }
    std::fprintf(stderr, "e2e_selftest: all checks passed\n");
    return 0;
}
