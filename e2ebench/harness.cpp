#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <stdexcept>

namespace fetcam::e2e {

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double chunkedPercentile(const std::vector<double>& samples, int chunks, double q) {
    const std::size_t n = samples.size();
    const auto k = static_cast<std::size_t>(std::clamp<std::size_t>(static_cast<std::size_t>(std::max(chunks, 1)), 1, std::max<std::size_t>(n, 1)));
    std::vector<double> perChunk;
    for (std::size_t c = 0; c < k; ++c) {
        const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(c * n / k);
        const auto end = samples.begin() + static_cast<std::ptrdiff_t>((c + 1) * n / k);
        perChunk.push_back(percentile(std::vector<double>(begin, end), q));
    }
    return percentile(perChunk, 0.5);
}

int chunksFor(std::size_t samples) {
    return static_cast<int>(std::clamp<std::size_t>(samples / 250, 1, 16));
}

PackedWord pack(const tcam::TernaryWord& word) {
    if (word.size() > 64) throw std::invalid_argument("e2e::pack: word wider than 64 bits");
    PackedWord p;
    for (std::size_t b = 0; b < word.size(); ++b) {
        if (word[b] == tcam::Trit::X) continue;
        p.care |= std::uint64_t{1} << b;
        if (word[b] == tcam::Trit::One) p.value |= std::uint64_t{1} << b;
    }
    return p;
}

std::uint64_t packKey(const tcam::TernaryWord& key) {
    const PackedWord p = pack(key);
    const std::uint64_t full = key.size() == 64 ? ~std::uint64_t{0}
                                                : (std::uint64_t{1} << key.size()) - 1;
    if (p.care != full) throw std::invalid_argument("e2e::packKey: key has X trits");
    return p.value;
}

Oracle::Oracle(const std::vector<tcam::TernaryWord>& table) {
    table_.reserve(table.size());
    for (const auto& word : table) table_.push_back(pack(word));
}

std::int64_t Oracle::firstMatch(std::uint64_t key) const {
    for (std::size_t r = 0; r < table_.size(); ++r)
        if (((table_[r].value ^ key) & table_[r].care) == 0) return static_cast<std::int64_t>(r);
    return -1;
}

std::vector<NearHit> Oracle::nearest(std::uint64_t key, std::size_t n) const {
    // Bounded insertion: keep the n best seen so far, sorted.
    std::vector<NearHit> best;
    best.reserve(n + 1);
    for (std::size_t r = 0; r < table_.size() && n > 0; ++r) {
        const NearHit hit{static_cast<std::uint32_t>(distance(table_[r], key)),
                          static_cast<std::int64_t>(r)};
        if (best.size() == n && !(hit < best.back())) continue;
        best.insert(std::upper_bound(best.begin(), best.end(), hit), hit);
        if (best.size() > n) best.pop_back();
    }
    return best;
}

namespace {

bool contains(const std::vector<std::int64_t>& rows, std::int64_t row) {
    return std::find(rows.begin(), rows.end(), row) != rows.end();
}

}  // namespace

std::string Oracle::checkRow(std::uint64_t key, std::int64_t expected, std::int64_t row,
                             const std::vector<std::int64_t>& absent) const {
    if (row == expected) return {};
    const std::string got =
        "reply row " + std::to_string(row) + ", oracle row " + std::to_string(expected);
    if (row >= rows()) return got + " (outside the table)";
    if (row >= 0 && distance(at(row), key) != 0) return got + " (its seed word does not match)";
    // Every matching row before the reply's (all of them, for a miss) must
    // be one the server may not have held.
    const std::int64_t end = row < 0 ? rows() : row;
    for (std::int64_t r = std::max<std::int64_t>(expected, 0); r < end; ++r)
        if (distance(at(r), key) == 0 && !contains(absent, r))
            return got + " (row " + std::to_string(r) + " matches and was not erased)";
    return {};
}

std::string Oracle::checkNearest(std::uint64_t key, std::size_t k,
                                 const std::vector<std::int64_t>& rows,
                                 const std::vector<std::uint32_t>& distances,
                                 const std::vector<std::int64_t>& absent) const {
    if (rows.size() != k || distances.size() != k)
        return std::to_string(rows.size()) + " nearest hits, expected " + std::to_string(k);
    // Leaving out any of `absent` lets at most |absent| rows further down
    // move up, so the reply is this list with some absent rows skipped.
    const auto want = nearest(key, k + absent.size());
    std::size_t w = 0;
    for (std::size_t i = 0; i < k; ++i) {
        while (w < want.size() && want[w].second != rows[i] && contains(absent, want[w].second)) ++w;
        if (w == want.size() || want[w] != NearHit{distances[i], rows[i]})
            return "nearest hit " + std::to_string(i) + " is row " + std::to_string(rows[i]) +
                   " at distance " + std::to_string(distances[i]) + ", oracle has " +
                   (w == want.size() ? std::string("none")
                                     : "row " + std::to_string(want[w].second) +
                                           " at distance " + std::to_string(want[w].first));
        ++w;
    }
    return {};
}

LatenessVerdict judgeLateness(const std::vector<double>& lateness, double limit) {
    LatenessVerdict v;
    if (lateness.empty()) return v;
    v.p99 = chunkedPercentile(lateness, chunksFor(lateness.size()), 0.99);
    const std::size_t tenth = std::max<std::size_t>(1, lateness.size() / 10);
    double head = 0.0;
    double tail = 0.0;
    for (std::size_t i = 0; i < tenth; ++i) {
        head += lateness[i];
        tail += lateness[lateness.size() - 1 - i];
    }
    v.growth = (tail - head) / static_cast<double>(tenth);
    v.valid = v.p99 <= limit && v.growth <= limit;
    return v;
}

std::vector<double> isotonicFit(const std::vector<double>& y) {
    // Blocks of (mean, size), merged while they violate the order.
    std::vector<std::pair<double, std::size_t>> blocks;
    for (const double v : y) {
        blocks.emplace_back(v, 1);
        while (blocks.size() > 1 && blocks[blocks.size() - 2].first > blocks.back().first) {
            auto [m2, n2] = blocks.back();
            blocks.pop_back();
            auto& [m1, n1] = blocks.back();
            // inf merged with a finite value stays inf: a hard failure is
            // never averaged away.
            m1 = std::isinf(m1) || std::isinf(m2)
                     ? std::numeric_limits<double>::infinity()
                     : (m1 * static_cast<double>(n1) + m2 * static_cast<double>(n2)) /
                           static_cast<double>(n1 + n2);
            n1 += n2;
        }
    }
    std::vector<double> out;
    for (const auto& [m, n] : blocks) out.insert(out.end(), n, m);
    return out;
}

double sloCrossing(const std::vector<double>& rates, const std::vector<double>& p99, double slo) {
    if (rates.empty() || rates.size() != p99.size()) return 0.0;
    const auto fit = isotonicFit(p99);
    std::size_t i = 0;
    while (i < fit.size() && fit[i] <= slo) ++i;
    if (i == fit.size()) return rates.back();
    if (i == 0) return 0.0;
    if (std::isinf(fit[i]) || fit[i - 1] <= 0.0) return rates[i - 1];
    const double t = (std::log(slo) - std::log(fit[i - 1])) / (std::log(fit[i]) - std::log(fit[i - 1]));
    return std::exp(std::log(rates[i - 1]) + t * (std::log(rates[i]) - std::log(rates[i - 1])));
}

}  // namespace fetcam::e2e
