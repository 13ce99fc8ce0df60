#include "apps/hamming.hpp"

#include <limits>
#include <stdexcept>

namespace fetcam::apps {

void AssociativeMemory::add(const tcam::TernaryWord& word) {
    if (word.size() != bits())
        throw std::invalid_argument("AssociativeMemory::add: width mismatch");
    if (word.wildcardCount() != 0)
        throw std::invalid_argument("AssociativeMemory::add: wildcards not allowed");
    const std::int64_t row = planes_.rows();
    planes_.ensureRows(row + 1);
    planes_.set(row, word);
}

std::vector<std::size_t> AssociativeMemory::distances(const tcam::TernaryWord& query) const {
    // Width is validated once per query; the per-row counts come from one
    // ripple-carry pass over the key's kill planes.
    if (query.size() != bits())
        throw std::invalid_argument("AssociativeMemory::distances: width mismatch");
    std::vector<std::size_t> out(size());
    if (!out.empty()) planes_.mismatchCounts(tcam::KeySlices::of(query), out.data());
    return out;
}

NearestResult AssociativeMemory::nearest(const tcam::TernaryWord& query) const {
    if (size() == 0) throw std::logic_error("AssociativeMemory::nearest: empty memory");
    const auto d = distances(query);
    NearestResult best{0, d[0], true};
    for (std::size_t i = 1; i < d.size(); ++i) {
        if (d[i] < best.distance) {
            best = {i, d[i], true};
        } else if (d[i] == best.distance) {
            best.unique = false;
        }
    }
    return best;
}

std::vector<double> AssociativeMemory::dischargeTimes(const tcam::TernaryWord& query,
                                                      double tauUnit) const {
    const auto d = distances(query);
    std::vector<double> out;
    out.reserve(d.size());
    for (const auto di : d)
        out.push_back(di == 0 ? std::numeric_limits<double>::infinity()
                              : tauUnit / static_cast<double>(di));
    return out;
}

NearestResult AssociativeMemory::nearestViaDischarge(const tcam::TernaryWord& query,
                                                     double tauUnit) const {
    if (size() == 0)
        throw std::logic_error("AssociativeMemory::nearestViaDischarge: empty memory");
    const auto d = distances(query);
    const auto times = dischargeTimes(query, tauUnit);
    // Winner-take-all on the latest discharge. Tie-breaking matches the
    // exact model: only a strictly later discharge displaces the incumbent,
    // so equal times (equal distances — including several exact matches,
    // whose +inf times compare equal) keep the lowest row index and clear
    // `unique`. An exact match always beats distance 1 deterministically:
    // +inf > tauUnit holds for every finite positive tauUnit.
    NearestResult best{0, d[0], true};
    double bestTime = times[0];
    for (std::size_t i = 1; i < times.size(); ++i) {
        if (times[i] > bestTime) {
            bestTime = times[i];
            best = {i, d[i], true};
        } else if (times[i] == bestTime) {
            best.unique = false;
        }
    }
    return best;
}

}  // namespace fetcam::apps
