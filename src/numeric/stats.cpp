#include "numeric/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fetcam::numeric {

void RunningStats::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> values, double p) {
    if (values.empty()) throw std::invalid_argument("percentile: empty sample");
    if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

namespace {
std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

std::uint64_t splitMix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitMix64(sm);
}

std::uint64_t Rng::nextU64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double Rng::uniform() {
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal(double mean, double sigma) {
    if (haveSpare_) {
        haveSpare_ = false;
        return mean + sigma * spare_;
    }
    // Marsaglia polar method.
    double u, v, s;
    do {
        u = 2.0 * uniform() - 1.0;
        v = 2.0 * uniform() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    haveSpare_ = true;
    return mean + sigma * u * factor;
}

int Rng::uniformInt(int lo, int hi) {
    if (hi < lo) throw std::invalid_argument("Rng::uniformInt: empty range");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<int>(nextU64() % span);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::forStream(std::uint64_t seed, std::uint64_t stream) {
    // Two splitMix64 rounds decorrelate adjacent stream indices before the
    // Rng constructor expands the result into xoshiro state.
    std::uint64_t sm = seed ^ (stream * 0x632be59bd9b4e019ULL + 0x9e3779b97f4a7c15ULL);
    const std::uint64_t a = splitMix64(sm);
    return Rng(a ^ splitMix64(sm));
}

}  // namespace fetcam::numeric
