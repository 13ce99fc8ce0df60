// Streaming statistics and random sampling used by the Monte Carlo
// variation engine and workload generators.
#pragma once

#include <cstdint>
#include <vector>

namespace fetcam::numeric {

/// Welford-style running mean/variance accumulator.
class RunningStats {
public:
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return mean_; }
    double variance() const;  ///< sample variance (n-1); 0 if n < 2
    double stddev() const;
    double min() const { return min_; }
    double max() const { return max_; }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Percentile of a sample (linear interpolation between order statistics).
/// p in [0, 100]. Throws on empty input.
double percentile(std::vector<double> values, double p);

/// Deterministic, seedable RNG (xoshiro256**). Self-contained so results are
/// reproducible across platforms and standard-library versions.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    std::uint64_t nextU64();
    double uniform();                       ///< [0, 1)
    double uniform(double lo, double hi);   ///< [lo, hi)
    double normal(double mean, double sigma);
    int uniformInt(int lo, int hi);         ///< inclusive range [lo, hi]
    bool bernoulli(double p);

    /// An independent stream identified by (seed, stream) alone — stream k
    /// is the same no matter how many streams were created before it or in
    /// what order. This is what keeps parallel Monte Carlo bit-identical to
    /// the serial run.
    static Rng forStream(std::uint64_t seed, std::uint64_t stream);

private:
    std::uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

}  // namespace fetcam::numeric
