// MATCH — bit-parallel functional-match microbenchmarks: the serve hot path
// isolated from characterization, batching and threading. One shard's worth
// of ternary entries is scanned by the scalar row-at-a-time oracle and by
// the bit-plane backend (kill planes, a 1024-row group per key bit),
// single-threaded, and the bench fails hard if the two ever disagree on a
// priority row or a mismatch count, or if the bit-plane path is slower than
// the scalar baseline.
//
// Scenarios:
//   * find/miss — fully-random definite keys over a wildcard-rich table:
//     almost every query scans the whole shard (the worst case the ROADMAP's
//     >1e8 entry-matches/s/core target is about).
//   * find/hit  — keys derived from stored rows, so priority hits are
//     common and the ascending-shard early-out matters.
//   * mismatch  — per-row Hamming mismatch counts (the kernel under
//     QueryEngine::nearestK / thresholdMatch), all rows counted per query.
//
// Throughput metric: entry-matches/s = rows x queries / seconds — every
// query consults every row of the shard (find scenarios) or counts every
// row (mismatch), which is exactly what the hardware match phase does.
//
// Flags (beyond the shared --trace/--jobs, which are accepted and ignored
// for timing — the kernel is deliberately single-threaded here):
//   --rows N (default 4096), --bits N (default 64), --queries N (default
//   20000), --seed S, --json FILE.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "numeric/stats.hpp"
#include "serve/match_backend.hpp"

using namespace fetcam;

namespace {

double now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

tcam::TernaryWord randomEntry(numeric::Rng& rng, int bits, double xDensity) {
    tcam::TernaryWord w(static_cast<std::size_t>(bits));
    for (int b = 0; b < bits; ++b)
        w[static_cast<std::size_t>(b)] =
            rng.uniform() < xDensity
                ? tcam::Trit::X
                : (rng.bernoulli(0.5) ? tcam::Trit::One : tcam::Trit::Zero);
    return w;
}

struct Scenario {
    std::string name;
    std::vector<tcam::TernaryWord> keys;
    bool mismatch = false;  ///< time mismatchCounts instead of findFirst
};

struct ScenarioResult {
    std::string name;
    std::int64_t rows = 0;
    std::int64_t queries = 0;
    double scalarSeconds = 0.0;
    double bitplaneSeconds = 0.0;
    double scalarEps = 0.0;    ///< entry-matches (or counts) per second
    double bitplaneEps = 0.0;
    double speedup = 0.0;
    std::int64_t hits = 0;  ///< find scenarios: queries with a matching row
    bool identical = false;
};

/// Run one scenario on one backend, returning elapsed seconds and the full
/// result vector (rows for find, flattened counts for mismatch) so the two
/// backends can be compared bit for bit.
double runFind(const serve::MatchBackend& backend, const std::vector<tcam::TernaryWord>& keys,
               std::vector<std::int64_t>& out) {
    out.clear();
    out.reserve(keys.size());
    const std::int64_t rows = backend.rows();
    const double t0 = now();
    for (const auto& key : keys) {
        const auto prepared = backend.prepare(key);
        out.push_back(backend.findFirst(0, rows, prepared));
    }
    return now() - t0;
}

double runMismatch(const serve::MatchBackend& backend,
                   const std::vector<tcam::TernaryWord>& keys,
                   std::vector<std::size_t>& out) {
    const auto rows = static_cast<std::size_t>(backend.rows());
    out.assign(rows * keys.size(), 0);
    const double t0 = now();
    std::size_t at = 0;
    for (const auto& key : keys) {
        const auto prepared = backend.prepare(key);
        backend.mismatchCounts(prepared, out.data() + at);
        at += rows;
    }
    return now() - t0;
}

ScenarioResult runScenario(const Scenario& sc, const serve::MatchBackend& scalar,
                           const serve::MatchBackend& bitplane) {
    ScenarioResult r;
    r.name = sc.name;
    r.rows = scalar.rows();
    r.queries = static_cast<std::int64_t>(sc.keys.size());
    const double work = static_cast<double>(r.rows) * static_cast<double>(r.queries);
    if (sc.mismatch) {
        std::vector<std::size_t> scalarOut, bitplaneOut;
        r.scalarSeconds = runMismatch(scalar, sc.keys, scalarOut);
        r.bitplaneSeconds = runMismatch(bitplane, sc.keys, bitplaneOut);
        r.identical = scalarOut == bitplaneOut;
    } else {
        std::vector<std::int64_t> scalarOut, bitplaneOut;
        r.scalarSeconds = runFind(scalar, sc.keys, scalarOut);
        r.bitplaneSeconds = runFind(bitplane, sc.keys, bitplaneOut);
        r.identical = scalarOut == bitplaneOut;
        for (const auto row : bitplaneOut) r.hits += row >= 0;
    }
    r.scalarEps = work / r.scalarSeconds;
    r.bitplaneEps = work / r.bitplaneSeconds;
    r.speedup = r.bitplaneEps / r.scalarEps;
    return r;
}

void writeJson(const std::string& path, std::int64_t rows, int bits, std::uint64_t seed,
               const std::vector<ScenarioResult>& results) {
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    os << "{\n  \"bench\": \"bench_match\",\n";
    os << "  \"rows\": " << rows << ",\n  \"bits\": " << bits << ",\n  \"seed\": " << seed
       << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        os << "    {\n";
        os << "      \"name\": \"" << r.name << "\",\n";
        os << "      \"rows\": " << r.rows << ",\n";
        os << "      \"queries\": " << r.queries << ",\n";
        os << "      \"hits\": " << r.hits << ",\n";
        os << "      \"scalarSeconds\": " << r.scalarSeconds << ",\n";
        os << "      \"bitplaneSeconds\": " << r.bitplaneSeconds << ",\n";
        os << "      \"scalarEntryMatchesPerSec\": " << r.scalarEps << ",\n";
        os << "      \"bitplaneEntryMatchesPerSec\": " << r.bitplaneEps << ",\n";
        os << "      \"speedup\": " << r.speedup << ",\n";
        os << "      \"identical\": " << (r.identical ? "true" : "false") << "\n";
        os << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
    bench::initObs(argc, argv);

    std::int64_t rows = 4096;
    int bits = 64;
    std::int64_t queries = 20'000;
    std::uint64_t seed = 42;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--rows" && i + 1 < argc) {
            rows = std::atoll(argv[++i]);
        } else if (arg == "--bits" && i + 1 < argc) {
            bits = std::atoi(argv[++i]);
        } else if (arg == "--queries" && i + 1 < argc) {
            queries = std::atoll(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_match [--rows N] [--bits N] [--queries N] "
                         "[--seed S] [--json FILE]\n");
            return 2;
        }
    }
    if (rows < 1 || bits < 1 || bits > tcam::TernaryPlanes::kMaxBits || queries < 1) {
        std::fprintf(stderr, "error: --rows/--bits/--queries out of range\n");
        return 2;
    }

    bench::banner("MATCH", "bit-parallel ternary match kernel",
                  "bit-plane backend sustains >=1e8 entry-matches/s/core and is never "
                  "slower than the scalar oracle, with bit-identical priority rows and "
                  "mismatch counts");

    // One shard's entry set: wildcard-rich rows (LPM-style) with ~6% empty
    // slots. The all-X catch-all rows sit in the *last* block — priority
    // tables put defaults last, and it keeps the miss scenario honest: a
    // random key matches nothing until the full shard has been scanned.
    numeric::Rng rng(seed);
    auto scalar = serve::makeMatchBackend(serve::MatchBackendKind::Scalar, rows, bits);
    auto bitplane = serve::makeMatchBackend(serve::MatchBackendKind::BitPlane, rows, bits);
    std::vector<std::int64_t> occupiedRows;
    const std::int64_t catchAllFrom = std::max<std::int64_t>(0, rows - 4);
    for (std::int64_t r = 0; r < rows; ++r) {
        if (r < catchAllFrom && rng.uniform() < 0.06) continue;  // empty slot
        tcam::TernaryWord w = r >= catchAllFrom
                                  ? tcam::TernaryWord(static_cast<std::size_t>(bits))
                                  : randomEntry(rng, bits, 0.25);
        scalar->set(r, w);
        bitplane->set(r, w);
        if (r < catchAllFrom) occupiedRows.push_back(r);
    }

    std::vector<Scenario> scenarios(3);
    scenarios[0].name = "find/miss";
    scenarios[1].name = "find/hit";
    scenarios[2].name = "mismatch";
    scenarios[2].mismatch = true;
    for (std::int64_t q = 0; q < queries; ++q) {
        // Miss-heavy: fully random definite keys (the all-X rows still match,
        // but only after the whole shard has been consulted bit-parallel).
        scenarios[0].keys.push_back(randomEntry(rng, bits, 0.0));
        // Hit-heavy: a stored row with its wildcards forced definite.
        const auto base = *scalar->at(occupiedRows[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(occupiedRows.size()) - 1))]);
        tcam::TernaryWord key(static_cast<std::size_t>(bits));
        for (int b = 0; b < bits; ++b) {
            const auto t = base[static_cast<std::size_t>(b)];
            key[static_cast<std::size_t>(b)] =
                t == tcam::Trit::X
                    ? (rng.bernoulli(0.5) ? tcam::Trit::One : tcam::Trit::Zero)
                    : t;
        }
        scenarios[1].keys.push_back(key);
    }
    // Mismatch counting is O(rows) per query on both backends with no early
    // out; fewer queries keep the scalar baseline affordable.
    const std::int64_t mismatchQueries = std::max<std::int64_t>(1, queries / 10);
    for (std::int64_t q = 0; q < mismatchQueries; ++q)
        scenarios[2].keys.push_back(randomEntry(rng, bits, 0.1));

    std::vector<ScenarioResult> results;
    for (const auto& sc : scenarios) results.push_back(runScenario(sc, *scalar, *bitplane));

    core::Table t({"scenario", "rows", "queries", "scalar e/s", "bitplane e/s",
                   "speedup", "identical"});
    bool allIdentical = true;
    bool allFaster = true;
    for (const auto& r : results) {
        t.addRow({r.name, std::to_string(r.rows), std::to_string(r.queries),
                  core::engFormat(r.scalarEps, "e/s"),
                  core::engFormat(r.bitplaneEps, "e/s"),
                  core::numFormat(r.speedup, 1) + "x", r.identical ? "yes" : "NO"});
        allIdentical = allIdentical && r.identical;
        allFaster = allFaster && r.speedup >= 1.0;
    }
    std::printf("%s\n", t.toAligned().c_str());

    if (!jsonPath.empty()) writeJson(jsonPath, rows, bits, seed, results);

    if (!allIdentical) {
        std::fprintf(stderr,
                     "FAIL: bit-plane backend diverged from the scalar oracle\n");
        return 1;
    }
    if (!allFaster) {
        std::fprintf(stderr,
                     "FAIL: bit-plane throughput below the scalar baseline\n");
        return 1;
    }
    return 0;
}
