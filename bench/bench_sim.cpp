// SIM — similarity-search study: throughput of nearestK / thresholdMatch
// on the engine's bit-plane chunks against the reference scan, bit-identity
// against that reference, and the MLC (multi-level-cell) energy /
// sense-margin tradeoff vs bits-per-cell.
//
// Three parts:
//   * oracle gate — the engine answers every query bit-identically to
//     sim::naiveSimilarity over the same entry table, for both query kinds;
//     any divergence makes the bench exit non-zero (this is the committed
//     contract, not a perf number),
//   * throughput — keys/s per kind through QueryEngine::similarityBatch
//     ("bitplane" rows, the median of 7 calls) and through the
//     sim::naiveSimilarity reference scan ("reference" rows), on a
//     pre-generated deterministic query stream,
//   * MLC table — characterizeMlc at 1..4 bits per cell on the same array
//     geometry: states per cell, sense margin (shrinks as 1/(N-1)), search
//     delay (grows as N-1), and energy per stored bit (drops with the line
//     ratio) — the density/robustness tradeoff the DESIGN doc describes.
//
// Flags (beyond the shared --trace/--jobs): --rows N (default 4096), --bits B
// (default 64), --queries Q (default 512), --k K (default 8), --threshold D
// (default 4), --seed S, --json FILE.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/query_engine.hpp"
#include "sim/mlc_model.hpp"
#include "sim/similarity.hpp"

using namespace fetcam;

namespace {

double now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SimSpec {
    std::int64_t rows = 4096;
    int bits = 64;
    std::int64_t queries = 512;
    int k = 8;
    int threshold = 4;
    std::uint64_t seed = 42;
    int jobs = 0;
};

/// Deterministic entry table: mostly-definite words with a sprinkle of
/// wildcards, and every 7th row left empty (exercises kNoEntry skipping).
std::vector<std::optional<tcam::TernaryWord>> makeEntries(const SimSpec& s) {
    numeric::Rng rng = numeric::Rng::forStream(s.seed, 0x51AAu);
    std::vector<std::optional<tcam::TernaryWord>> entries(
        static_cast<std::size_t>(s.rows));
    for (std::int64_t row = 0; row < s.rows; ++row) {
        if (row % 7 == 3) continue;  // hole in the table
        tcam::TernaryWord w(static_cast<std::size_t>(s.bits));
        for (int b = 0; b < s.bits; ++b)
            w[static_cast<std::size_t>(b)] = rng.uniform() < 0.1 ? tcam::Trit::X
                                             : rng.bernoulli(0.5) ? tcam::Trit::One
                                                                  : tcam::Trit::Zero;
        entries[static_cast<std::size_t>(row)] = std::move(w);
    }
    return entries;
}

/// Query stream: 70% near-duplicates of a stored row (a few definite-bit
/// flips, wildcards resolved) so small distances actually occur, 30% random.
std::vector<tcam::TernaryWord> makeKeys(const SimSpec& s,
                                        const std::vector<std::optional<tcam::TernaryWord>>& entries) {
    numeric::Rng rng = numeric::Rng::forStream(s.seed, 0x5EEDu);
    std::vector<tcam::TernaryWord> keys;
    keys.reserve(static_cast<std::size_t>(s.queries));
    for (std::int64_t q = 0; q < s.queries; ++q) {
        tcam::TernaryWord key(static_cast<std::size_t>(s.bits));
        const auto& base = entries[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(s.rows) - 1))];
        if (base && rng.uniform() < 0.7) {
            for (int b = 0; b < s.bits; ++b) {
                const tcam::Trit t = (*base)[static_cast<std::size_t>(b)];
                key[static_cast<std::size_t>(b)] =
                    t == tcam::Trit::X ? (rng.bernoulli(0.5) ? tcam::Trit::One
                                                             : tcam::Trit::Zero)
                                       : t;
            }
            const int flips = rng.uniformInt(0, 8);
            for (int f = 0; f < flips; ++f) {
                const auto b = static_cast<std::size_t>(rng.uniformInt(0, s.bits - 1));
                key[b] = key[b] == tcam::Trit::One ? tcam::Trit::Zero : tcam::Trit::One;
            }
        } else {
            for (int b = 0; b < s.bits; ++b)
                key[static_cast<std::size_t>(b)] =
                    rng.bernoulli(0.5) ? tcam::Trit::One : tcam::Trit::Zero;
        }
        keys.push_back(std::move(key));
    }
    return keys;
}

serve::EngineOptions engineOptions(const SimSpec& s) {
    serve::EngineOptions base;
    base.shard.cell = tcam::CellKind::FeFet2;
    base.shard.sense = array::SenseScheme::LowSwing;
    base.shard.rows = 64;
    base.shard.wordBits = s.bits;
    base.capacity = s.rows;
    return base;
}

struct BackendRun {
    std::string backend;
    std::string kind;
    double seconds = 0.0;
    double keysPerSec = 0.0;
    std::int64_t rowsReturned = 0;
    bool identical = false;
};

struct MlcRow {
    int bitsPerCell = 0;
    int statesPerCell = 0;
    int cellsPerWord = 0;
    double senseMarginV = 0.0;
    double searchDelay = 0.0;
    double energyPerBitFj = 0.0;
    bool functional = false;
};

void writeJson(const std::string& path, const SimSpec& s, bool identical,
               const std::vector<BackendRun>& runs, const std::vector<MlcRow>& mlc) {
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    os.precision(17);
    os << "{\n  \"bench\": \"bench_sim\",\n";
    os << "  \"deterministic\": {\n";
    os << "    \"rows\": " << s.rows << ",\n    \"bits\": " << s.bits
       << ",\n    \"queries\": " << s.queries << ",\n    \"k\": " << s.k
       << ",\n    \"threshold\": " << s.threshold << ",\n";
    os << "    \"identical\": " << (identical ? "true" : "false") << ",\n";
    os << "    \"rowsReturned\": {";
    bool first = true;
    for (const auto& r : runs) {
        if (r.backend != "bitplane") continue;  // one canonical copy per kind
        if (!first) os << ", ";
        first = false;
        os << "\"" << r.kind << "\": " << r.rowsReturned;
    }
    os << "},\n    \"mlc\": [\n";
    for (std::size_t i = 0; i < mlc.size(); ++i) {
        const auto& m = mlc[i];
        os << "      {\"bitsPerCell\": " << m.bitsPerCell
           << ", \"statesPerCell\": " << m.statesPerCell
           << ", \"cellsPerWord\": " << m.cellsPerWord
           << ", \"senseMarginV\": " << m.senseMarginV
           << ", \"searchDelayS\": " << m.searchDelay
           << ", \"energyPerBitFj\": " << m.energyPerBitFj
           << ", \"functional\": " << (m.functional ? "true" : "false") << "}"
           << (i + 1 < mlc.size() ? "," : "") << "\n";
    }
    os << "    ]\n  },\n";
    os << "  \"volatile\": {\n    \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto& r = runs[i];
        os << "      {\"backend\": \"" << r.backend << "\", \"kind\": \"" << r.kind
           << "\", \"seconds\": " << r.seconds << ", \"keysPerSec\": " << r.keysPerSec
           << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    os << "    ]\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
    bench::initObs(argc, argv);

    SimSpec s;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--rows" && i + 1 < argc) {
            s.rows = std::atoll(argv[++i]);
        } else if (arg == "--bits" && i + 1 < argc) {
            s.bits = std::atoi(argv[++i]);
        } else if (arg == "--queries" && i + 1 < argc) {
            s.queries = std::atoll(argv[++i]);
        } else if (arg == "--k" && i + 1 < argc) {
            s.k = std::atoi(argv[++i]);
        } else if (arg == "--threshold" && i + 1 < argc) {
            s.threshold = std::atoi(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            s.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--jobs" && i + 1 < argc) {
            s.jobs = std::atoi(argv[++i]);
        } else if (arg == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_sim [--rows N] [--bits B] [--queries Q] [--k K] "
                         "[--threshold D] [--seed S] [--jobs J] [--json FILE]\n");
            return 2;
        }
    }
    if (s.rows < 1 || s.bits < 1 || s.queries < 1 || s.k < 1 || s.threshold < 0) {
        std::fprintf(stderr, "error: flag out of range\n");
        return 2;
    }

    bench::banner("SIM", "similarity search: nearest-k / threshold",
                  "engine bit-identical to the reference scan; MLC model "
                  "prices the density/margin tradeoff");

    const auto entries = makeEntries(s);
    const auto keys = makeKeys(s, entries);

    // Oracle answers, once per kind and timed — the reference the engine
    // must hit.
    sim::SimilarityOptions nearestOpts;
    nearestOpts.kind = sim::SimilarityKind::NearestK;
    nearestOpts.k = s.k;
    nearestOpts.maxResults = std::max(s.k, 64);
    sim::SimilarityOptions thresholdOpts;
    thresholdOpts.kind = sim::SimilarityKind::Threshold;
    thresholdOpts.maxDistance = static_cast<std::size_t>(s.threshold);
    std::vector<sim::SimilarityHits> oracleNearest, oracleThreshold;
    std::vector<BackendRun> runs;
    const auto record = [&](const char* backend, bool nearest, double seconds,
                           std::int64_t rowsReturned, bool identical) {
        BackendRun r;
        r.backend = backend;
        r.kind = nearest ? "nearest" : "threshold";
        r.seconds = seconds;
        r.keysPerSec = static_cast<double>(keys.size()) / seconds;
        r.rowsReturned = rowsReturned;
        r.identical = identical;
        runs.push_back(std::move(r));
    };
    for (const bool nearest : {true, false}) {
        auto& oracle = nearest ? oracleNearest : oracleThreshold;
        oracle.reserve(keys.size());
        std::int64_t rowsReturned = 0;
        const double t0 = now();
        for (const auto& key : keys) {
            oracle.push_back(
                sim::naiveSimilarity(entries, key, nearest ? nearestOpts : thresholdOpts));
            rowsReturned += static_cast<std::int64_t>(oracle.back().size());
        }
        record("reference", nearest, now() - t0, rowsReturned, true);
    }

    serve::QueryEngine engine(engineOptions(s));
    for (std::int64_t row = 0; row < s.rows; ++row)
        if (entries[static_cast<std::size_t>(row)])
            engine.insertAt(row, *entries[static_cast<std::size_t>(row)]);
    // One call is short enough that other load on the machine can stretch
    // any single sample, so the timing is the median of kTimingReps calls;
    // every call's hits must match the oracle.
    constexpr int kTimingReps = 7;
    bool identical = true;
    for (const bool nearest : {true, false}) {
        std::vector<double> seconds;
        std::int64_t rowsReturned = 0;
        bool same = true;
        for (int rep = 0; rep < kTimingReps; ++rep) {
            const double t0 = now();
            const auto out =
                engine.similarityBatch(keys, nearest ? nearestOpts : thresholdOpts, s.jobs);
            seconds.push_back(now() - t0);
            same = same && out.hits == (nearest ? oracleNearest : oracleThreshold);
            rowsReturned = out.rowsReturned;
        }
        std::nth_element(seconds.begin(), seconds.begin() + kTimingReps / 2, seconds.end());
        record("bitplane", nearest, seconds[kTimingReps / 2], rowsReturned, same);
        identical = identical && same;
    }

    core::Table t({"backend", "kind", "keys/s", "rows returned", "identical"});
    for (const auto& r : runs)
        t.addRow({r.backend, r.kind, core::engFormat(r.keysPerSec, "k/s"),
                  std::to_string(r.rowsReturned), r.identical ? "yes" : "NO"});
    std::printf("%s\n", t.toAligned().c_str());

    // MLC density/margin tradeoff on the same geometry.
    const serve::EngineOptions base = engineOptions(s);
    std::vector<MlcRow> mlc;
    for (int bpc = 1; bpc <= device::kMaxMlcBitsPerCell; ++bpc) {
        sim::MlcOptions mo;
        mo.bitsPerCell = bpc;
        mo.workload = base.workload;
        const auto c = sim::characterizeMlc(base.tech, base.shard, mo);
        MlcRow row;
        row.bitsPerCell = c.bitsPerCell;
        row.statesPerCell = c.statesPerCell;
        row.cellsPerWord = c.cellsPerWord;
        row.senseMarginV = c.senseMarginV;
        row.searchDelay = c.searchDelay;
        row.energyPerBitFj = c.energyPerBitFj;
        row.functional = c.functional;
        mlc.push_back(row);
    }
    core::Table m({"bits/cell", "states", "cells/word", "sense margin", "search delay",
                   "energy/bit", "functional"});
    for (const auto& row : mlc)
        m.addRow({std::to_string(row.bitsPerCell), std::to_string(row.statesPerCell),
                  std::to_string(row.cellsPerWord), core::engFormat(row.senseMarginV, "V"),
                  core::engFormat(row.searchDelay, "s"),
                  core::numFormat(row.energyPerBitFj, 3) + " fJ",
                  row.functional ? "yes" : "NO"});
    std::printf("%s\n", m.toAligned().c_str());

    if (!jsonPath.empty()) writeJson(jsonPath, s, identical, runs, mlc);

    if (!identical) {
        std::fprintf(stderr, "FAIL: the engine diverged from the reference scan\n");
        return 1;
    }
    return 0;
}
