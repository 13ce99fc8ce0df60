// CHURN — route-churn replay: mutation-under-load study for the query
// engine's snapshot-isolated table. A steady search stream runs twice —
// first against a frozen table (baseline), then with a mutator thread
// erasing / re-installing entries at a paced update rate (apps::ChurnWorkload
// flap sequence) — and the bench reports the search-latency impact of the
// churn, the achieved update rate, and the write-energy share (program/erase
// joules as a fraction of total table energy, priced by tcam::planWordWrite
// through the engine's write accounting).
//
// Correctness gates (the bench fails on any):
//   * after the mutator joins, every row's entryAt matches the workload's
//     membership bitmap — the engine landed on exactly the expected table,
//   * a final query batch is bit-identical to a naive oracle scan over that
//     expected table,
//   * every mutation was charged: stats().inserts + erases equals the ops
//     applied, and writeEnergy equals ops * writeCost().energy.
//
// Flags (beyond the shared --trace/--jobs): --rows N (default 2048), --bits B
// (default 64), --duration S per phase (default 1.0), --updates-per-sec U
// (default 2000), --batch Q (default 512), --seed S, --json FILE.
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <thread>
#include <vector>

#include "apps/churn.hpp"
#include "bench_util.hpp"
#include "serve/query_engine.hpp"

using namespace fetcam;

namespace {

double now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct PhaseResult {
    std::int64_t queries = 0;
    std::int64_t batches = 0;
    double seconds = 0.0;
    double qps = 0.0;
    double batchP50 = 0.0;  ///< [s]
    double batchP99 = 0.0;  ///< [s]
};

struct ChurnResult {
    std::int64_t rows = 0;
    int bits = 0;
    double updatesPerSecTarget = 0.0;
    PhaseResult baseline;
    PhaseResult churn;
    std::int64_t updatesApplied = 0;
    double achievedUpdatesPerSec = 0.0;
    double latencyImpactP99 = 0.0;  ///< churn p99 / baseline p99
    std::int64_t inserts = 0;
    std::int64_t erases = 0;
    double writeEnergyJ = 0.0;
    double searchEnergyJ = 0.0;
    double writeEnergyShare = 0.0;  ///< write / (write + search)
    double wordWriteEnergyJ = 0.0;  ///< per-mutation price (planWordWrite)
    double wordWriteLatencyS = 0.0;
    int wordWritePhases = 0;
    bool identical = false;
};

/// Run `duration` seconds of back-to-back search batches, cycling through a
/// pre-generated query stream.
PhaseResult runSearchPhase(serve::QueryEngine& engine,
                           const std::vector<std::vector<tcam::TernaryWord>>& batches,
                           double duration, int jobs) {
    PhaseResult r;
    std::vector<double> samples;
    const double t0 = now();
    std::size_t b = 0;
    while (true) {
        const double tb = now();
        if (tb - t0 >= duration) break;
        const auto& keys = batches[b % batches.size()];
        ++b;
        (void)engine.searchBatch(keys, jobs);
        samples.push_back(now() - tb);
        r.queries += static_cast<std::int64_t>(keys.size());
    }
    r.seconds = now() - t0;
    r.batches = static_cast<std::int64_t>(samples.size());
    r.qps = static_cast<double>(r.queries) / r.seconds;
    if (!samples.empty()) {
        r.batchP50 = numeric::percentile(samples, 50.0);
        r.batchP99 = numeric::percentile(samples, 99.0);
    }
    return r;
}

ChurnResult runChurn(std::int64_t rows, int bits, double duration, double updatesPerSec,
                     std::size_t batchQueries, std::uint64_t seed, int jobs) {
    ChurnResult r;
    r.rows = rows;
    r.bits = bits;
    r.updatesPerSecTarget = updatesPerSec;

    apps::ChurnSpec spec;
    spec.rows = rows;
    spec.wordBits = bits;
    spec.seed = seed;
    apps::ChurnWorkload workload(spec);

    serve::EngineOptions base;
    base.shard.cell = tcam::CellKind::FeFet2;
    base.shard.sense = array::SenseScheme::LowSwing;
    base.shard.rows = 64;  // priced as 64-row sub-arrays
    base.shard.wordBits = bits;
    base.capacity = rows;
    serve::QueryEngine engine(base);
    for (std::int64_t row = 0; row < rows; ++row)
        engine.insertAt(row, workload.words()[static_cast<std::size_t>(row)]);
    const auto statsAfterLoad = engine.stats();

    // Pre-generate the query batches so the serving loop measures the
    // engine, not the generator.
    std::vector<std::vector<tcam::TernaryWord>> batches;
    for (int i = 0; i < 8; ++i)
        batches.push_back(workload.queryStream(batchQueries, 0.7, seed + 100 +
                                                                  static_cast<std::uint64_t>(i)));

    r.baseline = runSearchPhase(engine, batches, duration, jobs);

    // Churn phase: a paced mutator thread flaps entries (open-loop schedule,
    // like the load generator: op i fires at t0 + i/rate, late ops catch up)
    // while this thread keeps searching.
    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> applied{0};
    std::thread mutator([&] {
        const double t0 = now();
        std::int64_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const double target = t0 + static_cast<double>(i) / updatesPerSec;
            while (!stop.load(std::memory_order_relaxed) && now() < target)
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            if (stop.load(std::memory_order_relaxed)) break;
            const apps::ChurnOp op = workload.next();
            if (op.insert)
                engine.insertAt(op.row, op.word);
            else
                engine.erase(op.row);
            ++i;
            applied.store(i, std::memory_order_relaxed);
        }
    });
    r.churn = runSearchPhase(engine, batches, duration, jobs);
    stop.store(true, std::memory_order_relaxed);
    mutator.join();
    r.updatesApplied = applied.load();
    r.achievedUpdatesPerSec = static_cast<double>(r.updatesApplied) / r.churn.seconds;
    r.latencyImpactP99 =
        r.baseline.batchP99 > 0.0 ? r.churn.batchP99 / r.baseline.batchP99 : 0.0;

    // --- verification against the workload oracle ---
    bool ok = engine.occupancy() == workload.installed();
    for (std::int64_t row = 0; row < rows && ok; ++row) {
        const auto entry = engine.entryAt(row);
        if (workload.present()[static_cast<std::size_t>(row)])
            ok = entry.has_value() && *entry == workload.words()[static_cast<std::size_t>(row)];
        else
            ok = !entry.has_value();
    }
    if (ok) {
        std::vector<std::optional<tcam::TernaryWord>> expected(static_cast<std::size_t>(rows));
        for (std::size_t row = 0; row < expected.size(); ++row)
            if (workload.present()[row]) expected[row] = workload.words()[row];
        const auto keys = workload.queryStream(batchQueries, 0.7, seed + 999);
        const auto served = engine.searchBatch(keys, jobs);
        for (std::size_t q = 0; q < keys.size() && ok; ++q)
            ok = served.rows[q] == tcam::referenceFindFirst(expected, keys[q]);
    }

    // --- write accounting: every mutation charged exactly one word write ---
    const auto stats = engine.stats();
    const auto cost = engine.writeCost();
    r.inserts = stats.inserts;
    r.erases = stats.erases;
    r.writeEnergyJ = stats.writeEnergy;
    r.searchEnergyJ = stats.searchEnergy;
    r.writeEnergyShare = stats.writeEnergy / (stats.writeEnergy + stats.searchEnergy);
    r.wordWriteEnergyJ = cost.energy;
    r.wordWriteLatencyS = cost.latency;
    r.wordWritePhases = cost.pulsePhases;
    const std::int64_t mutations = stats.inserts + stats.erases;
    ok = ok && mutations == rows + r.updatesApplied;  // initial load + churn ops
    ok = ok && std::abs(stats.writeEnergy -
                        static_cast<double>(mutations) * cost.energy) <=
                   1e-9 * stats.writeEnergy;
    ok = ok && statsAfterLoad.inserts == rows && statsAfterLoad.erases == 0;
    r.identical = ok;
    return r;
}

void writeJson(const std::string& path, const ChurnResult& r) {
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    os << "{\n  \"bench\": \"bench_churn\",\n";
    os << "  \"deterministic\": {\n";
    os << "    \"rows\": " << r.rows << ",\n";
    os << "    \"bits\": " << r.bits << ",\n";
    os << "    \"wordWriteEnergyJ\": " << r.wordWriteEnergyJ << ",\n";
    os << "    \"wordWriteLatencyS\": " << r.wordWriteLatencyS << ",\n";
    os << "    \"wordWritePhases\": " << r.wordWritePhases << ",\n";
    os << "    \"identical\": " << (r.identical ? "true" : "false") << "\n";
    os << "  },\n";
    os << "  \"volatile\": {\n";
    os << "    \"updatesPerSecTarget\": " << r.updatesPerSecTarget << ",\n";
    os << "    \"updatesApplied\": " << r.updatesApplied << ",\n";
    os << "    \"achievedUpdatesPerSec\": " << r.achievedUpdatesPerSec << ",\n";
    os << "    \"baselineQps\": " << r.baseline.qps << ",\n";
    os << "    \"churnQps\": " << r.churn.qps << ",\n";
    os << "    \"baselineBatchP50\": " << r.baseline.batchP50 << ",\n";
    os << "    \"baselineBatchP99\": " << r.baseline.batchP99 << ",\n";
    os << "    \"churnBatchP50\": " << r.churn.batchP50 << ",\n";
    os << "    \"churnBatchP99\": " << r.churn.batchP99 << ",\n";
    os << "    \"latencyImpactP99\": " << r.latencyImpactP99 << ",\n";
    os << "    \"inserts\": " << r.inserts << ",\n";
    os << "    \"erases\": " << r.erases << ",\n";
    os << "    \"writeEnergyJ\": " << r.writeEnergyJ << ",\n";
    os << "    \"searchEnergyJ\": " << r.searchEnergyJ << ",\n";
    os << "    \"writeEnergyShare\": " << r.writeEnergyShare << "\n";
    os << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
    bench::initObs(argc, argv);

    std::int64_t rows = 2048;
    int bits = 64;
    double duration = 1.0;
    double updatesPerSec = 2000.0;
    std::int64_t batchQueries = 512;
    std::uint64_t seed = 42;
    int jobs = 0;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--rows" && i + 1 < argc) {
            rows = std::atoll(argv[++i]);
        } else if (arg == "--bits" && i + 1 < argc) {
            bits = std::atoi(argv[++i]);
        } else if (arg == "--duration" && i + 1 < argc) {
            duration = std::atof(argv[++i]);
        } else if (arg == "--updates-per-sec" && i + 1 < argc) {
            updatesPerSec = std::atof(argv[++i]);
        } else if (arg == "--batch" && i + 1 < argc) {
            batchQueries = std::atoll(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--jobs" && i + 1 < argc) {
            jobs = std::atoi(argv[++i]);
        } else if (arg == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_churn [--rows N] [--bits B] [--duration S] "
                         "[--updates-per-sec U] [--batch Q] [--seed S] [--jobs J] "
                         "[--json FILE]\n");
            return 2;
        }
    }
    if (rows < 1 || bits < 1 || duration <= 0.0 || updatesPerSec <= 0.0 ||
        batchQueries < 1) {
        std::fprintf(stderr, "error: flag out of range\n");
        return 2;
    }

    bench::banner("CHURN", "mutation-under-load replay",
                  "searches stay bit-identical to the oracle while a paced mutator "
                  "flaps entries; every mutation charged its planWordWrite cost");

    const ChurnResult r = runChurn(rows, bits, duration, updatesPerSec,
                                   static_cast<std::size_t>(batchQueries), seed, jobs);

    core::Table t({"phase", "qps", "batch p50", "batch p99", "updates/s"});
    t.addRow({"baseline", core::engFormat(r.baseline.qps, "q/s"),
              core::engFormat(r.baseline.batchP50, "s"),
              core::engFormat(r.baseline.batchP99, "s"), "-"});
    t.addRow({"churn", core::engFormat(r.churn.qps, "q/s"),
              core::engFormat(r.churn.batchP50, "s"),
              core::engFormat(r.churn.batchP99, "s"),
              core::engFormat(r.achievedUpdatesPerSec, "u/s")});
    std::printf("%s\n", t.toAligned().c_str());

    core::Table w({"mutations", "write energy", "search energy", "write share",
                   "p99 impact", "identical"});
    w.addRow({std::to_string(r.inserts + r.erases), core::engFormat(r.writeEnergyJ, "J"),
              core::engFormat(r.searchEnergyJ, "J"),
              core::numFormat(100.0 * r.writeEnergyShare, 2) + "%",
              core::numFormat(r.latencyImpactP99, 2) + "x", r.identical ? "yes" : "NO"});
    std::printf("%s\n", w.toAligned().c_str());

    if (!jsonPath.empty()) writeJson(jsonPath, r);

    if (!r.identical) {
        std::fprintf(stderr, "FAIL: churned table or accounting diverged from oracle\n");
        return 1;
    }
    return 0;
}
