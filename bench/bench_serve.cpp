// SERVE — characterize-then-serve throughput study: LPM and TLB workloads
// streamed through serve::QueryEngine, comparing warm-cache serving against
// the uncached pay-per-query solver cost, with bit-identity checks between
// the cached and uncached paths and across worker counts. Every served answer
// is also checked against the application's own linear reference
// (RoutingTable::lookupLinear, Tlb::translate); see bench_match for the
// isolated kernel numbers against the reference scan. Also benchmarks
// the persistent characterization store (append / load / compact throughput
// with a round-trip bit-identity check) so BENCH tracking covers the
// warm-restart path.
//
// Flags (beyond the shared --trace/--jobs): --queries N (default 1M),
// --store-records N (default 20000), --seed S, --json FILE
// (machine-readable results for CI).
#include <chrono>
#include <filesystem>
#include <fstream>

#include "bench_util.hpp"
#include "serve/adapters.hpp"
#include "store/char_store.hpp"

using namespace fetcam;

namespace {

double now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct WorkloadResult {
    std::string name;
    std::int64_t queries = 0;
    std::int64_t hits = 0;
    double coldBuildSeconds = 0.0;  ///< engine build paying real transients
    double warmBuildSeconds = 0.0;  ///< engine build on the warm cache
    double serveSeconds = 0.0;      ///< 1M-query serving time (warm engine)
    double warmQps = 0.0;
    double uncachedQps = 0.0;  ///< solver-transient-per-query rate
    double speedup = 0.0;
    std::int64_t cacheMisses = 0;  ///< real transients paid, total
    bool identical = false;  ///< cached==uncached hardware, jobs/cold/warm,
                             ///< every answer == the linear reference
};

/// Cached and uncached paths must price the hardware identically, bit for
/// bit — they share every line of scaling arithmetic by construction.
bool sameHardware(const array::BankMetrics& a, const array::BankMetrics& b) {
    return a.subArrays == b.subArrays && a.rowsPerArray == b.rowsPerArray &&
           a.totalEntries == b.totalEntries && a.perSearch.ml == b.perSearch.ml &&
           a.perSearch.sl == b.perSearch.sl && a.perSearch.sa == b.perSearch.sa &&
           a.perSearch.staticRail == b.perSearch.staticRail &&
           a.encoderEnergy == b.encoderEnergy && a.searchDelay == b.searchDelay &&
           a.cycleTime == b.cycleTime && a.throughput == b.throughput &&
           a.areaF2 == b.areaF2 && a.functional == b.functional;
}

serve::EngineOptions baseOptions() {
    serve::EngineOptions base;
    base.shard.cell = tcam::CellKind::FeFet2;
    base.shard.sense = array::SenseScheme::LowSwing;
    base.shard.rows = 16;
    return base;
}

struct StoreBenchResult {
    std::int64_t uniqueRecords = 0;
    std::int64_t appendedRecords = 0;  ///< includes deliberate duplicates
    double appendSeconds = 0.0;        ///< append + flush (durable)
    double loadSeconds = 0.0;
    double compactSeconds = 0.0;
    double appendPerSec = 0.0;
    double loadPerSec = 0.0;
    std::int64_t logBytes = 0;        ///< before compaction (with duplicates)
    std::int64_t compactedBytes = 0;  ///< deduplicated snapshot
    bool roundTripIdentical = false;
};

/// Store micro-benchmark: realistic packed keys/payloads streamed through
/// the actual CharStore append / load / compact paths on a throwaway
/// directory. Every key is written twice so compaction has duplicates to
/// fold away, like a long-lived append log would.
StoreBenchResult runStoreBench(std::int64_t records, std::uint64_t seed) {
    namespace fs = std::filesystem;
    StoreBenchResult r;
    r.uniqueRecords = records;

    const fs::path dir = fs::temp_directory_path() / "fetcam_bench_serve_store";
    fs::remove_all(dir);

    store::StoreConfig cfg;
    cfg.dir = dir.string();
    cfg.schemaVersion = serve::kCharSchemaVersion;

    // Realistic record shapes: real keyOf() packings over varying 32-bit
    // ternary words, real packResult() payloads.
    numeric::Rng rng(seed);
    array::WordSimOptions opts;
    opts.config.cell = tcam::CellKind::FeFet2;
    opts.config.sense = array::SenseScheme::LowSwing;
    opts.config.wordBits = 32;
    std::vector<store::Record> written;
    written.reserve(static_cast<std::size_t>(records));
    for (std::int64_t i = 0; i < records; ++i) {
        tcam::TernaryWord w(32);
        for (std::size_t b = 0; b < 32; ++b)
            w[b] = rng.uniform() < 0.25 ? tcam::Trit::X
                                        : (rng.bernoulli(0.5) ? tcam::Trit::One
                                                              : tcam::Trit::Zero);
        opts.stored = w;
        opts.key = w;
        array::WordSimResult res;
        res.expectedMatch = true;
        res.matchDetected = true;
        res.mlAtSense = rng.uniform();
        res.mlMin = rng.uniform();
        res.vPrecharge = 0.8;
        res.energyMl = rng.uniform() * 1e-15;
        res.energySl = rng.uniform() * 1e-15;
        res.energySa = rng.uniform() * 1e-16;
        res.energyTotal = res.energyMl + res.energySl + res.energySa;
        written.push_back({serve::CharacterizationCache::keyOf(opts),
                           serve::packResult(res)});
    }

    {
        store::CharStore writer(cfg);
        (void)writer.load();
        const double t0 = now();
        for (const auto& rec : written) writer.append(rec.key, rec.payload);
        for (const auto& rec : written) writer.append(rec.key, rec.payload);  // dups
        writer.flush();
        r.appendSeconds = now() - t0;
        r.appendedRecords = writer.appendedRecords();
        r.logBytes = writer.logBytes();
    }
    r.appendPerSec = static_cast<double>(r.appendedRecords) / r.appendSeconds;

    {
        store::StoreConfig ro = cfg;
        ro.readOnly = true;
        store::CharStore reader(ro);
        const double t0 = now();
        const auto loaded = reader.load();
        r.loadSeconds = now() - t0;
        r.loadPerSec = static_cast<double>(loaded.size()) / r.loadSeconds;
        bool ok = loaded.size() == written.size() * 2;
        for (std::size_t i = 0; i < written.size() && ok; ++i)
            ok = loaded[i] == written[i] && loaded[i + written.size()] == written[i];
        r.roundTripIdentical = ok;
    }

    {
        store::CharStore writer(cfg);
        (void)writer.load();
        const double t0 = now();
        writer.compact(written);  // deduplicated snapshot
        r.compactSeconds = now() - t0;
        r.compactedBytes = writer.logBytes();
        store::StoreConfig ro = cfg;
        ro.readOnly = true;
        store::CharStore reader(ro);
        const auto loaded = reader.load();
        r.roundTripIdentical = r.roundTripIdentical && loaded == written;
    }

    fs::remove_all(dir);
    return r;
}

void writeJson(const std::string& path, const std::vector<WorkloadResult>& results,
               const StoreBenchResult& sb) {
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    os << "{\n  \"bench\": \"bench_serve\",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        os << "    {\n";
        os << "      \"name\": \"" << r.name << "\",\n";
        os << "      \"queries\": " << r.queries << ",\n";
        os << "      \"hits\": " << r.hits << ",\n";
        os << "      \"coldBuildSeconds\": " << r.coldBuildSeconds << ",\n";
        os << "      \"warmBuildSeconds\": " << r.warmBuildSeconds << ",\n";
        os << "      \"serveSeconds\": " << r.serveSeconds << ",\n";
        os << "      \"warmQps\": " << r.warmQps << ",\n";
        os << "      \"uncachedQps\": " << r.uncachedQps << ",\n";
        os << "      \"speedup\": " << r.speedup << ",\n";
        os << "      \"cacheMisses\": " << r.cacheMisses << ",\n";
        os << "      \"identical\": " << (r.identical ? "true" : "false") << "\n";
        os << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"store\": {\n";
    os << "    \"uniqueRecords\": " << sb.uniqueRecords << ",\n";
    os << "    \"appendedRecords\": " << sb.appendedRecords << ",\n";
    os << "    \"appendSeconds\": " << sb.appendSeconds << ",\n";
    os << "    \"loadSeconds\": " << sb.loadSeconds << ",\n";
    os << "    \"compactSeconds\": " << sb.compactSeconds << ",\n";
    os << "    \"appendPerSec\": " << sb.appendPerSec << ",\n";
    os << "    \"loadPerSec\": " << sb.loadPerSec << ",\n";
    os << "    \"logBytes\": " << sb.logBytes << ",\n";
    os << "    \"compactedBytes\": " << sb.compactedBytes << ",\n";
    os << "    \"roundTripIdentical\": " << (sb.roundTripIdentical ? "true" : "false")
       << "\n";
    os << "  }\n}\n";
}

WorkloadResult runLpm(std::int64_t queries, std::uint64_t seed) {
    WorkloadResult r;
    r.name = "lpm";
    r.queries = queries;

    // A small core-router-style table: default route, a handful of /8
    // aggregates, and more-specific /16 and /24 holes inside them.
    apps::RoutingTable table;
    numeric::Rng rng(seed);
    table.addRoute(0, 0, 1);  // default route
    for (int i = 0; i < 8; ++i)
        table.addRoute(static_cast<std::uint32_t>(10 + i) << 24, 8, 100 + i);
    for (int i = 0; i < 24; ++i) {
        const auto base = static_cast<std::uint32_t>(10 + (i % 8)) << 24;
        table.addRoute(base | (static_cast<std::uint32_t>(i) << 16), 16, 200 + i);
    }
    for (int i = 0; i < 24; ++i) {
        const auto base = static_cast<std::uint32_t>(10 + (i % 8)) << 24;
        table.addRoute(base | (static_cast<std::uint32_t>(i % 4) << 16) |
                           (static_cast<std::uint32_t>(i) << 8),
                       24, 300 + i);
    }

    std::vector<std::uint32_t> addresses(static_cast<std::size_t>(queries));
    for (auto& a : addresses) {
        // Mostly traffic inside the 10.x aggregates, some background misses
        // caught by the default route.
        const auto raw = static_cast<std::uint32_t>(rng.nextU64());
        a = rng.uniform() < 0.85
                ? ((static_cast<std::uint32_t>(10 + (raw % 8)) << 24) | (raw & 0xFFFFFFu))
                : raw;
    }

    auto cache = std::make_shared<serve::CharacterizationCache>();
    const auto base = baseOptions();

    double t0 = now();
    serve::LpmService cold(table, base, cache);
    r.coldBuildSeconds = now() - t0;
    r.cacheMisses = cache->stats().misses;

    t0 = now();
    serve::LpmService warm(table, base, cache);
    r.warmBuildSeconds = now() - t0;

    t0 = now();
    auto served = warm.lookupBatch(addresses);
    r.serveSeconds = now() - t0;
    r.warmQps = static_cast<double>(queries) / r.serveSeconds;
    for (const auto& h : served) r.hits += h.has_value();

    // Uncached: every query pays one real word transient before it can be
    // priced. Rate = transients per second the solver actually delivered
    // during cold characterization.
    const double perSim = r.coldBuildSeconds / static_cast<double>(r.cacheMisses);
    r.uncachedQps = 1.0 / perSim;
    r.speedup = r.warmQps / r.uncachedQps;

    // Bit-identity: cached hardware vs a fresh uncached evaluation, cold vs
    // warm engines, jobs=1 vs default-jobs serving, and every answer against
    // the app's linear reference.
    auto shard = base.shard;
    shard.wordBits = apps::RoutingTable::kWordBits;
    const auto uncached = evaluateBank(base.tech, shard,
                                       static_cast<std::int64_t>(table.size()),
                                       base.workload);
    bool ok = sameHardware(warm.engine().hardware(), uncached);
    ok = ok && sameHardware(cold.engine().hardware(), warm.engine().hardware());
    const auto serial = cold.lookupBatch(addresses, 1);
    ok = ok && serial == served;
    for (std::size_t i = 0; i < addresses.size() && ok; ++i)
        ok = served[i] == table.lookupLinear(addresses[i]);
    r.identical = ok;
    return r;
}

WorkloadResult runTlb(std::int64_t queries, std::uint64_t seed) {
    WorkloadResult r;
    r.name = "tlb";
    r.queries = queries;

    // Same population as the F14 case study: hot gigapage, 2M heaps, 4K pages.
    apps::Tlb tlb(64);
    tlb.insert(0, apps::PageSize::Page1G, 0);
    for (int i = 0; i < 8; ++i)
        tlb.insert((1ULL << 18) + (static_cast<std::uint64_t>(i) << 9),
                   apps::PageSize::Page2M, 1000 + i);
    for (int i = 0; i < 40; ++i)
        tlb.insert((1ULL << 20) + static_cast<std::uint64_t>(i), apps::PageSize::Page4K,
                   2000 + i);

    numeric::Rng rng(seed);
    std::vector<std::uint64_t> vaddrs(static_cast<std::size_t>(queries));
    for (auto& vaddr : vaddrs) {
        const double u = rng.uniform();
        if (u < 0.5) {
            vaddr = rng.nextU64() & ((1ULL << 30) - 1);
        } else if (u < 0.8) {
            vaddr = ((1ULL << 18) << 12) + (rng.nextU64() & ((8ULL << 21) - 1));
        } else {
            vaddr = ((1ULL << 20) + static_cast<std::uint64_t>(rng.uniformInt(0, 59)))
                    << 12;
        }
    }

    auto cache = std::make_shared<serve::CharacterizationCache>();
    const auto base = baseOptions();

    double t0 = now();
    serve::TlbService cold(tlb, base, cache);
    r.coldBuildSeconds = now() - t0;
    r.cacheMisses = cache->stats().misses;

    t0 = now();
    serve::TlbService warm(tlb, base, cache);
    r.warmBuildSeconds = now() - t0;

    t0 = now();
    auto served = warm.translateBatch(vaddrs);
    r.serveSeconds = now() - t0;
    r.warmQps = static_cast<double>(queries) / r.serveSeconds;
    for (const auto& h : served) r.hits += h.has_value();

    const double perSim = r.coldBuildSeconds / static_cast<double>(r.cacheMisses);
    r.uncachedQps = 1.0 / perSim;
    r.speedup = r.warmQps / r.uncachedQps;

    bool ok = sameHardware(cold.engine().hardware(), warm.engine().hardware());
    const auto serial = cold.translateBatch(vaddrs, 1);
    ok = ok && serial == served;
    for (std::size_t i = 0; i < vaddrs.size() && ok; ++i)
        ok = served[i] == tlb.translate(vaddrs[i]);
    r.identical = ok;
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    bench::initObs(argc, argv);

    std::int64_t queries = 1'000'000;
    std::int64_t storeRecords = 20'000;
    std::uint64_t seed = 42;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--queries" && i + 1 < argc) {
            queries = std::atoll(argv[++i]);
        } else if (arg == "--store-records" && i + 1 < argc) {
            storeRecords = std::atoll(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_serve [--queries N] [--store-records N] "
                         "[--seed S] [--json FILE]\n");
            return 2;
        }
    }
    if (queries < 1 || storeRecords < 1) {
        std::fprintf(stderr, "error: --queries/--store-records must be >= 1\n");
        return 2;
    }

    bench::banner("SERVE", "characterize-then-serve query engine",
                  "warm-cache serving beats uncached pay-per-query simulation by >=10x "
                  "with bit-identical results (cached vs uncached, cold vs warm, any "
                  "worker count)");

    const std::vector<WorkloadResult> results = {runLpm(queries, seed),
                                                 runTlb(queries, seed)};

    core::Table t({"workload", "queries", "hit rate", "warm qps", "uncached qps",
                   "speedup", "identical"});
    bool allIdentical = true;
    bool allFast = true;
    for (const auto& r : results) {
        t.addRow({r.name, std::to_string(r.queries),
                  core::numFormat(100.0 * static_cast<double>(r.hits) /
                                      static_cast<double>(r.queries),
                                  1) + "%",
                  core::engFormat(r.warmQps, "q/s"), core::engFormat(r.uncachedQps, "q/s"),
                  core::numFormat(r.speedup, 1) + "x", r.identical ? "yes" : "NO"});
        allIdentical = allIdentical && r.identical;
        allFast = allFast && r.speedup >= 10.0;
    }
    std::printf("%s\n", t.toAligned().c_str());

    const StoreBenchResult sb = runStoreBench(storeRecords, seed);
    core::Table st({"store path", "records", "rate", "bytes", "round trip"});
    st.addRow({"append+flush", std::to_string(sb.appendedRecords),
               core::engFormat(sb.appendPerSec, "rec/s"), std::to_string(sb.logBytes),
               sb.roundTripIdentical ? "yes" : "NO"});
    st.addRow({"load", std::to_string(sb.appendedRecords),
               core::engFormat(sb.loadPerSec, "rec/s"), std::to_string(sb.logBytes),
               ""});
    st.addRow({"compact", std::to_string(sb.uniqueRecords),
               core::engFormat(static_cast<double>(sb.uniqueRecords) /
                                   sb.compactSeconds,
                               "rec/s"),
               std::to_string(sb.compactedBytes), ""});
    std::printf("%s\n", st.toAligned().c_str());

    if (!jsonPath.empty()) writeJson(jsonPath, results, sb);

    if (!sb.roundTripIdentical) {
        std::fprintf(stderr, "FAIL: store round trip diverged from written records\n");
        return 1;
    }
    if (!allIdentical) {
        std::fprintf(stderr, "FAIL: served results diverged from the reference path\n");
        return 1;
    }
    if (!allFast) {
        std::fprintf(stderr, "FAIL: warm-cache speedup below 10x\n");
        return 1;
    }
    return 0;
}
