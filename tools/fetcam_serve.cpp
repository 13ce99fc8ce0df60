// fetcam_serve — TCAM query-service front-end on the characterize-then-serve
// engine: build a workload (LPM routing / TLB translation / packet
// classification), characterize its electrical cost once through the shared
// cache, then stream batched queries and report functional + electrical
// accounting.
//
// Usage:
//   fetcam_serve [--workload lpm|tlb|classifier|all] [--entries N]
//                [--queries N] [--rows N] [--batch N] [--jobs N] [--seed S]
//                [--backend scalar|bitplane|checked]
//                [--store DIR] [--store-readonly] [--compact]
//                [--json FILE] [--trace FILE]
//   fetcam_serve --listen PORT [--host H] [--port-file FILE] [--word-bits N]
//                [--entries N] [--rows N] [--seed S] [--deadline-ms D]
//                [--coalesce-us U] [--max-pending N] [--max-connections N]
//                [--read-timeout S] [--drain-timeout S] [--max-batch N]
//                [--bits-per-cell N]
//                [--store DIR] [--persist-entries] [--compact] [--json FILE]
//
// --listen turns the tool into a network front-end: a net::Server speaking
// the CRC-framed fetcam protocol on PORT (0 = ephemeral; --port-file
// publishes the bound port for scripts), serving a deterministic entry set
// generated from --seed/--entries/--word-bits (the same set fetcam_load
// regenerates client-side). SIGTERM/SIGINT begin a graceful drain: stop
// accepting, answer everything in flight, flush the store, then emit the
// final report and exit 0. --coalesce-us U (default 500) is the longest a
// query waits for batchmates from other requests; a request arriving U µs or
// more after the previous one runs at once instead of waiting.
//
// --backend selects the functional match implementation: the bit-plane
// engine (64 entries per machine word, default), the scalar row-scan oracle,
// or checked mode (both run per query, divergence is a typed CorruptData
// error). All three serve bit-identical results.
//
// Similarity frames (protocol v3 nearest-k / threshold queries, driven by
// fetcam_load --similarity) are served from the same snapshot table;
// --bits-per-cell selects the multi-level-cell FeFET model that prices them
// (2 bits/cell = 4 polarization states by default). Functional results never
// depend on it.
//
// --persist-entries (listen mode, requires --store) additionally journals
// every table mutation (protocol Mutate frames) as CRC-framed delta records
// in DIR/table.fcs: a restart replays the deltas and serves the *mutated*
// table bit-identically — the deterministic seed set is only installed when
// no table log was loaded (none existed, or it was unusable). A log that
// loaded with zero records, e.g. one compacted while the table was empty,
// restarts an empty table.
//
// --store DIR backs the characterization cache with a crash-safe on-disk
// record log: the first run pays the solver transients and persists them;
// every later run against the same directory warm-restarts with zero
// characterizations and bit-identical results. --store-readonly loads
// without locking or appending (share a store across readers); --compact
// rewrites the log as a deduplicated snapshot after serving.
//
// The --json report is split into a "deterministic" object (byte-identical
// across cold/warm runs and any --jobs value — CI diffs it) and a
// "volatile" object (wall-clock, cache and store traffic).
//
// Exit codes follow the structured SimError taxonomy (see recover/sim_error).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fetcam.hpp"
#include "device/mlc.hpp"
#include "net/server.hpp"
#include "numeric/parallel.hpp"
#include "obs/obs.hpp"
#include "recover/io_guard.hpp"
#include "recover/sim_error.hpp"
#include "serve/adapters.hpp"
#include "listen_workload.hpp"

using namespace fetcam;

namespace {

double now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Args {
    std::string workload = "all";
    std::int64_t entries = 64;
    std::int64_t queries = 100'000;
    int rows = 16;
    int batch = 4096;
    int jobs = 0;
    std::uint64_t seed = 42;
    serve::MatchBackendKind backend = serve::MatchBackendKind::BitPlane;
    std::string jsonPath;
    std::string tracePath;
    std::string storeDir;
    bool storeReadonly = false;
    bool compact = false;
    bool persistEntries = false;
    // --- network front-end (--listen) ---
    int listenPort = -1;  ///< < 0 = batch mode; >= 0 = listen (0 ephemeral)
    std::string host = "127.0.0.1";
    std::string portFile;
    int wordBits = 32;
    double deadlineMs = 0.0;
    double coalesceUs = 500.0;
    std::int64_t maxPending = 1 << 16;
    int maxConnections = 256;
    int maxBatch = 4096;
    double readTimeout = 5.0;
    double drainTimeout = 5.0;
    int bitsPerCell = 2;  ///< MLC model pricing similarity queries
};

Args parseArgs(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string opt = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                        "fetcam_serve", "missing value after " + opt);
            return argv[i];
        };
        if (opt == "--workload") {
            a.workload = next();
            if (a.workload != "lpm" && a.workload != "tlb" &&
                a.workload != "classifier" && a.workload != "all")
                throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                        "fetcam_serve",
                                        "--workload expects lpm|tlb|classifier|all");
        } else if (opt == "--entries") {
            a.entries = std::atoll(next().c_str());
        } else if (opt == "--queries") {
            a.queries = std::atoll(next().c_str());
        } else if (opt == "--rows") {
            a.rows = std::atoi(next().c_str());
        } else if (opt == "--batch") {
            a.batch = std::atoi(next().c_str());
        } else if (opt == "--seed") {
            a.seed = static_cast<std::uint64_t>(std::atoll(next().c_str()));
        } else if (opt == "--jobs") {
            try {
                a.jobs = numeric::parseJobs(next());
            } catch (const std::invalid_argument& e) {
                throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                        "fetcam_serve", e.what());
            }
        } else if (opt == "--backend") {
            a.backend = serve::parseBackendKind(next());
        } else if (opt == "--json") {
            a.jsonPath = next();
        } else if (opt == "--trace") {
            a.tracePath = next();
        } else if (opt == "--store") {
            a.storeDir = next();
        } else if (opt == "--store-readonly") {
            a.storeReadonly = true;
        } else if (opt == "--compact") {
            a.compact = true;
        } else if (opt == "--persist-entries") {
            a.persistEntries = true;
        } else if (opt == "--listen") {
            a.listenPort = std::atoi(next().c_str());
        } else if (opt == "--host") {
            a.host = next();
        } else if (opt == "--port-file") {
            a.portFile = next();
        } else if (opt == "--word-bits") {
            a.wordBits = std::atoi(next().c_str());
        } else if (opt == "--deadline-ms") {
            a.deadlineMs = std::atof(next().c_str());
        } else if (opt == "--coalesce-us") {
            a.coalesceUs = std::atof(next().c_str());
        } else if (opt == "--max-pending") {
            a.maxPending = std::atoll(next().c_str());
        } else if (opt == "--max-connections") {
            a.maxConnections = std::atoi(next().c_str());
        } else if (opt == "--max-batch") {
            a.maxBatch = std::atoi(next().c_str());
        } else if (opt == "--read-timeout") {
            a.readTimeout = std::atof(next().c_str());
        } else if (opt == "--drain-timeout") {
            a.drainTimeout = std::atof(next().c_str());
        } else if (opt == "--bits-per-cell") {
            a.bitsPerCell = std::atoi(next().c_str());
        } else {
            throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_serve",
                                    "unknown option " + opt);
        }
    }
    if (a.entries < 1)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_serve",
                                "--entries must be >= 1");
    if (a.queries < 1)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_serve",
                                "--queries must be >= 1");
    if (a.storeDir.empty() && (a.storeReadonly || a.compact))
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_serve",
                                "--store-readonly/--compact require --store DIR");
    if (a.storeReadonly && a.compact)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_serve",
                                "--compact cannot rewrite a read-only store");
    if (a.persistEntries && (a.storeDir.empty() || a.listenPort < 0))
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_serve",
                                "--persist-entries requires --listen and --store DIR");
    if (a.listenPort >= 0 &&
        (a.wordBits < 1 || a.wordBits > 512 || a.maxBatch < 1 || a.maxPending < 1 ||
         a.coalesceUs < 0.0 || a.readTimeout <= 0.0 || a.drainTimeout <= 0.0))
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_serve",
                                "--listen argument out of range");
    if (a.bitsPerCell < 1 || a.bitsPerCell > device::kMaxMlcBitsPerCell)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_serve",
                                "--bits-per-cell expects 1.." +
                                    std::to_string(device::kMaxMlcBitsPerCell));
    return a;
}

serve::EngineOptions baseOptions(const Args& a) {
    serve::EngineOptions base;
    base.shard.cell = tcam::CellKind::FeFet2;
    base.shard.sense = array::SenseScheme::LowSwing;
    base.shard.rows = a.rows;
    base.batchSize = a.batch;
    base.backend = a.backend;
    return base;
}

struct ServeSummary {
    std::string name;
    std::int64_t queries = 0;
    std::int64_t hits = 0;
    std::int64_t accepted = 0;  ///< batches through engine admission control
    std::int64_t shed = 0;      ///< batches refused by admission control
    std::int64_t deadlineExpired = 0;
    double seconds = 0.0;
    double qps = 0.0;
    double energyPerQuery = 0.0;
    double latency = 0.0;
    std::string report;
};

void printSummary(const ServeSummary& s, const serve::CharacterizationCache& cache) {
    std::printf("--- %s: %lld queries, %lld hits, %s ---\n", s.name.c_str(),
                static_cast<long long>(s.queries), static_cast<long long>(s.hits),
                core::engFormat(s.qps, "q/s").c_str());
    std::printf("%s", s.report.c_str());
    const auto cs = cache.stats();
    std::printf("  cache          %lld entries (%lld hits / %lld misses / %lld bypasses)\n",
                static_cast<long long>(cs.entries), static_cast<long long>(cs.hits),
                static_cast<long long>(cs.misses), static_cast<long long>(cs.bypasses));
    const auto ss = cache.storeStatus();
    if (ss.attached) {
        if (ss.degraded) {
            std::printf("  store          DEGRADED [%s] %s\n",
                        recover::reasonName(ss.errorReason), ss.error.c_str());
        } else {
            std::printf("  store          %lld loaded (%lld salvaged) / %lld appended%s%s\n",
                        static_cast<long long>(ss.load.recordsLoaded),
                        static_cast<long long>(ss.load.recordsSalvaged),
                        static_cast<long long>(ss.appended),
                        ss.readOnly ? ", read-only" : "",
                        ss.load.quarantined ? ", prior log quarantined" : "");
        }
    }
    std::printf("\n");
}

std::string jsonEscape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

ServeSummary summarize(const std::string& name, const serve::QueryEngine& engine,
                       std::int64_t queries, std::int64_t hits, double seconds) {
    ServeSummary s;
    s.name = name;
    s.queries = queries;
    s.hits = hits;
    s.seconds = seconds;
    s.qps = static_cast<double>(queries) / seconds;
    const auto es = engine.stats();
    s.accepted = es.accepted;
    s.shed = es.shed;
    s.deadlineExpired = es.deadlineExpired;
    s.energyPerQuery = engine.energyPerQuery();
    s.latency = engine.queryLatency();
    s.report = engine.report();
    return s;
}

ServeSummary runLpm(const Args& a, const std::shared_ptr<serve::CharacterizationCache>& cache) {
    apps::RoutingTable table;
    numeric::Rng rng(a.seed);
    table.addRoute(0, 0, 1);
    for (std::int64_t i = 1; i < a.entries; ++i) {
        const int len = 8 * rng.uniformInt(1, 3);  // /8, /16 or /24
        const auto addr = static_cast<std::uint32_t>(rng.nextU64());
        const std::uint32_t mask = len == 32 ? ~0u : ~0u << (32 - len);
        table.addRoute(addr & mask, len, static_cast<int>(100 + i));
    }

    std::vector<std::uint32_t> addresses(static_cast<std::size_t>(a.queries));
    for (auto& addr : addresses) addr = static_cast<std::uint32_t>(rng.nextU64());

    serve::LpmService svc(table, baseOptions(a), cache);
    const double t0 = now();
    const auto out = svc.lookupBatch(addresses, a.jobs);
    const double dt = now() - t0;
    std::int64_t hits = 0;
    for (const auto& h : out) hits += h.has_value();
    return summarize("lpm", svc.engine(), a.queries, hits, dt);
}

ServeSummary runTlb(const Args& a, const std::shared_ptr<serve::CharacterizationCache>& cache) {
    apps::Tlb tlb(static_cast<std::size_t>(a.entries));
    numeric::Rng rng(a.seed);
    for (std::int64_t i = 0; i < a.entries; ++i) {
        if (i % 16 == 0) {  // sprinkle 2M superpages among the 4K pages
            tlb.insert(static_cast<std::uint64_t>(i) << 9, apps::PageSize::Page2M,
                       static_cast<std::uint64_t>(5000 + i));
        } else {
            tlb.insert((1ULL << 20) + static_cast<std::uint64_t>(i), apps::PageSize::Page4K,
                       static_cast<std::uint64_t>(1000 + i));
        }
    }

    std::vector<std::uint64_t> vaddrs(static_cast<std::size_t>(a.queries));
    for (auto& vaddr : vaddrs) {
        if (rng.uniform() < 0.8) {  // mostly resident pages
            const auto i = static_cast<std::uint64_t>(
                rng.uniformInt(0, static_cast<int>(a.entries) - 1));
            vaddr = (((1ULL << 20) + i) << 12) + (rng.nextU64() & 0xFFF);
        } else {
            vaddr = rng.nextU64() & ((1ULL << apps::Tlb::kVaBits) - 1);
        }
    }

    serve::TlbService svc(tlb, baseOptions(a), cache);
    const double t0 = now();
    const auto out = svc.translateBatch(vaddrs, a.jobs);
    const double dt = now() - t0;
    std::int64_t hits = 0;
    for (const auto& h : out) hits += h.has_value();
    return summarize("tlb", svc.engine(), a.queries, hits, dt);
}

ServeSummary runClassifier(const Args& a,
                           const std::shared_ptr<serve::CharacterizationCache>& cache) {
    apps::PacketClassifier classifier;
    numeric::Rng rng(a.seed);
    for (std::int64_t i = 0; i < a.entries; ++i) {
        const auto src = static_cast<std::uint32_t>(rng.nextU64());
        apps::RuleBuilder b;
        b.srcPrefix(src & (~0u << 8), 24).protocol(rng.bernoulli(0.5) ? 6 : 17);
        classifier.addRule(b.build(static_cast<int>(i), "rule" + std::to_string(i)));
    }

    const auto& rules = classifier.rules();
    std::vector<apps::PacketHeader> headers(static_cast<std::size_t>(a.queries));
    for (auto& h : headers) {
        h.srcIp = static_cast<std::uint32_t>(rng.nextU64());
        if (rng.uniform() < 0.5 && !rules.empty()) {
            // Steer into a known rule's /24 so a fair share of packets match.
            const auto& w = rules[static_cast<std::size_t>(rng.uniformInt(
                                      0, static_cast<int>(rules.size()) - 1))]
                                .pattern;
            std::uint32_t prefix = 0;
            for (int bit = 0; bit < 24; ++bit)
                prefix = (prefix << 1) |
                         (w[static_cast<std::size_t>(bit)] == tcam::Trit::One ? 1u : 0u);
            h.srcIp = (prefix << 8) | (h.srcIp & 0xFF);
        }
        h.dstIp = static_cast<std::uint32_t>(rng.nextU64());
        h.srcPort = static_cast<std::uint16_t>(rng.nextU64());
        h.dstPort = static_cast<std::uint16_t>(rng.nextU64());
        h.protocol = rng.bernoulli(0.5) ? 6 : 17;
    }

    serve::ClassifierService svc(classifier, baseOptions(a), cache);
    const double t0 = now();
    const auto out = svc.classifyBatch(headers, a.jobs);
    const double dt = now() - t0;
    std::int64_t hits = 0;
    for (const auto& h : out) hits += h.has_value();
    return summarize("classifier", svc.engine(), a.queries, hits, dt);
}

void writeJson(const std::string& path, const std::vector<ServeSummary>& summaries,
               const serve::CharacterizationCache& cache) {
    std::ofstream os(path);
    if (!os)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_serve",
                                "cannot open " + path + " for writing");
    os.precision(17);
    const auto cs = cache.stats();
    const auto ss = cache.storeStatus();
    os << "{\n  \"tool\": \"fetcam_serve\",\n";

    // Everything under "deterministic" is byte-identical for the same
    // arguments regardless of cold/warm cache, store state, or --jobs: the
    // warm-restart CI smoke diffs this object across two runs sharing one
    // store directory.
    os << "  \"deterministic\": {\n    \"workloads\": [\n";
    for (std::size_t i = 0; i < summaries.size(); ++i) {
        const auto& s = summaries[i];
        os << "      {\n";
        os << "        \"name\": \"" << s.name << "\",\n";
        os << "        \"queries\": " << s.queries << ",\n";
        os << "        \"hits\": " << s.hits << ",\n";
        os << "        \"accepted\": " << s.accepted << ",\n";
        os << "        \"shed\": " << s.shed << ",\n";
        os << "        \"deadlineExpired\": " << s.deadlineExpired << ",\n";
        os << "        \"energyPerQueryJ\": " << s.energyPerQuery << ",\n";
        os << "        \"latencyS\": " << s.latency << ",\n";
        os << "        \"report\": \"" << jsonEscape(s.report) << "\"\n";
        os << "      }" << (i + 1 < summaries.size() ? "," : "") << "\n";
    }
    os << "    ]\n  },\n";

    os << "  \"volatile\": {\n    \"workloads\": [\n";
    for (std::size_t i = 0; i < summaries.size(); ++i) {
        const auto& s = summaries[i];
        os << "      {\"name\": \"" << s.name << "\", \"seconds\": " << s.seconds
           << ", \"qps\": " << s.qps << "}" << (i + 1 < summaries.size() ? "," : "")
           << "\n";
    }
    os << "    ],\n";
    os << "    \"cache\": {\"entries\": " << cs.entries << ", \"hits\": " << cs.hits
       << ", \"misses\": " << cs.misses << ", \"bypasses\": " << cs.bypasses
       << ", \"storeHits\": " << cs.storeHits << "},\n";
    os << "    \"store\": {\"attached\": " << (ss.attached ? "true" : "false")
       << ", \"readOnly\": " << (ss.readOnly ? "true" : "false")
       << ", \"degraded\": " << (ss.degraded ? "true" : "false")
       << ", \"loaded\": " << ss.load.recordsLoaded
       << ", \"salvaged\": " << ss.load.recordsSalvaged
       << ", \"appended\": " << ss.appended
       << ", \"quarantined\": " << (ss.load.quarantined ? "true" : "false")
       << ", \"error\": \"" << jsonEscape(ss.error) << "\"}\n";
    os << "  }\n}\n";
}

void writeListenJson(const std::string& path, const net::Server& server,
                     const serve::QueryEngine& engine,
                     const serve::CharacterizationCache& cache) {
    std::ofstream os(path);
    if (!os)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_serve",
                                "cannot open " + path + " for writing");
    os.precision(17);
    const auto es = engine.stats();
    const auto cs = cache.stats();
    const auto ss = cache.storeStatus();
    os << "{\n  \"tool\": \"fetcam_serve\",\n  \"mode\": \"listen\",\n";
    // Deterministic = pure accounting, no wall-clock: CI asserts the
    // invariant queries == hits + misses + shedQueries + expiredQueries and
    // that every protocol error carries a typed code.
    os << "  \"deterministic\": {\n";
    os << "    \"server\": " << server.statsJson() << ",\n";
    os << "    \"engine\": {\"queries\": " << es.queries << ", \"hits\": " << es.hits
       << ", \"batches\": " << es.batches << ", \"accepted\": " << es.accepted
       << ", \"shed\": " << es.shed << ", \"deadlineExpired\": " << es.deadlineExpired
       << "},\n";
    os << "    \"writes\": {\"inserts\": " << es.inserts << ", \"erases\": " << es.erases
       << ", \"energyJ\": " << es.writeEnergy << ", \"latencyS\": " << es.writeLatency
       << ", \"pulsePhases\": " << es.writePulsePhases << "},\n";
    os << "    \"similarity\": {\"queries\": " << es.simQueries
       << ", \"batches\": " << es.simBatches << ", \"rows\": " << es.simRows
       << ", \"energyJ\": " << es.simEnergy << "},\n";
    os << "    \"energyPerQueryJ\": " << engine.energyPerQuery()
       << ",\n    \"latencyS\": " << engine.queryLatency() << "\n  },\n";
    os << "  \"volatile\": {\n";
    for (const auto& [key, name] :
         {std::pair{"queueWait", "serve.admission.queue_wait"},
          std::pair{"loopOversleep", "net.loop.oversleep.seconds"}}) {
        const auto& h = obs::histogram(name);
        os << "    \"" << key << "\": {\"count\": " << h.count() << ", \"meanSeconds\": "
           << (h.count() > 0 ? h.mean() : 0.0)
           << ", \"p50\": " << (h.count() > 0 ? obs::quantile(h, 0.5) : 0.0)
           << ", \"p99\": " << (h.count() > 0 ? obs::quantile(h, 0.99) : 0.0) << "},\n";
    }
    // Why each batch flushed; the four counts sum to deterministic.server.batches.
    const auto flushes = [](const char* reason) {
        return obs::counter(std::string("net.flush.") + reason).value();
    };
    os << "    \"flushes\": {\"full\": " << flushes("full") << ", \"window\": " << flushes("window")
       << ", \"arrival\": " << flushes("arrival") << ", \"drain\": " << flushes("drain")
       << "},\n";
    os << "    \"cache\": {\"entries\": " << cs.entries << ", \"hits\": " << cs.hits
       << ", \"misses\": " << cs.misses << "},\n";
    os << "    \"store\": {\"attached\": " << (ss.attached ? "true" : "false")
       << ", \"degraded\": " << (ss.degraded ? "true" : "false")
       << ", \"loaded\": " << ss.load.recordsLoaded << ", \"appended\": " << ss.appended
       << "},\n";
    const auto tls = engine.tableLogStatus();
    os << "    \"tableLog\": {\"attached\": " << (tls.attached ? "true" : "false")
       << ", \"degraded\": " << (tls.degraded ? "true" : "false")
       << ", \"replayed\": " << engine.restoredMutations()
       << ", \"appended\": " << tls.appended
       << ", \"occupied\": " << engine.occupancy() << "}\n  }\n}\n";
}

int runListen(const Args& a, const std::shared_ptr<serve::CharacterizationCache>& cache) {
    // The queue-wait and loop-oversleep histograms and net.* counters live
    // behind obs::enabled().
    obs::setEnabled(true);

    serve::EngineOptions base = baseOptions(a);
    base.shard.wordBits = a.wordBits;
    base.capacity = a.entries;
    base.simBitsPerCell = a.bitsPerCell;
    if (a.persistEntries) {
        base.persistEntries = true;
        base.store.dir = a.storeDir;
        base.store.readOnly = a.storeReadonly;
    }
    serve::QueryEngine engine(base, cache);
    const auto tls = engine.tableLogStatus();
    if (tls.degraded)
        std::fprintf(stderr,
                     "fetcam_serve: warning: table log unusable, entries memory-only "
                     "[%s] %s\n",
                     recover::reasonName(tls.errorReason), tls.error.c_str());
    if (!tls.attached || tls.degraded || tls.load.startedFresh) {
        const auto entries = tools::makeListenEntries(a.seed, a.entries, a.wordBits);
        for (const auto& word : entries) engine.insert(word);
    } else {
        // Warm restart: the delta log already replayed the mutated table
        // (possibly an empty one); installing the seed set would clobber it.
        std::printf("fetcam_serve: warm table restart — %lld mutations replayed, "
                    "%lld rows occupied\n",
                    static_cast<long long>(engine.restoredMutations()),
                    static_cast<long long>(engine.occupancy()));
    }

    net::ServerOptions opts;
    opts.host = a.host;
    opts.port = a.listenPort;
    opts.maxConnections = a.maxConnections;
    opts.maxBatch = static_cast<std::uint32_t>(a.maxBatch);
    opts.coalesceWindow = a.coalesceUs * 1e-6;
    opts.maxPendingQueries = a.maxPending;
    opts.readTimeout = a.readTimeout;
    opts.defaultDeadline = a.deadlineMs * 1e-3;
    opts.drainTimeout = a.drainTimeout;
    opts.jobs = a.jobs;

    net::Server server(engine, opts);
    server.start();
    net::Server::installStopSignals(server);
    if (!a.portFile.empty()) {
        std::ofstream pf(a.portFile);
        if (!pf)
            throw recover::SimError(recover::SimErrorReason::IoError, "fetcam_serve",
                                    "cannot write port file " + a.portFile);
        pf << server.port() << "\n";
    }
    std::printf("fetcam_serve: listening on %s:%d (%lld entries, %d-bit words)\n",
                a.host.c_str(), server.port(), static_cast<long long>(a.entries),
                a.wordBits);
    std::fflush(stdout);

    server.run();  // returns after the SIGTERM/SIGINT graceful drain

    // Drain contract: the engine answered everything in flight; now make the
    // characterization store and entry delta log durable before reporting.
    cache->flush();
    engine.flushTable();
    if (a.compact && cache->compact())
        std::printf("store compacted: %lld entries snapshotted\n",
                    static_cast<long long>(cache->stats().entries));
    if (a.compact && engine.compactTable())
        std::printf("table log compacted: %lld rows snapshotted\n",
                    static_cast<long long>(engine.occupancy()));

    const auto& st = server.stats();
    std::printf("fetcam_serve: drained%s — %lld conns, %lld requests, %lld queries "
                "(%lld hit / %lld miss / %lld shed / %lld expired), %lld proto errors\n",
                st.drainForced ? " (forced)" : "",
                static_cast<long long>(st.connectionsAccepted),
                static_cast<long long>(st.requests), static_cast<long long>(st.queries),
                static_cast<long long>(st.hits), static_cast<long long>(st.misses),
                static_cast<long long>(st.shedQueries),
                static_cast<long long>(st.expiredQueries),
                static_cast<long long>(st.protoErrors));
    std::printf("%s", engine.report().c_str());

    if (!a.jsonPath.empty()) writeListenJson(a.jsonPath, server, engine, *cache);
    recover::checkStdout("fetcam_serve");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    // A reader (pipe, CI log collector) going away must surface as a typed
    // I/O error through checkStdout, not a silent SIGPIPE death.
    recover::ignoreSigpipe();
    try {
        const Args a = parseArgs(argc, argv);
        if (!a.tracePath.empty()) {
            if (!obs::TraceSink::global().open(a.tracePath))
                std::fprintf(stderr, "warning: cannot open trace file %s\n",
                             a.tracePath.c_str());
            obs::setEnabled(true);
        } else {
            obs::initFromEnv();
        }

        std::shared_ptr<serve::CharacterizationCache> cache;
        if (!a.storeDir.empty()) {
            store::StoreConfig cfg;
            cfg.dir = a.storeDir;
            cfg.readOnly = a.storeReadonly;
            cache = std::make_shared<serve::CharacterizationCache>(cfg);
            const auto ss = cache->storeStatus();
            if (ss.degraded)
                std::fprintf(stderr,
                             "fetcam_serve: warning: store unusable, serving cold "
                             "[%s] %s\n",
                             recover::reasonName(ss.errorReason), ss.error.c_str());
        } else {
            cache = std::make_shared<serve::CharacterizationCache>();
        }
        if (a.listenPort >= 0) return runListen(a, cache);
        std::vector<ServeSummary> summaries;
        if (a.workload == "lpm" || a.workload == "all") {
            summaries.push_back(runLpm(a, cache));
            printSummary(summaries.back(), *cache);
        }
        if (a.workload == "tlb" || a.workload == "all") {
            summaries.push_back(runTlb(a, cache));
            printSummary(summaries.back(), *cache);
        }
        if (a.workload == "classifier" || a.workload == "all") {
            summaries.push_back(runClassifier(a, cache));
            printSummary(summaries.back(), *cache);
        }
        cache->flush();  // everything characterized this run is now durable
        if (a.compact && cache->compact())
            std::printf("store compacted: %lld entries snapshotted\n",
                        static_cast<long long>(cache->stats().entries));
        if (!a.jsonPath.empty()) writeJson(a.jsonPath, summaries, *cache);
        recover::checkStdout("fetcam_serve");
        return 0;
    } catch (const recover::SimError& e) {
        std::fprintf(stderr, "fetcam_serve: [%s] %s\n", recover::reasonName(e.reason()),
                     e.what());
        return recover::exitCodeFor(e.reason());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fetcam_serve: %s\n", e.what());
        return 1;
    }
}
