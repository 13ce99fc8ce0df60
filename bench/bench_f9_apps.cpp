// F9 — Application case studies: IP longest-prefix match, packet
// classification, and Hamming-nearest associative search, priced per query
// on the CMOS baseline vs the plain and energy-aware FeFET designs.
#include "bench_util.hpp"
#include "serve/query_engine.hpp"

using namespace fetcam;

namespace {

struct AppSpec {
    const char* name;
    int wordBits;
    int rows;
    array::WorkloadProfile workload;
};

void priceApp(const AppSpec& app, core::Table& t) {
    const auto tech = device::TechCard::cmos45();
    const core::DesignPoint designs[] = {
        core::standardDesigns(app.wordBits, app.rows)[0],  // CMOS-16T
        core::standardDesigns(app.wordBits, app.rows)[2],  // FeFET-2T
        core::proposedDesign(app.wordBits, app.rows),      // EA-FeFET full stack
    };
    double cmos = 0.0;
    for (const auto& d : designs) {
        auto cfg = d.config;
        // Approximate search needs full-word evaluation on every row.
        if (app.workload.matchRowFraction == 0.0) cfg.selectivePrecharge = false;
        const auto m = evaluateArray(tech, cfg, app.workload);
        const double e = m.perSearch.total();
        if (cmos == 0.0) cmos = e;
        t.addRow({app.name, d.name, core::engFormat(e, "J"),
                  core::engFormat(m.searchDelay, "s"),
                  core::engFormat(m.throughput, "q/s"),
                  core::numFormat(cmos / e, 2) + "x"});
    }
}

}  // namespace

int main(int argc, char** argv) {
    bench::initObs(argc, argv);
    bench::banner("F9", "application-level energy/throughput",
                  "per-query savings carry through at the application level: the proposed "
                  "design cuts lookup energy ~4x vs CMOS across routing, classification "
                  "and associative search");

    // Functional sanity for each application before pricing it.
    const auto table = apps::syntheticRoutingTable(128, 1);
    const auto queries = apps::syntheticQueryStream(table, 400, 0.8, 2);
    std::size_t hits = 0;
    for (const auto q : queries) {
        if (table.lookup(q) != table.lookupLinear(q)) {
            std::printf("LPM functional mismatch!\n");
            return 1;
        }
        hits += table.lookup(q).has_value();
    }

    const auto cls = apps::syntheticClassifier(128, 3);
    const auto pkts = apps::syntheticPackets(cls, 400, 0.7, 4);
    std::size_t clsHits = 0;
    for (const auto& p : pkts) clsHits += cls.classify(p).has_value();

    const auto rows = apps::randomHypervectors(128, 64, 5);
    serve::EngineOptions options;
    options.shard = core::proposedDesign(64, 128).config;
    options.shard.selectivePrecharge = false;  // approximate search evaluates every row
    options.capacity = 128;
    serve::QueryEngine mem(options);
    for (const auto& r : rows) mem.insert(r);
    numeric::Rng rng(6);
    int recalled = 0;
    for (int i = 0; i < 100; ++i) {
        const int target = rng.uniformInt(0, 127);
        const auto noisy = apps::perturbWord(rows[static_cast<std::size_t>(target)], 5, rng);
        recalled += mem.nearestK(noisy, 1)[0].row == target;
    }
    std::printf("functional: LPM hit rate %.1f%%, classifier hit rate %.1f%%, "
                "associative recall %d%%\n\n",
                100.0 * hits / queries.size(), 100.0 * clsHits / pkts.size(), recalled);

    core::Table t({"application", "design", "E/query", "latency", "throughput",
                   "vs CMOS"});
    priceApp({"IP LPM (128x32)", 32, 128,
              {.matchRowFraction = 0.85 / 128.0, .bitMatchProbability = 0.5}}, t);
    priceApp({"classifier (128x104)", 104, 128,
              {.matchRowFraction = 0.7 / 128.0, .bitMatchProbability = 0.6}}, t);
    priceApp({"assoc. search (128x64)", 64, 128,
              {.matchRowFraction = 0.0, .bitMatchProbability = 0.5}}, t);
    std::printf("%s", t.toAligned().c_str());
    return 0;
}
