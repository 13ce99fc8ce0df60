// Approximate pattern matcher (hyperdimensional-computing flavour).
//
// Stores random hypervectors in a serve::QueryEngine on an FeFET geometry
// and recovers the nearest entry for noisy queries two ways: the exact
// Hamming ranking nearestK returns, and the analog matchline-discharge model
// over the same distances (the row whose ML falls last wins). Then prices
// the search on hardware.
#include <cstdio>
#include <vector>

#include "core/fetcam.hpp"
#include "serve/query_engine.hpp"

using namespace fetcam;

int main() {
    constexpr std::size_t kBits = 64;
    constexpr int kEntries = 128;
    constexpr int kTrials = 300;

    const auto rows = apps::randomHypervectors(kEntries, kBits, /*seed=*/7);
    serve::EngineOptions options;
    options.shard = core::proposedDesign(static_cast<int>(kBits), kEntries).config;
    options.shard.selectivePrecharge = false;  // every matchline evaluates the full word
    options.capacity = kEntries;
    serve::QueryEngine engine(options);
    for (const auto& r : rows) engine.insert(r);
    const double tauUnit = engine.simCost().tauUnitSeconds;

    numeric::Rng rng(99);
    int recoveredExact = 0, recoveredAnalog = 0, agreements = 0;
    for (int t = 0; t < kTrials; ++t) {
        const auto target = rng.uniformInt(0, kEntries - 1);
        const auto noisy = apps::perturbWord(rows[static_cast<std::size_t>(target)],
                                             /*flips=*/6, rng);

        // Every row, best-first by (distance, row): hits[0] is the exact winner.
        const auto hits = engine.nearestK(noisy, kEntries);
        std::vector<std::size_t> distances;
        for (const auto& h : hits) distances.push_back(h.distance);
        const auto times = sim::dischargeTimes(distances, tauUnit);
        // Winner-take-all on the latest discharge; equal times go to the lowest row.
        std::size_t analog = 0;
        for (std::size_t i = 1; i < hits.size(); ++i)
            if (times[i] > times[analog] ||
                (times[i] == times[analog] && hits[i].row < hits[analog].row))
                analog = i;
        recoveredExact += hits[0].row == target;
        recoveredAnalog += hits[analog].row == target;
        agreements += hits[0].row == hits[analog].row;
    }
    std::printf("associative recall over %d noisy queries (6/%zu bits flipped):\n", kTrials,
                kBits);
    std::printf("  exact Hamming model : %.1f%% recovered\n",
                100.0 * recoveredExact / kTrials);
    std::printf("  analog ML-discharge : %.1f%% recovered (%.1f%% agreement)\n\n",
                100.0 * recoveredAnalog / kTrials, 100.0 * agreements / kTrials);

    // Hardware cost of one associative search on a 128 x 64 FeFET array.
    // Approximate search keeps every matchline evaluating (no early match),
    // so matchRowFraction = 0 is the honest workload.
    const auto tech = device::TechCard::cmos45();
    array::WorkloadProfile wl;
    wl.matchRowFraction = 0.0;
    core::Table out({"design", "E/query", "fJ/bit", "latency"});
    for (const auto& d : core::standardDesigns(static_cast<int>(kBits), kEntries)) {
        if (d.config.selectivePrecharge) continue;  // needs full-word evaluation
        const auto m = evaluateArray(tech, d.config, wl);
        out.addRow({d.name, core::engFormat(m.perSearch.total(), "J"),
                    core::numFormat(m.energyPerBitFj, 2),
                    core::engFormat(m.searchDelay, "s")});
    }
    std::printf("%s", out.toAligned().c_str());
    return 0;
}
