#include "array/energy_model.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <optional>
#include <utility>

#include "numeric/parallel.hpp"
#include "numeric/stats.hpp"
#include "obs/obs.hpp"
#include "recover/fault_injection.hpp"
#include "recover/sim_error.hpp"

namespace fetcam::array {

tcam::TernaryWord calibrationWord(int bits, std::uint64_t seed) {
    numeric::Rng rng(seed);
    tcam::TernaryWord w(static_cast<std::size_t>(bits));
    for (int i = 0; i < bits; ++i)
        w[static_cast<std::size_t>(i)] = rng.bernoulli(0.5) ? tcam::Trit::One : tcam::Trit::Zero;
    return w;
}

tcam::TernaryWord keyWithMismatches(const tcam::TernaryWord& stored, int mismatches) {
    tcam::TernaryWord key(stored.size());
    for (std::size_t i = 0; i < stored.size(); ++i)
        key[i] = stored[i] == tcam::Trit::X ? tcam::Trit::Zero : stored[i];
    int left = mismatches;
    for (std::size_t i = 0; i < stored.size() && left > 0; ++i) {
        if (stored[i] == tcam::Trit::X) continue;
        key[i] = stored[i] == tcam::Trit::One ? tcam::Trit::Zero : tcam::Trit::One;
        --left;
    }
    if (left > 0)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "keyWithMismatches",
                                "not enough definite positions");
    return key;
}

namespace {

/// Stage widths implied by the configuration.
std::vector<int> stageWidths(const ArrayConfig& cfg) {
    if (cfg.selectivePrecharge) {
        const int pre = std::min(cfg.prefilterBits, cfg.wordBits - 1);
        return {pre, cfg.wordBits - pre};
    }
    if (cfg.mlSegments > 1) {
        const int k = std::min(cfg.mlSegments, cfg.wordBits);
        std::vector<int> w(static_cast<std::size_t>(k), cfg.wordBits / k);
        for (int i = 0; i < cfg.wordBits % k; ++i) ++w[static_cast<std::size_t>(i)];
        return w;
    }
    return {cfg.wordBits};
}

struct StageSims {
    WordSimResult match;
    WordSimResult mismatch;
};

/// Run the calibration sims at the same time, one work item per sim. Every
/// item runs whatever another raised and lands in its own slot, so neither
/// the results nor a fault plan's counters depend on the schedule. A plan
/// installed on the caller reaches each item as a fresh clone (solve
/// ordinals restart per sim) whose counters are absorbed in index order.
/// The error rethrown is the lowest index's, the one a serial loop raises.
std::vector<WordSimResult> runCalibration(const std::vector<WordSimOptions>& runs,
                                          const WordSimFn& sim) {
    const std::size_t n = runs.size();
    std::vector<WordSimResult> results(n);
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::pair<long long, long long>> faultCounts(n);
    recover::FaultPlan* parentPlan = recover::FaultPlan::active();
    const int callerDepth = obs::spanDepth();

    numeric::parallelFor(-1, static_cast<int>(n), [&](int i) {
        const auto k = static_cast<std::size_t>(i);
        // A worker's span depth starts at 0: nest the sim under the caller.
        int& depth = obs::spanDepth();
        const int savedDepth = depth;
        depth = callerDepth;
        std::optional<recover::FaultPlan> plan;
        std::optional<recover::ScopedFaultPlan> guard;
        if (parentPlan) {
            plan.emplace(parentPlan->specs());
            guard.emplace(*plan);
        }
        try {
            results[k] = sim ? sim(runs[k]) : simulateWordSearch(runs[k]);
        } catch (...) {
            errors[k] = std::current_exception();
        }
        if (plan) faultCounts[k] = {plan->solvesSeen(), plan->injectionCount()};
        depth = savedDepth;
    });

    if (parentPlan)
        for (const auto& [solves, injections] : faultCounts)
            parentPlan->absorb(solves, injections);
    for (const auto& e : errors)
        if (e) std::rethrow_exception(e);
    return results;
}

}  // namespace

ArrayMetrics evaluateArray(const device::TechCard& tech, const ArrayConfig& config,
                           const WorkloadProfile& workload, const WordSimFn& sim) {
    if (config.wordBits < 1 || config.rows < 1)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "evaluateArray",
                                "bad geometry");

    const auto widths = stageWidths(config);

    // --- calibration circuit simulations: for each distinct stage width,
    // an exact match then a worst-case single mismatch ---
    std::map<int, std::size_t> matchRun;  // width -> index of its match sim
    std::vector<WordSimOptions> runs;
    for (int w : widths) {
        if (!matchRun.emplace(w, runs.size()).second) continue;
        WordSimOptions o;
        o.tech = tech;
        o.config = config;
        o.config.wordBits = w;
        o.stored = calibrationWord(w);
        o.key = o.stored;  // exact match
        runs.push_back(o);
        o.key = keyWithMismatches(o.stored, 1);  // worst-case single mismatch
        runs.push_back(std::move(o));
    }
    auto results = runCalibration(runs, sim);
    std::map<int, StageSims> sims;
    for (const auto& [w, k] : matchRun)
        sims.emplace(w, StageSims{std::move(results[k]), std::move(results[k + 1])});

    ArrayMetrics m;
    const auto& first = sims.at(widths.front());
    m.matchWord = first.match;
    m.mismatchWord = first.mismatch;
    // NAND chains invert the ML polarity, so report the magnitude.
    m.senseMarginV = std::abs(first.match.mlAtSense - first.mismatch.mlAtSense);
    m.functional = true;
    for (const auto& [w, s] : sims)
        m.functional = m.functional && s.match.correct() && s.mismatch.correct();

    // --- analytic scaling to the array ---
    const double rows = config.rows;
    const double nMatchRows = workload.matchRowFraction * rows;
    const double q = workload.bitMatchProbability;

    double delay = 0.0;
    int cumBits = 0;
    for (std::size_t j = 0; j < widths.size(); ++j) {
        const int w = widths[j];
        const auto& s = sims.at(w);

        // Probability a random (ultimately non-matching) row is still alive
        // entering stage j, i.e. it matched every earlier stage.
        const double aliveProb = std::pow(q, static_cast<double>(cumBits));
        const double activeNonMatch = (rows - nMatchRows) * aliveProb;
        // Of the active non-matching rows, those matching this stage too.
        const double stageMatchFrac = std::pow(q, static_cast<double>(w));
        const double nStageMatch = activeNonMatch * stageMatchFrac;
        const double nStageMismatch = activeNonMatch - nStageMatch;

        // Searchlines of every stage broadcast across all rows each search.
        m.perSearch.sl += rows * s.match.energySl;
        // Matchline + sense energy only for rows whose stage evaluates.
        const double eMlMatch = s.match.energyMl;
        const double eMlMismatch = s.mismatch.energyMl;
        m.perSearch.ml += (nMatchRows + nStageMatch) * eMlMatch + nStageMismatch * eMlMismatch;
        m.perSearch.sa += (nMatchRows + nStageMatch) * s.match.energySa +
                          nStageMismatch * s.mismatch.energySa;
        m.perSearch.staticRail +=
            (nMatchRows + nStageMatch) * s.match.energyStatic +
            nStageMismatch * s.mismatch.energyStatic;

        // Stage decision latency: the sense event when one occurred (mismatch
        // discharge for NOR, match discharge for NAND), else the full
        // evaluation window.
        const double event = s.mismatch.detectDelay.value_or(
            s.match.detectDelay.value_or(config.timing.tEval));
        const double stageDelay = event + config.timing.tSetup;
        delay += stageDelay;
        cumBits += w;
    }

    m.searchDelay = delay;
    m.cycleTime = static_cast<double>(widths.size()) * config.timing.cycle();
    m.throughput = 1.0 / m.cycleTime;
    const double cells = rows * config.wordBits;
    m.energyPerBitFj = m.perSearch.total() / cells * 1e15;
    // Cell area plus ~15% periphery (drivers, sense amps, prechargers).
    m.areaF2 = cells * tcam::cellAreaF2(config.cell, tech) * 1.15;
    return m;
}

}  // namespace fetcam::array
