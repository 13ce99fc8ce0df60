// Parallel sweep engine tests: parallelFor semantics, and the determinism
// contract of the sweeps built on it — Monte Carlo with jobs=N must be
// bit-for-bit identical to jobs=1 (including failure accounting under an
// installed FaultPlan) — and batched engine search must validate every key
// before it fans out.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>
#include <vector>

#include "array/montecarlo.hpp"
#include "numeric/parallel.hpp"
#include "recover/fault_injection.hpp"
#include "recover/sim_error.hpp"
#include "serve/query_engine.hpp"

using namespace fetcam;

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    for (const int jobs : {1, 2, 4, 7}) {
        const int count = 103;
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
        numeric::parallelFor(jobs, count, [&](int i) {
            hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, ZeroAndNegativeCountsAreNoops) {
    int calls = 0;
    numeric::parallelFor(4, 0, [&](int) { ++calls; });
    numeric::parallelFor(4, -3, [&](int) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, RethrowsLowestFailingIndex) {
    for (const int jobs : {1, 3, 8}) {
        try {
            numeric::parallelFor(jobs, 64, [&](int i) {
                if (i == 11 || i == 42) throw std::runtime_error("idx " + std::to_string(i));
            });
            FAIL() << "expected runtime_error (jobs=" << jobs << ")";
        } catch (const std::runtime_error& e) {
            // Same failure a sequential loop would have surfaced first.
            EXPECT_STREQ(e.what(), "idx 11");
        }
    }
}

TEST(ParallelFor, NestedCallsRunInline) {
    std::vector<std::atomic<int>> hits(16 * 8);
    numeric::parallelFor(4, 16, [&](int outer) {
        // The inner call must not spawn a team inside a worker; it runs
        // inline in index order on the calling worker.
        numeric::parallelFor(4, 8, [&](int inner) {
            hits[static_cast<std::size_t>(outer * 8 + inner)].fetch_add(1);
        });
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ResolveJobsSemantics) {
    const int saved = numeric::defaultJobs();
    numeric::setDefaultJobs(3);
    EXPECT_EQ(numeric::resolveJobs(0), 3);
    EXPECT_EQ(numeric::resolveJobs(5), 5);
    EXPECT_EQ(numeric::resolveJobs(-1), numeric::hardwareConcurrency());
    numeric::setDefaultJobs(saved);
    EXPECT_GE(numeric::hardwareConcurrency(), 1);
}

TEST(ParallelFor, ParseJobsSharedSemantics) {
    // The one --jobs parser every CLI/bench shares.
    EXPECT_EQ(numeric::parseJobs("4"), 4);
    EXPECT_EQ(numeric::parseJobs("1"), 1);
    // 0 and negatives mean "all hardware threads".
    EXPECT_EQ(numeric::parseJobs("0"), numeric::hardwareConcurrency());
    EXPECT_EQ(numeric::parseJobs("-2"), numeric::hardwareConcurrency());
    // Oversubscription clamps to the sanity ceiling instead of spawning an
    // absurd team.
    EXPECT_EQ(numeric::parseJobs("99999"), numeric::kMaxJobs);
    // Non-integers are rejected outright, not silently truncated the way a
    // bare atoi would ("4k" -> 4).
    EXPECT_THROW(numeric::parseJobs("abc"), std::invalid_argument);
    EXPECT_THROW(numeric::parseJobs("4k"), std::invalid_argument);
    EXPECT_THROW(numeric::parseJobs("1e9"), std::invalid_argument);
    EXPECT_THROW(numeric::parseJobs(""), std::invalid_argument);
    EXPECT_THROW(numeric::parseJobs("2.5"), std::invalid_argument);
}

namespace {

array::MonteCarloSpec mcSpec(int trials = 6) {
    array::MonteCarloSpec spec;
    spec.config.cell = tcam::CellKind::FeFet2;
    spec.config.wordBits = 4;
    spec.trials = trials;
    spec.seed = 21;
    spec.sigmaVt = 0.04;
    spec.sigmaState = 0.08;
    return spec;
}

void expectBitIdentical(const array::MonteCarloResult& a,
                        const array::MonteCarloResult& b) {
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.completedTrials, b.completedTrials);
    EXPECT_EQ(a.matchErrors, b.matchErrors);
    EXPECT_EQ(a.mismatchErrors, b.mismatchErrors);
    EXPECT_EQ(a.failedTrials, b.failedTrials);
    EXPECT_EQ(a.failureReasons, b.failureReasons);
    // RunningStats are accumulated in trial order after the join, so every
    // derived moment must match exactly, not approximately.
    EXPECT_EQ(a.mlMatch.count(), b.mlMatch.count());
    EXPECT_EQ(a.mlMatch.mean(), b.mlMatch.mean());
    EXPECT_EQ(a.mlMatch.stddev(), b.mlMatch.stddev());
    EXPECT_EQ(a.mlMatch.min(), b.mlMatch.min());
    EXPECT_EQ(a.mlMatch.max(), b.mlMatch.max());
    EXPECT_EQ(a.mlMismatch.count(), b.mlMismatch.count());
    EXPECT_EQ(a.mlMismatch.mean(), b.mlMismatch.mean());
    EXPECT_EQ(a.mlMismatch.stddev(), b.mlMismatch.stddev());
    EXPECT_EQ(a.mlMismatch.min(), b.mlMismatch.min());
    EXPECT_EQ(a.mlMismatch.max(), b.mlMismatch.max());
}

}  // namespace

TEST(ParallelMonteCarlo, JobsDoNotChangeResults) {
    auto spec = mcSpec();
    spec.jobs = 1;
    const auto serial = array::runMonteCarlo(spec);
    ASSERT_EQ(serial.completedTrials, spec.trials);
    for (const int jobs : {2, 4, 8}) {
        spec.jobs = jobs;
        expectBitIdentical(serial, array::runMonteCarlo(spec));
    }
}

TEST(ParallelMonteCarlo, FaultPlanAccountingMatchesAcrossJobs) {
    // Singular stamp live for a window of each trial's solves: some trials
    // fail, and both the result's failure accounting and the parent plan's
    // counters must be schedule-independent.
    auto run = [&](int jobs) {
        recover::FaultPlan plan;
        plan.add({recover::FaultKind::SingularStamp, 0,
                  std::numeric_limits<long long>::max(), 1});
        recover::ScopedFaultPlan guard(plan);
        auto spec = mcSpec(4);
        spec.jobs = jobs;
        const auto r = array::runMonteCarlo(spec);
        return std::tuple<array::MonteCarloResult, long long, long long>(
            r, plan.solvesSeen(), plan.injectionCount());
    };
    const auto [r1, solves1, inj1] = run(1);
    EXPECT_EQ(r1.failedTrials, 4);
    EXPECT_GT(inj1, 0);
    for (const int jobs : {2, 4}) {
        const auto [rN, solvesN, injN] = run(jobs);
        expectBitIdentical(r1, rN);
        EXPECT_EQ(solves1, solvesN);
        EXPECT_EQ(inj1, injN);
    }
}

TEST(ParallelMonteCarlo, StrictModeThrowsSameErrorForAnyJobs) {
    recover::FaultPlan plan;
    plan.add({recover::FaultKind::SingularStamp, 0,
              std::numeric_limits<long long>::max(), 1});
    recover::ScopedFaultPlan guard(plan);
    auto spec = mcSpec(4);
    spec.onFailure = recover::FailurePolicy::Strict;
    for (const int jobs : {1, 4}) {
        spec.jobs = jobs;
        try {
            array::runMonteCarlo(spec);
            FAIL() << "expected SimError (jobs=" << jobs << ")";
        } catch (const recover::SimError& e) {
            EXPECT_EQ(e.reason(), recover::SimErrorReason::SingularMatrix);
        }
    }
}

TEST(ParallelSearch, SearchManyValidatesAllKeysUpFront) {
    serve::EngineOptions options;
    options.shard.cell = tcam::CellKind::FeFet2;
    options.shard.wordBits = 8;
    options.shard.rows = 8;
    options.capacity = 8;
    options.batchSize = 2;  // several tiles, so the bad key lands in a late one
    serve::QueryEngine engine(options);
    engine.insert(tcam::TernaryWord::fromString("00000000"));
    const auto before = engine.stats();
    std::vector<tcam::TernaryWord> keys(7, tcam::TernaryWord::fromString("00000000"));
    keys.push_back(tcam::TernaryWord::fromString("00"));
    EXPECT_THROW(engine.searchBatch(keys, /*jobs=*/4), recover::SimError);
    const auto after = engine.stats();  // nothing charged on reject
    EXPECT_EQ(after.queries, before.queries);
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.batches, before.batches);
    EXPECT_EQ(after.searchEnergy, before.searchEnergy);
}
