// Engine microbenchmarks (google-benchmark): how fast the substrate itself
// runs — sparse LU factorization and numeric refactorization on MNA-like
// matrices, triplet vs stamp-map assembly, RC transient stepping, complete
// TCAM word-search simulations, cold QueryEngine construction, and Monte
// Carlo scaling vs --jobs.
//
// `--json <path>` writes the results as google-benchmark JSON (shorthand for
// --benchmark_out=<path> --benchmark_out_format=json); the repo's committed
// BENCH_engine.json tracks these numbers across PRs (see DESIGN.md).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "array/montecarlo.hpp"
#include "bench_util.hpp"
#include "core/fetcam.hpp"
#include "numeric/parallel.hpp"
#include "serve/query_engine.hpp"
#include "spice/workspace.hpp"

// Allocation counter for the steady-state allocation benchmarks: every
// operator new in the binary bumps a relaxed atomic. Counting is always on
// (the overhead is one fetch_add per allocation, irrelevant next to malloc).
namespace {
std::atomic<unsigned long long> gAllocCount{0};
}  // namespace

void* operator new(std::size_t size) {
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
// free() is correct here — the matching operator new above allocates with
// malloc — but GCC can't see the pairing and warns at every delete site.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

using namespace fetcam;

namespace {

// Circuit-shaped test matrix: node i couples to a handful of nearby nodes
// (netlists are ladders/arrays, so MNA matrices are locality-structured with
// modest bandwidth) plus an occasional long-range rail connection. Random
// all-to-all coupling would be a dense-fill-in stress test, not an MNA one.
// With `hub`, node 0 also couples to every third node, the way a matchline
// touches every cell of a word: the shape where the column order decides
// whether L+U stays sparse.
numeric::SparseMatrixCsc mnaLikeMatrix(int n, std::uint64_t seed, bool hub = false) {
    numeric::Rng rng(seed);
    numeric::TripletList t(n, n);
    double hubOff = 0.0;
    for (int i = 0; i < n; ++i) {
        double off = 0.0;
        for (int k = 0; k < 3; ++k) {
            int j = i + rng.uniformInt(-6, 6);
            if (rng.uniform() < 0.02) j = rng.uniformInt(0, n - 1);  // rail
            if (j == i || j < 0 || j >= n) continue;
            const double v = rng.uniform(-1e-3, 1e-3);
            t.add(i, j, v);
            t.add(j, i, v);  // near-symmetric, like nodal conductance stamps
            off += std::abs(v);
        }
        if (hub && i > 0 && i % 3 == 0) {
            const double v = rng.uniform(-1e-3, 1e-3);
            t.add(0, i, v);
            t.add(i, 0, v);
            off += std::abs(v);
            hubOff += std::abs(v);
        }
        t.add(i, i, off + rng.uniform(1e-4, 1e-2));
    }
    if (hub) t.add(0, 0, hubOff);
    return numeric::SparseMatrixCsc::fromTriplets(t);
}

void BM_SparseLuFactorize(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const auto m = mnaLikeMatrix(n, 42);
    std::vector<double> b(static_cast<std::size_t>(n), 1.0);
    for (auto _ : state) {
        numeric::SparseLu lu(m);
        benchmark::DoNotOptimize(lu.solve(b));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparseLuFactorize)->Arg(64)->Arg(256)->Arg(1024);

// Numeric-only refactorization following the cached pattern + pivot order —
// compare against BM_SparseLuFactorize at the same size for the KLU-style
// reuse win (acceptance target: >= 2x at n=1024).
void refactorAndSolve(benchmark::State& state, bool hub) {
    const int n = static_cast<int>(state.range(0));
    const auto m = mnaLikeMatrix(n, 42, hub);
    std::vector<double> b(static_cast<std::size_t>(n), 1.0);
    numeric::SparseLu lu(m);
    std::vector<double> x;
    for (auto _ : state) {
        if (!lu.refactor(m)) {
            state.SkipWithError("refactor reported pivot degradation");
            break;
        }
        lu.solveInto(b, x);
        benchmark::DoNotOptimize(x.data());
    }
    state.counters["lu_nonzeros"] = benchmark::Counter(lu.nonZeros());
    state.SetItemsProcessed(state.iterations());
}

void BM_SparseLuRefactor(benchmark::State& state) { refactorAndSolve(state, false); }
BENCHMARK(BM_SparseLuRefactor)->Arg(64)->Arg(256)->Arg(1024);

// The same on the hub-shaped matrix: the cost a transient step pays per
// Newton iteration on a word's matchline.
void BM_SparseLuRefactorHub(benchmark::State& state) { refactorAndSolve(state, true); }
BENCHMARK(BM_SparseLuRefactorHub)->Arg(64)->Arg(256)->Arg(1024);

void stampLadder(spice::Mna& mna, int nodes) {
    for (spice::NodeId a = 1; a < nodes; ++a) {
        mna.stampConductance(a, a - 1, 1e-3);
        mna.stampConductance(a, spice::kGround, 1e-6);
    }
    mna.stampGminAllNodes(1e-12);
}

// First-assembly path: triplet accumulation + sort + duplicate merge.
void BM_MnaAssemblyTriplet(benchmark::State& state) {
    const int nodes = static_cast<int>(state.range(0));
    spice::Mna mna(nodes, 0);
    for (auto _ : state) {
        mna.beginAssembly(/*allowMapped=*/false);
        stampLadder(mna, nodes);
        mna.endAssembly();
        const auto& m = mna.compile();
        benchmark::DoNotOptimize(m.values().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MnaAssemblyTriplet)->Arg(256)->Arg(1024);

// Steady-state path: stamps replay through the frozen stamp map straight
// into the CSC values.
void BM_MnaAssemblyMapped(benchmark::State& state) {
    const int nodes = static_cast<int>(state.range(0));
    spice::Mna mna(nodes, 0);
    mna.beginAssembly(/*allowMapped=*/false);  // freeze the pattern once
    stampLadder(mna, nodes);
    mna.endAssembly();
    mna.compile();
    for (auto _ : state) {
        mna.beginAssembly(/*allowMapped=*/true);
        stampLadder(mna, nodes);
        if (!mna.endAssembly()) {
            state.SkipWithError("mapped assembly diverged");
            break;
        }
        const auto& m = mna.compile();
        benchmark::DoNotOptimize(m.values().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MnaAssemblyMapped)->Arg(256)->Arg(1024);

void BM_RcTransient(benchmark::State& state) {
    for (auto _ : state) {
        spice::Circuit c;
        const auto vin = c.node("in");
        const auto out = c.node("out");
        c.add<device::VoltageSource>(
            "V1", c, vin, spice::kGround,
            device::SourceWave::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0));
        c.add<device::Resistor>("R1", vin, out, 10e3);
        c.add<device::Capacitor>("C1", out, spice::kGround, 100e-15);
        spice::TransientSpec spec;
        spec.tstop = 8e-9;
        spec.dtMax = 20e-12;
        const auto r = runTransient(c, spec);
        benchmark::DoNotOptimize(r.acceptedSteps);
    }
}
BENCHMARK(BM_RcTransient);

// Steady-state Newton solves through a persistent workspace. The
// allocs_per_solve counter is the workspace-hoisting check: once the pattern
// is frozen and the LU reused, a converged re-solve should allocate nothing
// (0 on the happy path; any regression shows up as a jump here).
void BM_NewtonSteadyState(benchmark::State& state) {
    spice::Circuit c;
    const auto vin = c.node("in");
    const auto out = c.node("out");
    c.add<device::VoltageSource>(
        "V1", c, vin, spice::kGround,
        device::SourceWave::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0));
    c.add<device::Resistor>("R1", vin, out, 10e3);
    c.add<device::Capacitor>("C1", out, spice::kGround, 100e-15);

    std::vector<double> x(static_cast<std::size_t>(c.numUnknowns()), 0.0);
    spice::SimContext ctx;
    ctx.mode = spice::AnalysisMode::Transient;
    ctx.method = spice::IntegrationMethod::BackwardEuler;
    ctx.x = &x;
    ctx.time = 1e-12;
    ctx.dt = 1e-12;
    ctx.gmin = 1e-12;
    ctx.numNodes = c.numNodes();
    for (const auto& dev : c.devices()) dev->beginTransient(ctx);

    spice::SolverWorkspace ws;
    const spice::NewtonOptions opts;
    solveNewton(c, ctx, x, opts, ws);  // pay first assembly + symbolic factor

    unsigned long long allocs = 0;
    long long solves = 0;
    long long refactors = 0;
    for (auto _ : state) {
        const unsigned long long before = gAllocCount.load(std::memory_order_relaxed);
        const auto nr = solveNewton(c, ctx, x, opts, ws);
        benchmark::DoNotOptimize(nr.iterations);
        allocs += gAllocCount.load(std::memory_order_relaxed) - before;
        ++solves;
        refactors += nr.refactorizations;
    }
    state.counters["allocs_per_solve"] =
        benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(solves));
    state.counters["refactors_per_solve"] =
        benchmark::Counter(static_cast<double>(refactors) / static_cast<double>(solves));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NewtonSteadyState);

void BM_WordSearch(benchmark::State& state) {
    const int bits = static_cast<int>(state.range(0));
    array::WordSimOptions o;
    o.config.cell = tcam::CellKind::FeFet2;
    o.config.wordBits = bits;
    o.stored = array::calibrationWord(bits);
    o.key = array::keyWithMismatches(o.stored, 1);
    for (auto _ : state) {
        const auto r = simulateWordSearch(o);
        benchmark::DoNotOptimize(r.energyTotal);
    }
    state.SetItemsProcessed(state.iterations() * bits);
}
BENCHMARK(BM_WordSearch)->Arg(8)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// Cold engine construction at the end-to-end benchmark's geometry (64-bit
// FeFET2 words, low-swing sense, 16-row shards, 65536 entries): a fresh
// in-memory characterization cache, so every iteration pays the match and
// mismatch calibration transients. This is most of e2ebench's setup_s.
// The two transients run on two threads, so the figure is wall time.
void BM_ColdEngineConstruct(benchmark::State& state) {
    serve::EngineOptions o;
    o.shard.cell = tcam::CellKind::FeFet2;
    o.shard.sense = array::SenseScheme::LowSwing;
    o.shard.rows = 16;
    o.shard.wordBits = 64;
    o.capacity = 65536;
    for (auto _ : state) {
        serve::QueryEngine engine(o, std::make_shared<serve::CharacterizationCache>());
        benchmark::DoNotOptimize(engine.energyPerQuery());
    }
}
BENCHMARK(BM_ColdEngineConstruct)->Unit(benchmark::kMillisecond)->UseRealTime();

// Monte Carlo scaling vs worker count (bit-identical results per spec.seed
// regardless of jobs; see parallel_test for the equivalence assertions).
void BM_MonteCarloJobs(benchmark::State& state) {
    array::MonteCarloSpec spec;
    spec.config.cell = tcam::CellKind::FeFet2;
    spec.config.wordBits = 4;
    spec.trials = 8;
    spec.seed = 7;
    spec.jobs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const auto r = array::runMonteCarlo(spec);
        benchmark::DoNotOptimize(r.completedTrials);
    }
    state.SetItemsProcessed(state.iterations() * spec.trials);
}
BENCHMARK(BM_MonteCarloJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PreisachAdvance(benchmark::State& state) {
    device::PreisachBank bank(device::TechCard::cmos45().fefet.ferro);
    double v = 0.0;
    for (auto _ : state) {
        v = v > 0.0 ? -3.0 : 3.0;
        bank.advance(v, 1e-9);
        benchmark::DoNotOptimize(bank.pnorm());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PreisachAdvance);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the shared --trace/--jobs flags (and the
// --json shorthand) are stripped before google-benchmark parses the rest.
int main(int argc, char** argv) {
    fetcam::bench::initObs(argc, argv);

    std::vector<std::string> extra;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            extra.push_back(std::string("--benchmark_out=") + argv[i + 1]);
            extra.push_back("--benchmark_out_format=json");
            for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
            argc -= 2;
            --i;
        }
    }
    std::vector<char*> args(argv, argv + argc);
    for (auto& s : extra) args.push_back(s.data());
    int argCount = static_cast<int>(args.size());
    args.push_back(nullptr);

    benchmark::Initialize(&argCount, args.data());
    if (benchmark::ReportUnrecognizedArguments(argCount, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
