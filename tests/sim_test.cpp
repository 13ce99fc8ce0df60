// fetcam::sim contract tests — the similarity-search subsystem end to end.
//
// Four layers:
//   1. Device/encoding — the MLC ladder (device::mlcLevels) and the cells a
//      word packs into (tcam::mlcCellsPerWord).
//   2. Characterization — sim::characterizeMlc scaling relations (margin
//      divides by N-1, delays multiply by N-1), the distance-tolerant
//      strobe equivalence t_row > strobe  <=>  d <= maxDistance, and
//      run-to-run determinism.
//   3. Engine — nearestK / thresholdMatch / similarityBatch bit-identical
//      to sim::naiveSimilarity across jobs, cold/warm cache,
//      pricing knobs, and a warm restart from the on-disk store.
//   4. Net — Similarity codec round-trip + malformed rejection, end-to-end
//      client/server with the accounting invariant, overload shedding,
//      and the reply-size bound (a request whose worst-case reply exceeds
//      the frame limit is refused before any scan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "device/mlc.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "numeric/stats.hpp"
#include "recover/sim_error.hpp"
#include "serve/query_engine.hpp"
#include "sim/mlc_model.hpp"
#include "sim/similarity.hpp"
#include "tcam/mlc_encode.hpp"
#include "tcam/ternary.hpp"

using namespace fetcam;

namespace {

serve::EngineOptions simOptions() {
    serve::EngineOptions o;
    o.shard.cell = tcam::CellKind::FeFet2;
    o.shard.sense = array::SenseScheme::LowSwing;
    o.shard.wordBits = 8;
    o.shard.rows = 4;
    o.capacity = 48;
    return o;
}

tcam::TernaryWord randomWord(numeric::Rng& rng, int bits, double xDensity) {
    tcam::TernaryWord w(static_cast<std::size_t>(bits));
    for (int b = 0; b < bits; ++b)
        w[static_cast<std::size_t>(b)] =
            rng.uniform() < xDensity
                ? tcam::Trit::X
                : (rng.bernoulli(0.5) ? tcam::Trit::One : tcam::Trit::Zero);
    return w;
}

/// A deterministic table with wildcard rows and empty slots, plus the keys
/// (one of them wildcarded) the engine tests all share.
struct Fixture {
    std::vector<std::optional<tcam::TernaryWord>> rows;
    std::vector<tcam::TernaryWord> keys;
};

Fixture makeFixture(int bits, std::size_t capacity) {
    Fixture f;
    auto rng = numeric::Rng::forStream(77, 0);
    f.rows.resize(capacity);
    for (std::size_t r = 0; r + 8 < capacity; ++r) {
        if (r % 7 == 3) continue;  // empty slot
        f.rows[r] = randomWord(rng, bits, r % 3 == 0 ? 0.25 : 0.0);
    }
    for (int q = 0; q < 24; ++q)
        f.keys.push_back(randomWord(rng, bits, q == 5 ? 0.3 : 0.0));
    return f;
}

void loadFixture(serve::QueryEngine& engine, const Fixture& f) {
    for (std::size_t r = 0; r < f.rows.size(); ++r)
        if (f.rows[r]) engine.insertAt(static_cast<std::int64_t>(r), *f.rows[r]);
}

std::vector<sim::SimilarityHits> naiveAll(const Fixture& f,
                                          const sim::SimilarityOptions& options) {
    std::vector<sim::SimilarityHits> out;
    for (const auto& k : f.keys) out.push_back(sim::naiveSimilarity(f.rows, k, options));
    return out;
}

/// Engine + Server on a background thread (the net_test idiom), entries
/// 0..entries-1 stored as exact 8-bit words.
/// Engine + Server on a background thread; entries 0..entries-1 stored as
/// exact 8-bit words (capacity grows past 48 rows when entries need it).
class SimServerHarness {
public:
    explicit SimServerHarness(net::ServerOptions options = {}, int entries = 4)
        : engine_([entries] {
              auto o = simOptions();
              o.capacity = std::max<std::int64_t>(o.capacity, entries);
              return o;
          }()) {
        for (int i = 0; i < entries; ++i)
            engine_.insert(tcam::TernaryWord::fromBits(static_cast<std::uint64_t>(i), 8));
        options.port = 0;
        server_ = std::make_unique<net::Server>(engine_, options);
        server_->start();
        thread_ = std::thread([this] {
            try {
                server_->run();
            } catch (const recover::SimError& e) {
                runError_ = e.what();
            }
        });
    }

    ~SimServerHarness() { stop(); }

    void stop() {
        if (thread_.joinable()) {
            server_->requestStop();
            thread_.join();
        }
        EXPECT_EQ(runError_, "");
    }

    int port() const { return server_->port(); }
    const net::ServerStats& stats() const { return server_->stats(); }
    serve::QueryEngine& engine() { return engine_; }

private:
    serve::QueryEngine engine_;
    std::unique_ptr<net::Server> server_;
    std::thread thread_;
    std::string runError_;
};

net::SimilarityBody makeSimRequest(std::uint64_t id, sim::SimilarityKind kind,
                                   std::uint32_t param,
                                   std::initializer_list<int> values) {
    net::SimilarityBody s;
    s.requestId = id;
    s.kind = kind;
    s.param = param;
    s.maxResults = 8;
    for (const int v : values)
        s.keys.push_back(tcam::TernaryWord::fromBits(static_cast<std::uint64_t>(v), 8));
    return s;
}

}  // namespace

// --- device ladder + word encoding ----------------------------------------

TEST(MlcDevice, LadderEvenlySpacedAndValidated) {
    device::FeFetParams p;
    const auto lv = device::mlcLevels(p, 4);
    EXPECT_EQ(lv.statesPerCell, 4);
    ASSERT_EQ(lv.pnorm.size(), 4u);
    ASSERT_EQ(lv.vt.size(), 4u);
    EXPECT_DOUBLE_EQ(lv.pnorm.front(), -1.0);
    EXPECT_DOUBLE_EQ(lv.pnorm.back(), 1.0);
    EXPECT_DOUBLE_EQ(lv.windowV, 2.0 * p.deltaVt);
    EXPECT_DOUBLE_EQ(lv.vtStepV, lv.windowV / 3.0);
    for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_NEAR(lv.pnorm[i] - lv.pnorm[i - 1], 2.0 / 3.0, 1e-12);
        // Level index up = pnorm up = VT down, each step exactly vtStepV.
        EXPECT_NEAR(lv.vt[i - 1] - lv.vt[i], lv.vtStepV, 1e-12);
    }
    EXPECT_DOUBLE_EQ(lv.vt.front(), p.vtHigh());
    EXPECT_DOUBLE_EQ(lv.vt.back(), p.vtLow());

    EXPECT_THROW(device::mlcLevels(p, 1), recover::SimError);
    EXPECT_THROW(device::mlcLevels(p, 17), recover::SimError);
    device::FeFetParams flat = p;
    flat.deltaVt = 0.0;  // no memory window, nothing to subdivide
    EXPECT_THROW(device::mlcLevels(flat, 2), recover::SimError);
}

TEST(MlcEncode, CellsPerWordRoundsUpAndRejectsBadArguments) {
    EXPECT_EQ(tcam::mlcCellsPerWord(8, 1), 8);
    EXPECT_EQ(tcam::mlcCellsPerWord(8, 2), 4);
    EXPECT_EQ(tcam::mlcCellsPerWord(7, 2), 4);  // last cell partially used
    EXPECT_EQ(tcam::mlcCellsPerWord(8, 3), 3);
    EXPECT_THROW(tcam::mlcCellsPerWord(0, 2), recover::SimError);
    EXPECT_THROW(tcam::mlcCellsPerWord(8, 0), recover::SimError);
}

// --- characterization ------------------------------------------------------

TEST(MlcModel, ScalingRelationsAndDeterminism) {
    const auto base = simOptions();
    sim::MlcOptions m1;
    m1.bitsPerCell = 1;
    m1.workload = base.workload;
    sim::MlcOptions m2 = m1;
    m2.bitsPerCell = 2;

    const auto c1 = sim::characterizeMlc(base.tech, base.shard, m1);
    const auto c2 = sim::characterizeMlc(base.tech, base.shard, m2);

    EXPECT_EQ(c1.statesPerCell, 2);
    EXPECT_EQ(c2.statesPerCell, 4);
    EXPECT_EQ(c1.cellsPerWord, 8);
    EXPECT_EQ(c2.cellsPerWord, 4);
    EXPECT_TRUE(c1.functional);
    EXPECT_TRUE(c2.functional);

    // Binary cells: the ladder is the binary pair, nothing changes.
    EXPECT_DOUBLE_EQ(c1.senseMarginV, c1.binarySenseMarginV);
    EXPECT_DOUBLE_EQ(c1.energyPerBitFj, c1.binaryEnergyPerBitFj);

    // Both characterizations start from the same deterministic binary
    // calibration, and the MLC ladder divides the margin by N-1 while
    // stretching the unit discharge and detect latency by N-1.
    EXPECT_DOUBLE_EQ(c2.binarySenseMarginV, c1.binarySenseMarginV);
    EXPECT_DOUBLE_EQ(c2.senseMarginV, c2.binarySenseMarginV / 3.0);
    EXPECT_DOUBLE_EQ(c2.tauUnitSeconds, 3.0 * c1.tauUnitSeconds);
    EXPECT_DOUBLE_EQ(c2.searchDelay, 3.0 * c1.searchDelay);
    EXPECT_DOUBLE_EQ(c2.vtStepV, c2.windowV / 3.0);

    // Fewer driven cells per word -> lower search energy, never free.
    EXPECT_LT(c2.energyPerSearchJ, c1.energyPerSearchJ);
    EXPECT_GT(c2.energyPerSearchJ, 0.0);

    // Same inputs, fresh solver: bit-identical characterization.
    const auto again = sim::characterizeMlc(base.tech, base.shard, m2);
    EXPECT_EQ(again.senseMarginV, c2.senseMarginV);
    EXPECT_EQ(again.tauUnitSeconds, c2.tauUnitSeconds);
    EXPECT_EQ(again.energyPerSearchJ, c2.energyPerSearchJ);
    EXPECT_EQ(again.functional, c2.functional);
}

TEST(MlcModel, RejectsNonFefetAndBadLadder) {
    const auto base = simOptions();
    sim::MlcOptions m;
    m.workload = base.workload;

    auto cmos = base.shard;
    cmos.cell = tcam::CellKind::Cmos16T;
    EXPECT_THROW(sim::characterizeMlc(base.tech, cmos, m), recover::SimError);

    sim::MlcOptions bad = m;
    bad.bitsPerCell = 0;
    EXPECT_THROW(sim::characterizeMlc(base.tech, base.shard, bad), recover::SimError);
    bad.bitsPerCell = device::kMaxMlcBitsPerCell + 1;
    EXPECT_THROW(sim::characterizeMlc(base.tech, base.shard, bad), recover::SimError);
}

TEST(MlcModel, StrobeSelectsExactlyTheToleratedDistances) {
    const double tau = 2e-9;
    const std::vector<std::size_t> d = {0, 1, 2, 3, 5, 9, sim::kEmptyRowDistance};
    const auto times = sim::dischargeTimes(d, tau);
    ASSERT_EQ(times.size(), d.size());
    EXPECT_TRUE(std::isinf(times[0]));     // exact match never discharges
    EXPECT_DOUBLE_EQ(times.back(), 0.0);   // empty row: held low
    EXPECT_DOUBLE_EQ(times[1], tau);
    EXPECT_DOUBLE_EQ(times[2], tau / 2.0);

    // Sampling the matchline at strobeFor(tau, D) accepts a row iff its
    // distance is within D — the analog threshold-match primitive.
    for (std::size_t maxDistance = 0; maxDistance <= 10; ++maxDistance) {
        const double strobe = sim::strobeFor(tau, maxDistance);
        EXPECT_GT(strobe, 0.0);
        for (std::size_t i = 0; i < d.size(); ++i) {
            const bool accepted = times[i] > strobe;
            const bool wanted = d[i] != sim::kEmptyRowDistance && d[i] <= maxDistance;
            EXPECT_EQ(accepted, wanted)
                << "distance " << d[i] << " at maxDistance " << maxDistance;
        }
    }
    EXPECT_THROW(sim::strobeFor(0.0, 1), recover::SimError);
    EXPECT_THROW(sim::strobeFor(-1e-9, 1), recover::SimError);
}

// --- selection primitives --------------------------------------------------

TEST(Similarity, OptionValidation) {
    sim::SimilarityOptions o;
    EXPECT_NO_THROW(sim::validateSimilarityOptions(o));
    o.kind = static_cast<sim::SimilarityKind>(0);
    EXPECT_THROW(sim::validateSimilarityOptions(o), recover::SimError);
    o = {};
    o.k = 0;
    EXPECT_THROW(sim::validateSimilarityOptions(o), recover::SimError);
    o = {};
    o.maxResults = 0;
    EXPECT_THROW(sim::validateSimilarityOptions(o), recover::SimError);
    o = {};
    o.k = 65;  // k beyond maxResults could never be answered fully
    EXPECT_THROW(sim::validateSimilarityOptions(o), recover::SimError);
}

TEST(Similarity, TopSelectorOrderIndependentAndBounded) {
    sim::SimilarityOptions o;
    o.kind = sim::SimilarityKind::NearestK;
    o.k = 3;
    o.maxResults = 3;

    const std::vector<std::pair<std::int64_t, std::size_t>> offers = {
        {9, 4}, {2, 1}, {7, 1}, {0, 6}, {5, 0}, {3, 1}, {8, 2}};
    sim::TopSelector forward(o), backward(o);
    for (const auto& [row, dist] : offers) forward.consider(row, dist);
    for (auto it = offers.rbegin(); it != offers.rend(); ++it)
        backward.consider(it->first, it->second);

    const auto a = forward.take();
    const auto b = backward.take();
    EXPECT_EQ(a, b);  // arrival order never shows in the answer
    ASSERT_EQ(a.size(), 3u);
    // Best-first by (distance, row): ties at distance 1 keep lowest rows.
    EXPECT_EQ(a[0], (sim::SimilarityHit{5, 0}));
    EXPECT_EQ(a[1], (sim::SimilarityHit{2, 1}));
    EXPECT_EQ(a[2], (sim::SimilarityHit{3, 1}));
}

TEST(Similarity, NaiveOracleSkipsEmptyAndAppliesThreshold) {
    std::vector<std::optional<tcam::TernaryWord>> rows(5);
    rows[0] = tcam::TernaryWord::fromBits(0b0000, 4);
    rows[2] = tcam::TernaryWord::fromBits(0b0011, 4);
    rows[4] = tcam::TernaryWord::fromBits(0b1111, 4);
    const auto key = tcam::TernaryWord::fromBits(0b0001, 4);

    sim::SimilarityOptions nearest;
    nearest.kind = sim::SimilarityKind::NearestK;
    nearest.k = 2;
    const auto nk = sim::naiveSimilarity(rows, key, nearest);
    ASSERT_EQ(nk.size(), 2u);
    EXPECT_EQ(nk[0], (sim::SimilarityHit{0, 1}));  // d=1, lowest row wins the tie
    EXPECT_EQ(nk[1], (sim::SimilarityHit{2, 1}));

    sim::SimilarityOptions within;
    within.kind = sim::SimilarityKind::Threshold;
    within.maxDistance = 1;
    const auto th = sim::naiveSimilarity(rows, key, within);
    ASSERT_EQ(th.size(), 2u);  // row 4 is at d=3, rows 1/3 are empty
    EXPECT_EQ(th[0].row, 0);
    EXPECT_EQ(th[1].row, 2);
}

// --- engine ----------------------------------------------------------------

TEST(SimEngine, BitIdenticalAcrossBackendsJobsAndWarmCache) {
    const auto base = simOptions();
    const auto f = makeFixture(static_cast<int>(base.shard.wordBits), base.capacity);

    sim::SimilarityOptions nearest;
    nearest.kind = sim::SimilarityKind::NearestK;
    nearest.k = 5;
    nearest.maxResults = 5;
    sim::SimilarityOptions within;
    within.kind = sim::SimilarityKind::Threshold;
    within.maxDistance = 2;

    const auto nearestOracle = naiveAll(f, nearest);
    const auto withinOracle = naiveAll(f, within);

    serve::QueryEngine engine(base);
    loadFixture(engine, f);
    for (const int jobs : {1, 5}) {
        const auto nk = engine.similarityBatch(f.keys, nearest, jobs);
        const auto th = engine.similarityBatch(f.keys, within, jobs);
        EXPECT_EQ(nk.hits, nearestOracle) << "jobs " << jobs;
        EXPECT_EQ(th.hits, withinOracle) << "jobs " << jobs;
    }
    // Warm cache (second pass reuses the characterized pricing) and the
    // single-key conveniences agree with the batched path.
    const auto again = engine.similarityBatch(f.keys, nearest, 1);
    EXPECT_EQ(again.hits, nearestOracle);
    EXPECT_EQ(engine.nearestK(f.keys[0], nearest.k), nearestOracle[0]);
    EXPECT_EQ(engine.thresholdMatch(f.keys[0], within.maxDistance), withinOracle[0]);
}

TEST(SimEngine, PricingKnobNeverChangesAnswers) {
    const auto base = simOptions();
    const auto f = makeFixture(static_cast<int>(base.shard.wordBits), base.capacity);
    sim::SimilarityOptions nearest;
    nearest.kind = sim::SimilarityKind::NearestK;
    nearest.k = 3;

    auto dense = base;
    dense.simBitsPerCell = 4;
    serve::QueryEngine binaryPriced(base);   // simBitsPerCell = 2 default
    serve::QueryEngine densePriced(dense);
    loadFixture(binaryPriced, f);
    loadFixture(densePriced, f);

    const auto a = binaryPriced.similarityBatch(f.keys, nearest, 1);
    const auto b = densePriced.similarityBatch(f.keys, nearest, 1);
    EXPECT_EQ(a.hits, b.hits);  // functional answers are pricing-independent
    EXPECT_GT(a.energy, 0.0);
    EXPECT_GT(b.energy, 0.0);
    EXPECT_NE(a.energy, b.energy);  // ...but the MLC ladder changes the bill
    EXPECT_EQ(binaryPriced.simCost().bitsPerCell, 2);
    EXPECT_EQ(densePriced.simCost().bitsPerCell, 4);

    const auto stats = binaryPriced.stats();
    EXPECT_EQ(stats.simBatches, 1);
    EXPECT_EQ(stats.simQueries, static_cast<std::int64_t>(f.keys.size()));
    EXPECT_EQ(stats.simRows,
              [&] {
                  std::int64_t rows = 0;
                  for (const auto& h : a.hits) rows += static_cast<std::int64_t>(h.size());
                  return rows;
              }());
}

TEST(SimEngine, RejectsBadQueriesWithTypedErrors) {
    serve::QueryEngine engine(simOptions());
    engine.insert(tcam::TernaryWord::fromBits(1, 8));

    sim::SimilarityOptions bad;
    bad.k = 0;
    EXPECT_THROW(engine.similarityBatch({tcam::TernaryWord::fromBits(0, 8)}, bad, 1),
                 recover::SimError);
    // Width mismatch is a query error, not a crash.
    EXPECT_THROW(engine.nearestK(tcam::TernaryWord::fromBits(0, 4), 1), recover::SimError);

    // Non-FeFET geometry serves exact match fine but has no MLC similarity
    // story: construction succeeds, the first similarity query throws.
    auto cmos = simOptions();
    cmos.shard.cell = tcam::CellKind::Cmos16T;
    serve::QueryEngine cmosEngine(cmos);
    cmosEngine.insert(tcam::TernaryWord::fromBits(1, 8));
    EXPECT_THROW(cmosEngine.nearestK(tcam::TernaryWord::fromBits(0, 8), 1),
                 recover::SimError);
}

TEST(SimEngineStore, WarmRestartBitIdenticalSimilarity) {
    namespace fs = std::filesystem;
    const std::string dir = (fs::temp_directory_path() / "fetcam_sim_test_store").string();
    fs::remove_all(dir);

    auto options = simOptions();
    options.store.dir = dir;
    const auto f = makeFixture(static_cast<int>(options.shard.wordBits), options.capacity);

    sim::SimilarityOptions nearest;
    nearest.kind = sim::SimilarityKind::NearestK;
    nearest.k = 4;
    sim::SimilarityOptions within;
    within.kind = sim::SimilarityKind::Threshold;
    within.maxDistance = 3;

    serve::SimilarityBatchResult coldNearest, coldWithin;
    sim::MlcCharacterization coldCost;
    {
        serve::QueryEngine cold(options);
        ASSERT_FALSE(cold.storeStatus().degraded);
        loadFixture(cold, f);
        coldNearest = cold.similarityBatch(f.keys, nearest, 3);
        coldWithin = cold.similarityBatch(f.keys, within, 3);
        coldCost = cold.simCost();
        EXPECT_GT(cold.cache()->stats().misses, 0);
    }  // teardown flushes the store

    serve::QueryEngine warm(options);
    ASSERT_FALSE(warm.storeStatus().degraded);
    loadFixture(warm, f);
    const auto warmNearest = warm.similarityBatch(f.keys, nearest, 3);
    const auto warmWithin = warm.similarityBatch(f.keys, within, 3);
    // Replayed from disk: zero solver transients, answers and pricing
    // bit-identical to the cold run.
    EXPECT_EQ(warm.cache()->stats().misses, 0);
    EXPECT_GT(warm.cache()->stats().storeHits, 0);
    EXPECT_EQ(warmNearest.hits, coldNearest.hits);
    EXPECT_EQ(warmWithin.hits, coldWithin.hits);
    EXPECT_EQ(warmNearest.energy, coldNearest.energy);
    EXPECT_EQ(warmNearest.latency, coldNearest.latency);
    const auto warmCost = warm.simCost();
    EXPECT_EQ(warmCost.senseMarginV, coldCost.senseMarginV);
    EXPECT_EQ(warmCost.tauUnitSeconds, coldCost.tauUnitSeconds);
    EXPECT_EQ(warmCost.energyPerSearchJ, coldCost.energyPerSearchJ);

    fs::remove_all(dir);
}

// --- net: codec ------------------------------------------------------------

TEST(SimProtocol, SimilarityRoundTrip) {
    auto req = makeSimRequest(42, sim::SimilarityKind::Threshold, 3, {1, 2, 250});
    req.keys[1][2] = tcam::Trit::X;  // wildcard keys survive the wire
    const auto body = net::encodeSimilarity(req);
    std::string err;
    const auto back = net::decodeSimilarity(body, 8, 64, &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->requestId, 42u);
    EXPECT_EQ(back->kind, sim::SimilarityKind::Threshold);
    EXPECT_EQ(back->param, 3u);
    EXPECT_EQ(back->maxResults, 8u);
    ASSERT_EQ(back->keys.size(), 3u);
    EXPECT_EQ(back->keys[1][2], tcam::Trit::X);
    EXPECT_EQ(back->keys, req.keys);

    net::SimilarityReplyBody reply;
    reply.requestId = 42;
    reply.admission = static_cast<std::uint8_t>(serve::BatchAdmission::Accepted);
    reply.hits.resize(3);
    reply.hits[0] = {{5, 0}, {1, 2}};
    // hits[1] stays empty — nothing within the threshold
    reply.hits[2] = {{7, 1}};
    const auto rbody = net::encodeSimilarityReply(reply);
    const auto rback = net::decodeSimilarityReply(rbody, &err);
    ASSERT_TRUE(rback.has_value()) << err;
    EXPECT_EQ(rback->requestId, 42u);
    EXPECT_EQ(rback->admission, reply.admission);
    EXPECT_EQ(rback->hits, reply.hits);
}

TEST(SimProtocol, MalformedSimilarityRejected) {
    const auto req = makeSimRequest(7, sim::SimilarityKind::NearestK, 2, {1, 2});
    const auto body = net::encodeSimilarity(req);
    std::string err;

    // Truncation anywhere must fail loudly, never half-parse.
    EXPECT_FALSE(net::decodeSimilarity(body.substr(0, body.size() - 1), 8, 64, &err));
    EXPECT_FALSE(net::decodeSimilarity("", 8, 64, &err));
    // Width policing happens at decode, against the server's word size.
    EXPECT_FALSE(net::decodeSimilarity(body, 16, 64, &err));
    // Batch bound: two keys against a 1-key ceiling.
    EXPECT_FALSE(net::decodeSimilarity(body, 8, 1, &err));
    // Trit bytes outside {0,1,2}.
    auto corrupt = body;
    corrupt[corrupt.size() - 1] = '\x7f';
    EXPECT_FALSE(net::decodeSimilarity(corrupt, 8, 64, &err));
    EXPECT_FALSE(err.empty());

    net::SimilarityReplyBody reply;
    reply.requestId = 7;
    reply.hits.resize(1);
    reply.hits[0] = {{3, 1}};
    const auto rbody = net::encodeSimilarityReply(reply);
    EXPECT_FALSE(net::decodeSimilarityReply(rbody.substr(0, rbody.size() - 2), &err));
    // A key count the body cannot hold is refused before anything is sized
    // from it.
    std::string huge = rbody.substr(0, 9);
    huge.append("\xff\xff\xff\xff", 4);
    EXPECT_FALSE(net::decodeSimilarityReply(huge, &err));
}

// --- net: end to end -------------------------------------------------------

TEST(SimNet, EndToEndSimilarityMatchesOracle) {
    SimServerHarness h;
    net::Client client;
    client.connect("127.0.0.1", h.port());
    EXPECT_EQ(client.hello().version, net::kProtocolVersion);

    // The harness table as the oracle sees it: rows 0..3 hold words 0..3.
    std::vector<std::optional<tcam::TernaryWord>> rows(4);
    for (std::uint64_t i = 0; i < 4; ++i) rows[i] = tcam::TernaryWord::fromBits(i, 8);

    const auto nearest = makeSimRequest(1, sim::SimilarityKind::NearestK, 2, {0, 7});
    const auto nres = client.similarity(nearest);
    ASSERT_TRUE(nres.simReply.has_value()) << nres.message;
    EXPECT_EQ(nres.simReply->requestId, 1u);
    EXPECT_EQ(nres.simReply->admission,
              static_cast<std::uint8_t>(serve::BatchAdmission::Accepted));
    ASSERT_EQ(nres.simReply->hits.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_EQ(nres.simReply->hits[i],
                  sim::naiveSimilarity(rows, nearest.keys[i], nearest.toOptions()));

    const auto within = makeSimRequest(2, sim::SimilarityKind::Threshold, 1, {0});
    const auto tres = client.similarity(within);
    ASSERT_TRUE(tres.simReply.has_value()) << tres.message;
    ASSERT_EQ(tres.simReply->hits.size(), 1u);
    EXPECT_EQ(tres.simReply->hits[0],
              sim::naiveSimilarity(rows, within.keys[0], within.toOptions()));

    client.close();
    h.stop();

    // Accounting invariant: every similarity key is either served by the
    // engine or counted shed — nothing vanishes.
    const auto& s = h.stats();
    EXPECT_EQ(s.simRequests, 2);
    EXPECT_EQ(s.simQueries, 3);
    EXPECT_EQ(s.simShed, 0);
    EXPECT_EQ(s.simQueries - s.simShed, h.engine().stats().simQueries);
    std::int64_t rowsReturned = 0;
    for (const auto& hl : nres.simReply->hits)
        rowsReturned += static_cast<std::int64_t>(hl.size());
    for (const auto& hl : tres.simReply->hits)
        rowsReturned += static_cast<std::int64_t>(hl.size());
    EXPECT_EQ(s.simRows, rowsReturned);
}

TEST(SimNet, OverloadShedsSimilarityTyped) {
    net::ServerOptions opts;
    opts.maxPendingQueries = 1;
    SimServerHarness h(opts);
    net::Client client;
    client.connect("127.0.0.1", h.port());

    // Fill the pending budget with an exact-match query, then hit the
    // similarity path while the server is saturated: both frames go in one
    // write, so one wake reads them and the filler is still pending when the
    // similarity frame is parsed. The whole request is shed with a typed
    // reply and empty per-key hit lists.
    net::QueryBatchBody filler;
    filler.requestId = 8;
    filler.keys.push_back(tcam::TernaryWord::fromBits(1, 8));
    ASSERT_TRUE(client.sendRaw(
        net::encodeFrame(net::MsgType::QueryBatch, net::encodeQueryBatch(filler)) +
        net::encodeFrame(net::MsgType::Similarity,
                         net::encodeSimilarity(
                             makeSimRequest(9, sim::SimilarityKind::NearestK, 1, {0, 1})))));

    // The similarity frame is answered as it is parsed, the filler when the
    // pass ends.
    const auto res = client.readFrame(5.0);
    ASSERT_TRUE(res.simReply.has_value()) << res.message;
    EXPECT_EQ(res.simReply->requestId, 9u);
    EXPECT_EQ(res.simReply->admission,
              static_cast<std::uint8_t>(serve::BatchAdmission::Shed));
    for (const auto& hl : res.simReply->hits) EXPECT_TRUE(hl.empty());

    // Drain the filler's (admitted) reply so the connection closes cleanly.
    const auto fillerReply = client.readFrame(5.0);
    EXPECT_TRUE(fillerReply.ok);

    client.close();
    h.stop();
    EXPECT_EQ(h.stats().simShed, 2);
    EXPECT_EQ(h.engine().stats().simQueries, 0);  // shed keys never reach the engine
}

TEST(SimNet, OversizedSimilarityReplyRefusedBeforeScan) {
    // 64 stored rows, so nearest-64 fills every hit list: a reply costs
    // 13 + keys * (4 + 12 * 64) bytes against the 1 MiB default frame limit.
    SimServerHarness h({}, 64);
    const std::size_t perKey = 4 + 12 * 64;
    const std::size_t fits = (net::kDefaultMaxFrameBytes - 13) / perKey;  // 1358 keys
    auto nearest64 = [](std::uint64_t id, std::size_t keys) {
        net::SimilarityBody body;
        body.requestId = id;
        body.kind = sim::SimilarityKind::NearestK;
        body.param = 64;
        body.maxResults = 64;
        for (std::size_t i = 0; i < keys; ++i)
            body.keys.push_back(tcam::TernaryWord::fromBits(i % 256, 8));
        return body;
    };

    net::Client neighbour;
    neighbour.connect("127.0.0.1", h.port());
    net::Client client;
    client.connect("127.0.0.1", h.port());

    // Just under the bound: served whole, every key with 64 hits.
    const auto under = client.similarity(nearest64(1, fits));
    ASSERT_TRUE(under.ok) << under.message;
    ASSERT_TRUE(under.simReply.has_value());
    ASSERT_EQ(under.simReply->hits.size(), fits);
    EXPECT_EQ(under.simReply->hits.back().size(), 64u);

    // ~1400 keys would need a ~1.08 MB reply: refused with a typed BadBody
    // instead of a reply the client cannot read.
    const auto over = client.similarity(nearest64(2, 1400));
    EXPECT_FALSE(over.ok);
    EXPECT_EQ(over.error, net::ProtoError::BadBody) << over.message;

    // Only that connection dies; the neighbour is still served.
    const auto after =
        neighbour.similarity(makeSimRequest(3, sim::SimilarityKind::NearestK, 1, {5}));
    ASSERT_TRUE(after.ok) << after.message;
    ASSERT_EQ(after.simReply->hits.size(), 1u);
    EXPECT_EQ(after.simReply->hits[0].front().row, 5);

    neighbour.close();
    h.stop();
    EXPECT_EQ(h.stats().errorCounts[static_cast<std::size_t>(net::ProtoError::BadBody)], 1);
    EXPECT_EQ(h.stats().simRequests, 2);
    // The refused request never reached the engine.
    EXPECT_EQ(h.engine().stats().simQueries, static_cast<std::int64_t>(fits) + 1);
}
