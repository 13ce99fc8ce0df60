// fetcam::serve contract tests.
//
// The two guarantees everything else leans on:
//   1. Bit-identity — the characterization cache must be invisible: cached
//      and uncached evaluations agree to the last bit, and so do cold vs
//      warm engines and jobs=1 vs jobs=N serving.
//   2. Priority — the sharded engine reports the globally lowest matching
//      row, exactly like the two-level hardware priority encoder, and the
//      app services reproduce their reference implementations exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "numeric/stats.hpp"
#include "obs/obs.hpp"
#include "recover/sim_error.hpp"
#include "serve/adapters.hpp"
#include "serve/char_cache.hpp"
#include "serve/query_engine.hpp"

using namespace fetcam;

namespace {

array::ArrayConfig smallConfig(int wordBits = 8, int rows = 4) {
    array::ArrayConfig cfg;
    cfg.cell = tcam::CellKind::FeFet2;
    cfg.sense = array::SenseScheme::LowSwing;
    cfg.wordBits = wordBits;
    cfg.rows = rows;
    return cfg;
}

serve::EngineOptions smallOptions(int wordBits = 8, int rows = 4, std::int64_t capacity = 12) {
    serve::EngineOptions o;
    o.shard = smallConfig(wordBits, rows);
    o.capacity = capacity;
    return o;
}

void expectSameBank(const array::BankMetrics& a, const array::BankMetrics& b) {
    EXPECT_EQ(a.subArrays, b.subArrays);
    EXPECT_EQ(a.rowsPerArray, b.rowsPerArray);
    EXPECT_EQ(a.totalEntries, b.totalEntries);
    // Bitwise: the cached path must reuse the same arithmetic, not merely
    // land close.
    EXPECT_EQ(a.perSearch.ml, b.perSearch.ml);
    EXPECT_EQ(a.perSearch.sl, b.perSearch.sl);
    EXPECT_EQ(a.perSearch.sa, b.perSearch.sa);
    EXPECT_EQ(a.perSearch.staticRail, b.perSearch.staticRail);
    EXPECT_EQ(a.encoderEnergy, b.encoderEnergy);
    EXPECT_EQ(a.searchDelay, b.searchDelay);
    EXPECT_EQ(a.cycleTime, b.cycleTime);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.areaF2, b.areaF2);
    EXPECT_EQ(a.functional, b.functional);
}

}  // namespace

TEST(CharCache, CachedEvaluateBankIsBitIdentical) {
    const auto tech = device::TechCard::cmos45();
    const auto cfg = smallConfig();
    const auto plain = evaluateBank(tech, cfg, 10);

    serve::CharacterizationCache cache;
    const auto cold = evaluateBank(tech, cfg, 10, {}, {}, recover::FailurePolicy::Strict,
                                   cache.provider());
    const auto warm = evaluateBank(tech, cfg, 10, {}, {}, recover::FailurePolicy::Strict,
                                   cache.provider());
    expectSameBank(plain, cold);
    expectSameBank(plain, warm);

    const auto stats = cache.stats();
    EXPECT_GT(stats.misses, 0);
    EXPECT_GT(stats.hits, 0);  // the warm evaluation must not re-simulate
    EXPECT_EQ(stats.entries, stats.misses);
}

TEST(CharCache, KeyDistinguishesElectricalSituations) {
    array::WordSimOptions base;
    base.config = smallConfig();
    base.stored = tcam::TernaryWord::fromString("10101010");
    base.key = tcam::TernaryWord::fromString("10101010");

    const auto k0 = serve::CharacterizationCache::keyOf(base);

    auto vdd = base;
    vdd.tech.vdd *= 0.9;
    EXPECT_NE(serve::CharacterizationCache::keyOf(vdd), k0);

    auto temp = base;
    temp.tech.temperatureK += 50.0;
    EXPECT_NE(serve::CharacterizationCache::keyOf(temp), k0);

    auto mismatch = base;
    mismatch.key = tcam::TernaryWord::fromString("00101010");
    EXPECT_NE(serve::CharacterizationCache::keyOf(mismatch), k0);

    auto wider = base;
    wider.config.wordBits = 16;
    EXPECT_NE(serve::CharacterizationCache::keyOf(wider), k0);

    auto timing = base;
    timing.config.timing.tEval *= 2.0;
    EXPECT_NE(serve::CharacterizationCache::keyOf(timing), k0);

    // Rows are deliberately NOT part of the key: a word sim is one row and
    // the array scaling happens outside the cache.
    auto moreRows = base;
    moreRows.config.rows = 128;
    EXPECT_EQ(serve::CharacterizationCache::keyOf(moreRows), k0);
}

TEST(CharCache, VariationsAndWaveformsBypass) {
    array::WordSimOptions o;
    o.config = smallConfig();
    o.stored = tcam::TernaryWord::fromString("10101010");
    o.key = o.stored;
    EXPECT_TRUE(serve::CharacterizationCache::cacheable(o));

    auto waves = o;
    waves.recordWaveforms = true;
    EXPECT_FALSE(serve::CharacterizationCache::cacheable(waves));

    auto mc = o;
    mc.variations.resize(8);
    EXPECT_FALSE(serve::CharacterizationCache::cacheable(mc));

    serve::CharacterizationCache cache;
    cache.characterize(waves);
    EXPECT_EQ(cache.stats().bypasses, 1);
    EXPECT_EQ(cache.stats().entries, 0);
}

TEST(CharCache, MacroBuildsThroughProvider) {
    // Built through the cache provider, the engine prices the bank exactly
    // as an uncached evaluateBank of the same geometry does.
    auto cache = std::make_shared<serve::CharacterizationCache>();
    const auto options = smallOptions(8, 4, 20);
    const serve::QueryEngine cached(options, cache);
    EXPECT_GT(cache->stats().misses, 0);
    expectSameBank(evaluateBank(options.tech, options.shard, options.capacity), cached.hardware());
}

// The TcamMacro suite holds the single-macro contract — capacity
// provisioning and per-operation energy accounting — as QueryEngine serves it.
TEST(TcamMacro, CapacityRoundsUpToSubArrays) {
    // 10 words at 8 rows per shard provision 2 whole sub-arrays = 16 rows.
    const serve::QueryEngine rounded(smallOptions(8, 8, 10));
    EXPECT_EQ(rounded.capacity(), 16);
    EXPECT_EQ(rounded.shards(), 2);
    EXPECT_EQ(rounded.rowsPerShard(), 8);
    EXPECT_EQ(rounded.hardware().subArrays, 2);
}

TEST(TcamMacro, EnergyAccounting) {
    serve::QueryEngine engine(smallOptions(8, 8, 8));
    engine.insert(tcam::TernaryWord::fromString("00000000"));
    const auto r = engine.searchBatch({tcam::TernaryWord::fromString("00000000"),
                                       tcam::TernaryWord::fromString("11111111")});
    EXPECT_EQ(r.rows, (std::vector<std::int64_t>{0, -1}));

    const auto s = engine.stats();
    const auto write = engine.writeCost();
    EXPECT_EQ(s.inserts, 1);
    EXPECT_EQ(s.queries, 2);
    EXPECT_EQ(s.hits, 1);
    EXPECT_DOUBLE_EQ(s.searchEnergy, 2.0 * engine.energyPerQuery());
    EXPECT_DOUBLE_EQ(r.energy, s.searchEnergy);
    EXPECT_DOUBLE_EQ(s.writeEnergy, write.energy);
    EXPECT_DOUBLE_EQ(s.writeLatency, write.latency);
    EXPECT_GT(s.searchEnergy + s.writeEnergy, 0.0);
    EXPECT_GT(engine.queryLatency(), 0.0);
    EXPECT_GT(write.latency, 0.0);
}

TEST(QueryEngine, GlobalPriorityAcrossShards) {
    // 3 priced shards x 4 rows, all in one storage chunk; chunk edges are
    // churn_test's ChunkLayout.* cases.
    serve::QueryEngine engine(smallOptions());
    ASSERT_EQ(engine.shards(), 3);
    ASSERT_EQ(engine.capacity(), 12);

    const auto word = tcam::TernaryWord::fromString("1100xx00");
    engine.insertAt(9, word);   // shard 2
    engine.insertAt(5, word);   // shard 1
    const auto key = tcam::TernaryWord::fromString("11001100");

    auto r = engine.searchBatch({key});
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0], 5);  // lowest global row wins across shards

    engine.insertAt(2, word);  // shard 0, higher priority still
    r = engine.searchBatch({key});
    EXPECT_EQ(r.rows[0], 2);

    engine.erase(2);
    r = engine.searchBatch({key});
    EXPECT_EQ(r.rows[0], 5);

    // A non-matching key misses everywhere.
    r = engine.searchBatch({tcam::TernaryWord::fromString("00110011")});
    EXPECT_EQ(r.rows[0], -1);
    EXPECT_EQ(r.hits, 0);

    // Every executed query is charged the bank's per-search energy.
    const auto stats = engine.stats();
    EXPECT_EQ(stats.queries, 4);
    EXPECT_DOUBLE_EQ(stats.searchEnergy,
                     static_cast<double>(stats.queries) * engine.energyPerQuery());
}

TEST(QueryEngine, ColdWarmAndJobsAreByteIdentical) {
    auto cache = std::make_shared<serve::CharacterizationCache>();
    const auto options = smallOptions(8, 4, 20);

    serve::QueryEngine cold(options, cache);
    serve::QueryEngine warm(options, cache);
    expectSameBank(cold.hardware(), warm.hardware());

    numeric::Rng rng(7);
    std::vector<tcam::TernaryWord> words;
    for (int i = 0; i < 20; ++i) {
        tcam::TernaryWord w(8);
        for (std::size_t b = 0; b < 8; ++b)
            w[b] = rng.uniform() < 0.25 ? tcam::Trit::X
                                        : (rng.bernoulli(0.5) ? tcam::Trit::One
                                                              : tcam::Trit::Zero);
        words.push_back(w);
        cold.insertAt(i, w);
        warm.insertAt(i, w);
    }
    std::vector<tcam::TernaryWord> keys;
    for (int i = 0; i < 300; ++i)
        keys.push_back(tcam::TernaryWord::fromBits(rng.nextU64() & 0xFF, 8));

    // Batch smaller than the key count so several tiles fan out.
    const auto serial = cold.searchBatch(keys, 1);
    for (const int jobs : {2, 4, 7}) {
        const auto par = warm.searchBatch(keys, jobs);
        EXPECT_EQ(par.rows, serial.rows) << "jobs=" << jobs;
        EXPECT_EQ(par.hits, serial.hits);
        EXPECT_EQ(par.energy, serial.energy);
        EXPECT_EQ(par.latency, serial.latency);
    }

    // After identical query streams the deterministic reports must agree
    // byte for byte (cache/wall-clock stats are deliberately excluded).
    serve::QueryEngine a(options, cache), b(options, cache);
    for (int i = 0; i < 20; ++i) {
        a.insertAt(i, words[static_cast<std::size_t>(i)]);
        b.insertAt(i, words[static_cast<std::size_t>(i)]);
    }
    a.searchBatch(keys, 1);
    b.searchBatch(keys, 5);
    EXPECT_EQ(a.report(), b.report());
}

TEST(QueryEngine, RejectsBadSpecsAndBadKeys) {
    EXPECT_THROW(serve::QueryEngine(smallOptions(8, 4, 0)), recover::SimError);
    EXPECT_THROW(serve::QueryEngine(smallOptions(8, 4, -5)), recover::SimError);
    EXPECT_THROW(serve::QueryEngine(smallOptions(8, 4, serve::QueryEngine::kMaxCapacity + 1)),
                 recover::SimError);
    auto badBatch = smallOptions();
    badBatch.batchSize = 0;
    EXPECT_THROW(serve::QueryEngine{badBatch}, recover::SimError);

    serve::QueryEngine engine(smallOptions());
    EXPECT_THROW(engine.insertAt(-1, tcam::TernaryWord(8)), recover::SimError);
    EXPECT_THROW(engine.insertAt(12, tcam::TernaryWord(8)), recover::SimError);
    EXPECT_THROW(engine.insertAt(0, tcam::TernaryWord(9)), recover::SimError);

    // A bad key anywhere in the batch fails up front: no partial accounting.
    engine.insert(tcam::TernaryWord(8));
    engine.searchBatch({tcam::TernaryWord(8, tcam::Trit::One)});
    const auto before = engine.stats();
    std::vector<tcam::TernaryWord> keys{tcam::TernaryWord(8), tcam::TernaryWord(7)};
    EXPECT_THROW(engine.searchBatch(keys), recover::SimError);
    const auto after = engine.stats();
    EXPECT_EQ(after.queries, before.queries);
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.batches, before.batches);
    EXPECT_EQ(after.searchEnergy, before.searchEnergy);
}

TEST(QueryEngine, InsertFindsFirstFreeRow) {
    serve::QueryEngine engine(smallOptions(8, 4, 4));
    const tcam::TernaryWord w(8, tcam::Trit::X);
    EXPECT_EQ(engine.insert(w), 0);
    EXPECT_EQ(engine.insert(w), 1);
    engine.erase(0);
    EXPECT_EQ(engine.occupancy(), 1);
    EXPECT_EQ(engine.insert(w), 0);
    EXPECT_EQ(engine.insert(w), 2);
    EXPECT_EQ(engine.insert(w), 3);
    EXPECT_THROW(engine.insert(w), std::length_error);
    ASSERT_TRUE(engine.entryAt(2).has_value());
}

TEST(ServeAdapters, LpmMatchesLinearReference) {
    apps::RoutingTable table;
    table.addRoute(0, 0, 1);                      // default
    table.addRoute(0x0A000000, 8, 10);            // 10/8
    table.addRoute(0x0A010000, 16, 20);           // 10.1/16
    table.addRoute(0x0A010200, 24, 30);           // 10.1.2/24
    table.addRoute(0xC0A80000, 16, 40);           // 192.168/16

    serve::EngineOptions base;
    base.shard = smallConfig(32, 4);
    serve::LpmService svc(table, base);

    numeric::Rng rng(11);
    std::vector<std::uint32_t> addresses{0x0A010203, 0x0A010300, 0x0A020000, 0xC0A80101,
                                         0xDEADBEEF};
    for (int i = 0; i < 200; ++i) {
        const auto raw = static_cast<std::uint32_t>(rng.nextU64());
        addresses.push_back(rng.bernoulli(0.7) ? (0x0A000000u | (raw & 0x00FFFFFFu)) : raw);
    }

    const auto got = svc.lookupBatch(addresses);
    ASSERT_EQ(got.size(), addresses.size());
    for (std::size_t i = 0; i < addresses.size(); ++i)
        EXPECT_EQ(got[i], table.lookupLinear(addresses[i])) << "address " << addresses[i];
}

TEST(ServeAdapters, TlbMatchesTranslateReference) {
    apps::Tlb tlb(16);
    tlb.insert(0, apps::PageSize::Page1G, 3);
    tlb.insert(1ULL << 18, apps::PageSize::Page2M, 77);
    for (int i = 0; i < 6; ++i)
        tlb.insert((1ULL << 20) + static_cast<std::uint64_t>(i), apps::PageSize::Page4K,
                   static_cast<std::uint64_t>(100 + i));

    serve::EngineOptions base;
    base.shard = smallConfig(apps::Tlb::kVpnBits, 4);
    serve::TlbService svc(tlb, base);

    numeric::Rng rng(13);
    std::vector<std::uint64_t> vaddrs;
    for (int i = 0; i < 300; ++i) {
        const double u = rng.uniform();
        if (u < 0.4) {
            vaddrs.push_back(rng.nextU64() & ((1ULL << 30) - 1));  // gigapage
        } else if (u < 0.7) {
            vaddrs.push_back((((1ULL << 20) + static_cast<std::uint64_t>(
                                                  rng.uniformInt(0, 9)))
                              << 12) +
                             (rng.nextU64() & 0xFFF));  // 4K pages, some absent
        } else {
            vaddrs.push_back(rng.nextU64() & ((1ULL << apps::Tlb::kVaBits) - 1));
        }
    }

    const auto got = svc.translateBatch(vaddrs);
    ASSERT_EQ(got.size(), vaddrs.size());
    for (std::size_t i = 0; i < vaddrs.size(); ++i)
        EXPECT_EQ(got[i], tlb.translate(vaddrs[i])) << "vaddr " << vaddrs[i];
}

TEST(ServeAdapters, ClassifierMatchesClassifyReference) {
    apps::PacketClassifier classifier;
    classifier.addRule(apps::RuleBuilder()
                           .srcPrefix(0x0A000000, 8)
                           .protocol(6)
                           .build(1, "tcp-from-10"));
    classifier.addRule(
        apps::RuleBuilder().dstPrefix(0xC0A80000, 16).build(2, "to-192-168"));
    classifier.addRule(apps::RuleBuilder().dstPort(443).build(3, "https"));

    serve::EngineOptions base;
    base.shard = smallConfig(apps::PacketHeader::kBits, 2);
    serve::ClassifierService svc(classifier, base);

    numeric::Rng rng(17);
    std::vector<apps::PacketHeader> headers;
    for (int i = 0; i < 200; ++i) {
        apps::PacketHeader h;
        h.srcIp = rng.bernoulli(0.5) ? (0x0A000000u |
                                        (static_cast<std::uint32_t>(rng.nextU64()) &
                                         0x00FFFFFFu))
                                     : static_cast<std::uint32_t>(rng.nextU64());
        h.dstIp = rng.bernoulli(0.5) ? (0xC0A80000u |
                                        (static_cast<std::uint32_t>(rng.nextU64()) & 0xFFFFu))
                                     : static_cast<std::uint32_t>(rng.nextU64());
        h.srcPort = static_cast<std::uint16_t>(rng.nextU64());
        h.dstPort = rng.bernoulli(0.3) ? 443 : static_cast<std::uint16_t>(rng.nextU64());
        h.protocol = rng.bernoulli(0.5) ? 6 : 17;
        headers.push_back(h);
    }

    const auto got = svc.classifyBatch(headers);
    ASSERT_EQ(got.size(), headers.size());
    for (std::size_t i = 0; i < headers.size(); ++i)
        EXPECT_EQ(got[i], classifier.classify(headers[i])) << "header " << i;
}

TEST(ServeAdapters, SharedCacheReusedAcrossServices) {
    // Two services over the same word width and design share characterized
    // points: the second build must be all hits.
    apps::Tlb tlb(8);
    for (int i = 0; i < 8; ++i)
        tlb.insert((1ULL << 20) + static_cast<std::uint64_t>(i), apps::PageSize::Page4K,
                   static_cast<std::uint64_t>(i));

    auto cache = std::make_shared<serve::CharacterizationCache>();
    serve::EngineOptions base;
    base.shard = smallConfig(apps::Tlb::kVpnBits, 4);

    serve::TlbService first(tlb, base, cache);
    const auto afterFirst = cache->stats();
    serve::TlbService second(tlb, base, cache);
    const auto afterSecond = cache->stats();

    EXPECT_EQ(afterSecond.misses, afterFirst.misses);  // no new transients
    EXPECT_GT(afterSecond.hits, afterFirst.hits);
    expectSameBank(first.engine().hardware(), second.engine().hardware());
}

TEST(CharCache, KeyLeadsWithSchemaVersionByte) {
    array::WordSimOptions o;
    o.config = smallConfig();
    o.stored = tcam::TernaryWord(8, tcam::Trit::Zero);
    o.key = tcam::TernaryWord(8, tcam::Trit::One);
    const auto key = serve::CharacterizationCache::keyOf(o);
    ASSERT_FALSE(key.empty());
    // The first byte is the packed-layout version, so keys from different
    // layouts can never alias — in memory or in a persisted store.
    EXPECT_EQ(static_cast<std::uint8_t>(key[0]), serve::kCharSchemaVersion);
}

TEST(QueryEngine, SubmitBatchMatchesSearchBatch) {
    serve::QueryEngine engine(smallOptions());
    engine.insert(tcam::TernaryWord::fromBits(5, 8));

    const std::vector<tcam::TernaryWord> keys = {tcam::TernaryWord::fromBits(5, 8),
                                                 tcam::TernaryWord::fromBits(9, 8)};
    const auto direct = engine.searchBatch(keys);
    const auto submitted = engine.submitBatch(keys);
    EXPECT_EQ(submitted.result.rows, direct.rows);
    EXPECT_EQ(submitted.result.hits, direct.hits);
}

TEST(QueryEngineStore, WarmRestartServesIdenticalResults) {
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "fetcam_serve_test_store").string();
    fs::remove_all(dir);

    auto options = smallOptions();
    options.store.dir = dir;

    const std::vector<tcam::TernaryWord> keys = {
        tcam::TernaryWord::fromBits(3, 8), tcam::TernaryWord::fromBits(7, 8),
        tcam::TernaryWord::fromBits(200, 8)};

    std::string coldReport;
    serve::BatchResult coldBatch;
    array::BankMetrics coldBank;
    std::int64_t coldMisses = 0;
    {
        serve::QueryEngine cold(options);
        ASSERT_FALSE(cold.storeStatus().degraded);
        coldMisses = cold.cache()->stats().misses;
        EXPECT_GT(coldMisses, 0);
        cold.insert(tcam::TernaryWord::fromBits(3, 8));
        cold.insert(tcam::TernaryWord::fromBits(7, 8));
        coldBatch = cold.searchBatch(keys);
        coldReport = cold.report();
        coldBank = cold.hardware();
    }  // engine teardown flushes the store

    serve::QueryEngine warm(options);
    ASSERT_FALSE(warm.storeStatus().degraded);
    // The warm build replays every characterization from disk: zero solver
    // transients, and everything served is bit-identical to the cold run.
    EXPECT_EQ(warm.cache()->stats().misses, 0);
    EXPECT_GT(warm.cache()->stats().storeHits, 0);
    // The cold run also characterized (and persisted) one word-write cost
    // when insert() first charged program energy — hence the +1.
    EXPECT_EQ(warm.storeStatus().load.recordsLoaded, coldMisses + 1);
    warm.insert(tcam::TernaryWord::fromBits(3, 8));
    warm.insert(tcam::TernaryWord::fromBits(7, 8));
    const auto warmBatch = warm.searchBatch(keys);
    EXPECT_EQ(warmBatch.rows, coldBatch.rows);
    EXPECT_EQ(warmBatch.hits, coldBatch.hits);
    EXPECT_EQ(warmBatch.energy, coldBatch.energy);
    EXPECT_EQ(warmBatch.latency, coldBatch.latency);
    EXPECT_EQ(warm.report(), coldReport);
    expectSameBank(warm.hardware(), coldBank);

    fs::remove_all(dir);
}

// --- per-query deadlines (network front-end contract) ----------------------

TEST(QueryEngineDeadline, ExpiredQueriesShedBeforeSimulation) {
    serve::QueryEngine engine(smallOptions());
    engine.insert(tcam::TernaryWord::fromBits(5, 8));

    const std::vector<tcam::TernaryWord> keys = {
        tcam::TernaryWord::fromBits(5, 8),  // hit, expired
        tcam::TernaryWord::fromBits(5, 8),  // hit, live deadline
        tcam::TernaryWord::fromBits(9, 8),  // miss, no deadline
    };
    const double now = obs::monotonicSeconds();
    const std::vector<double> deadlines = {now - 1.0, now + 100.0, 0.0};
    serve::SubmitOptions opts;
    opts.deadlines = &deadlines;
    const auto out = engine.searchBatch(keys, 0, opts);

    EXPECT_EQ(out.rows[0], serve::kRowDeadlineExpired);
    EXPECT_EQ(out.rows[1], 0);
    EXPECT_EQ(out.rows[2], -1);
    EXPECT_EQ(out.expired, 1);
    EXPECT_EQ(out.hits, 1);
    // Shed-before-scan means shed-before-energy: only the two executed
    // queries are charged.
    EXPECT_EQ(out.energy, engine.energyPerQuery() * 2);

    EXPECT_EQ(engine.stats().deadlineExpired, 1);
    EXPECT_EQ(engine.stats().queries, 3);
    EXPECT_NE(engine.report().find("1 deadline-expired"), std::string::npos);
}

TEST(QueryEngineDeadline, AllExpiredChargesNoEnergy) {
    serve::QueryEngine engine(smallOptions());
    engine.insert(tcam::TernaryWord::fromBits(5, 8));
    const std::vector<tcam::TernaryWord> keys(4, tcam::TernaryWord::fromBits(5, 8));
    const std::vector<double> deadlines(4, 1e-9);  // long past
    serve::SubmitOptions opts;
    opts.deadlines = &deadlines;
    const auto out = engine.searchBatch(keys, 0, opts);
    EXPECT_EQ(out.expired, 4);
    EXPECT_EQ(out.hits, 0);
    EXPECT_EQ(out.energy, 0.0);
    for (const auto row : out.rows) EXPECT_EQ(row, serve::kRowDeadlineExpired);
}

TEST(QueryEngineDeadline, MisalignedDeadlinesRejected) {
    serve::QueryEngine engine(smallOptions());
    const std::vector<tcam::TernaryWord> keys(3, tcam::TernaryWord::fromBits(5, 8));
    const std::vector<double> deadlines(2, 0.0);
    serve::SubmitOptions opts;
    opts.deadlines = &deadlines;
    EXPECT_THROW(engine.searchBatch(keys, 0, opts), recover::SimError);
}

TEST(QueryEngineDeadline, NoDeadlinesMatchesPlainSearch) {
    const auto options = smallOptions();
    serve::QueryEngine a(options);
    serve::QueryEngine b(options);
    for (auto* e : {&a, &b}) {
        e->insert(tcam::TernaryWord::fromBits(5, 8));
        e->insert(tcam::TernaryWord::fromBits(6, 8));
    }
    std::vector<tcam::TernaryWord> keys;
    for (int i = 0; i < 8; ++i) keys.push_back(tcam::TernaryWord::fromBits(i, 8));
    const auto plain = a.searchBatch(keys);
    const std::vector<double> none(keys.size(), 0.0);  // 0 = no deadline
    serve::SubmitOptions opts;
    opts.deadlines = &none;
    const auto submitted = b.searchBatch(keys, 0, opts);
    EXPECT_EQ(submitted.rows, plain.rows);
    EXPECT_EQ(submitted.hits, plain.hits);
    EXPECT_EQ(submitted.energy, plain.energy);
    EXPECT_EQ(submitted.expired, 0);
}
