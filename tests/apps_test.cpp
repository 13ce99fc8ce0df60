// Application-layer tests: LPM routing semantics, packet classification,
// associative (Hamming) search on the serving engine, and workload
// generators.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <memory>
#include <vector>

#include "apps/classifier.hpp"
#include "apps/lpm.hpp"
#include "apps/workloads.hpp"
#include "numeric/stats.hpp"
#include "recover/sim_error.hpp"
#include "serve/query_engine.hpp"

using namespace fetcam;
using namespace fetcam::apps;

namespace {
std::uint32_t ip(int a, int b, int c, int d) {
    return (static_cast<std::uint32_t>(a) << 24) | (static_cast<std::uint32_t>(b) << 16) |
           (static_cast<std::uint32_t>(c) << 8) | static_cast<std::uint32_t>(d);
}

/// Associative search runs on the serving engine: `rows` stored in order on
/// an FeFET geometry, each in the row of its index.
std::unique_ptr<serve::QueryEngine> associativeMemory(
    const std::vector<tcam::TernaryWord>& rows) {
    serve::EngineOptions o;
    o.shard.cell = tcam::CellKind::FeFet2;
    o.shard.wordBits = static_cast<int>(rows.front().size());
    o.capacity = static_cast<std::int64_t>(rows.size());
    auto mem = std::make_unique<serve::QueryEngine>(o);
    for (const auto& r : rows) mem->insert(r);
    return mem;
}

std::unique_ptr<serve::QueryEngine> associativeMemory(std::initializer_list<const char*> rows) {
    std::vector<tcam::TernaryWord> words;
    for (const char* r : rows) words.push_back(tcam::TernaryWord::fromString(r));
    return associativeMemory(words);
}

/// The analog winner among `hits`: the latest matchline discharge at the
/// engine's tauUnit, ties to the lowest row.
std::size_t latestDischarge(serve::QueryEngine& mem, const sim::SimilarityHits& hits) {
    std::vector<std::size_t> distances;
    for (const auto& h : hits) distances.push_back(h.distance);
    const auto times = sim::dischargeTimes(distances, mem.simCost().tauUnitSeconds);
    std::size_t best = 0;
    for (std::size_t i = 1; i < hits.size(); ++i)
        if (times[i] > times[best] || (times[i] == times[best] && hits[i].row < hits[best].row))
            best = i;
    return best;
}
}  // namespace

TEST(Lpm, RoutePattern) {
    const Route r{ip(10, 1, 0, 0), 16, 5};
    const auto p = r.pattern();
    EXPECT_EQ(p.toString().substr(0, 16), "0000101000000001");
    EXPECT_EQ(p.wildcardCount(), 16u);
    EXPECT_TRUE(r.covers(ip(10, 1, 200, 7)));
    EXPECT_FALSE(r.covers(ip(10, 2, 0, 0)));
}

TEST(Lpm, LongestPrefixWins) {
    RoutingTable t;
    t.addRoute(ip(10, 0, 0, 0), 8, 1);
    t.addRoute(ip(10, 1, 0, 0), 16, 2);
    t.addRoute(ip(10, 1, 2, 0), 24, 3);
    EXPECT_EQ(t.lookup(ip(10, 1, 2, 77)), 3);
    EXPECT_EQ(t.lookup(ip(10, 1, 9, 1)), 2);
    EXPECT_EQ(t.lookup(ip(10, 200, 0, 1)), 1);
    EXPECT_EQ(t.lookup(ip(11, 0, 0, 1)), std::nullopt);
}

TEST(Lpm, DefaultRouteMatchesEverything) {
    RoutingTable t;
    t.addRoute(0, 0, 42);
    EXPECT_EQ(t.lookup(ip(1, 2, 3, 4)), 42);
    EXPECT_EQ(t.lookup(0xffffffffu), 42);
}

TEST(Lpm, RejectsBadPrefixLength) {
    RoutingTable t;
    EXPECT_THROW(t.addRoute(0, 33, 1), std::invalid_argument);
    EXPECT_THROW(t.addRoute(0, -1, 1), std::invalid_argument);
}

TEST(Lpm, TcamOrderMatchesLinearScan) {
    // Property: priority-ordered first-match == longest-prefix linear scan.
    const auto table = syntheticRoutingTable(200, 11);
    const auto queries = syntheticQueryStream(table, 500, 0.7, 12);
    for (const auto q : queries) EXPECT_EQ(table.lookup(q), table.lookupLinear(q));
}

TEST(Lpm, PatternsPreservePriorityOrder) {
    const auto table = syntheticRoutingTable(64, 3);
    const auto& routes = table.routes();
    for (std::size_t i = 1; i < routes.size(); ++i)
        EXPECT_GE(routes[i - 1].prefixLength, routes[i].prefixLength);
    EXPECT_EQ(table.patterns().size(), table.size());
}

TEST(Classifier, HeaderToWordLayout) {
    PacketHeader h;
    h.srcIp = 0x80000000u;  // top bit set
    h.protocol = 0x01;
    const auto w = h.toWord();
    EXPECT_EQ(w.size(), 104u);
    EXPECT_EQ(w[0], tcam::Trit::One);
    EXPECT_EQ(w[103], tcam::Trit::One);
    EXPECT_EQ(w[1], tcam::Trit::Zero);
}

TEST(Classifier, FirstMatchingRuleWins) {
    PacketClassifier cls;
    cls.addRule(RuleBuilder().dstPort(80).protocol(6).build(1, "allow-http"));
    cls.addRule(RuleBuilder().protocol(6).build(2, "tcp-other"));
    cls.addRule(RuleBuilder().build(3, "default"));

    PacketHeader http;
    http.dstPort = 80;
    http.protocol = 6;
    EXPECT_EQ(cls.classify(http), 1);

    PacketHeader ssh;
    ssh.dstPort = 22;
    ssh.protocol = 6;
    EXPECT_EQ(cls.classify(ssh), 2);

    PacketHeader udp;
    udp.protocol = 17;
    EXPECT_EQ(cls.classify(udp), 3);
    EXPECT_EQ(cls.matchIndex(udp), 2u);
}

TEST(Classifier, PrefixFieldsRespectLength) {
    PacketClassifier cls;
    cls.addRule(RuleBuilder().srcPrefix(ip(192, 168, 0, 0), 16).build(7));
    PacketHeader in;
    in.srcIp = ip(192, 168, 55, 1);
    EXPECT_EQ(cls.classify(in), 7);
    in.srcIp = ip(192, 169, 0, 1);
    EXPECT_EQ(cls.classify(in), std::nullopt);
}

TEST(Classifier, NoMatchReturnsNullopt) {
    PacketClassifier cls;
    cls.addRule(RuleBuilder().protocol(6).build(1));
    PacketHeader h;
    h.protocol = 17;
    EXPECT_EQ(cls.classify(h), std::nullopt);
}

TEST(Classifier, RejectsBadPatternWidth) {
    PacketClassifier cls;
    ClassifierRule r;
    r.pattern = tcam::TernaryWord(10);
    EXPECT_THROW(cls.addRule(r), std::invalid_argument);
}

TEST(Hamming, ExactNearest) {
    const auto mem = associativeMemory({"00000000", "11110000", "11111111"});
    const auto hits = mem->nearestK(tcam::TernaryWord::fromString("11100000"), 2);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].row, 1);
    EXPECT_EQ(hits[0].distance, 1u);
    EXPECT_GT(hits[1].distance, hits[0].distance);  // a unique winner
}

TEST(Hamming, TieDetection) {
    const auto mem = associativeMemory({"0000", "1111"});
    const auto hits = mem->nearestK(tcam::TernaryWord::fromString("0011"), 2);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].row, 0);
    EXPECT_EQ(hits[0].distance, hits[1].distance);
}

TEST(Hamming, RejectsWidthMismatch) {
    const auto mem = associativeMemory({"0101"});
    EXPECT_THROW(mem->insert(tcam::TernaryWord::fromString("01")), recover::SimError);
    EXPECT_THROW(mem->nearestK(tcam::TernaryWord::fromString("01"), 1), recover::SimError);
}

TEST(Hamming, DischargeModelAgreesWithExactModel) {
    // Property: the analog discharge-time winner equals the Hamming winner
    // whenever no exact-match row exists (exact matches never discharge and
    // trivially win in both models too).
    const auto rows = randomHypervectors(32, 64, 21);
    const auto mem = associativeMemory(rows);
    numeric::Rng rng(22);
    for (int q = 0; q < 50; ++q) {
        const auto base = rows[static_cast<std::size_t>(rng.uniformInt(0, 31))];
        const auto query = perturbWord(base, static_cast<std::size_t>(rng.uniformInt(1, 8)),
                                       rng);
        const auto hits = mem->nearestK(query, 32);
        const auto analog = hits[latestDischarge(*mem, hits)];
        if (hits[1].distance > hits[0].distance) {
            EXPECT_EQ(analog.row, hits[0].row);
        }
        EXPECT_EQ(analog.distance, hits[0].distance);
    }
}

TEST(Hamming, DischargeTieBreaksToLowestIndexLikeExactModel) {
    // Three rows at identical distance from the query: both models must
    // report the lowest index, on every tie position.
    const auto mem = associativeMemory({"10000000",    // d=1 from all-zeros
                                        "01000000",    // d=1
                                        "11110000",    // d=4
                                        "00100000"});  // d=1
    const auto hits = mem->nearestK(tcam::TernaryWord::fromString("00000000"), 4);
    const auto analog = hits[latestDischarge(*mem, hits)];
    EXPECT_EQ(analog.row, 0);
    EXPECT_EQ(analog.row, hits[0].row);
    EXPECT_EQ(analog.distance, 1u);
    EXPECT_EQ(hits[1].distance, 1u);  // the tie the exact model reports
}

TEST(Hamming, ExactMatchBeatsDistanceOneDeterministically) {
    // An exact-match row never discharges (+inf): it must win over a
    // distance-1 row regardless of ordering, and two exact matches tie to
    // the lowest index exactly like the exact model.
    const auto query = tcam::TernaryWord::fromString("00000000");
    {
        const auto mem = associativeMemory({"10000000",    // d=1, earlier row
                                            "00000000"});  // exact, later row
        const auto hits = mem->nearestK(query, 2);
        const auto analog = hits[latestDischarge(*mem, hits)];
        EXPECT_EQ(analog.row, 1);
        EXPECT_EQ(analog.distance, 0u);
        EXPECT_EQ(hits[1].distance, 1u);
    }
    {
        const auto mem = associativeMemory({"00000000",    // exact
                                            "00000000",    // exact duplicate
                                            "10000000"});  // d=1
        const auto hits = mem->nearestK(query, 3);
        const auto analog = hits[latestDischarge(*mem, hits)];
        EXPECT_EQ(analog.row, 0);
        EXPECT_EQ(analog.row, hits[0].row);
        EXPECT_EQ(analog.distance, 0u);
        EXPECT_EQ(hits[1].distance, 0u);
    }
}

TEST(Hamming, DischargeTimesInverseToDistance) {
    const auto mem = associativeMemory({"00000000"});
    const double tau = mem->simCost().tauUnitSeconds;
    const auto time = [&](const char* key) {
        const auto hits = mem->nearestK(tcam::TernaryWord::fromString(key), 1);
        return sim::dischargeTimes({hits[0].distance}, tau)[0];
    };
    EXPECT_DOUBLE_EQ(time("10000000") / time("11110000"), 4.0);
    EXPECT_TRUE(std::isinf(time("00000000")));
}

TEST(Workloads, SyntheticTableShape) {
    const auto t = syntheticRoutingTable(500, 42);
    EXPECT_EQ(t.size(), 500u);
    // /24 should dominate.
    int n24 = 0;
    for (const auto& r : t.routes()) n24 += r.prefixLength == 24;
    EXPECT_GT(n24, 150);
}

TEST(Workloads, QueryStreamHitFraction) {
    const auto t = syntheticRoutingTable(200, 1);
    const auto qs = syntheticQueryStream(t, 1000, 0.8, 2);
    int hits = 0;
    for (const auto q : qs) hits += t.lookup(q).has_value();
    EXPECT_GT(hits, 700);  // >= the crafted 80% (random ones can also hit)
}

TEST(Workloads, SyntheticPacketsHitClassifier) {
    const auto cls = syntheticClassifier(50, 5);
    const auto pkts = syntheticPackets(cls, 400, 0.9, 6);
    int hits = 0;
    for (const auto& p : pkts) hits += cls.classify(p).has_value();
    EXPECT_GT(hits, 300);
}

TEST(Workloads, PerturbWordFlipsExactly) {
    numeric::Rng rng(9);
    const auto base = randomHypervectors(1, 32, 10)[0];
    const auto p = perturbWord(base, 5, rng);
    EXPECT_EQ(base.mismatchCount(p), 5u);
    EXPECT_THROW(perturbWord(base, 33, rng), std::invalid_argument);
}
