// Application-layer tests: LPM routing semantics, packet classification,
// associative (Hamming) search, and workload generators.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/classifier.hpp"
#include "apps/hamming.hpp"
#include "apps/lpm.hpp"
#include "apps/workloads.hpp"
#include "numeric/stats.hpp"

using namespace fetcam;
using namespace fetcam::apps;

namespace {
std::uint32_t ip(int a, int b, int c, int d) {
    return (static_cast<std::uint32_t>(a) << 24) | (static_cast<std::uint32_t>(b) << 16) |
           (static_cast<std::uint32_t>(c) << 8) | static_cast<std::uint32_t>(d);
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
    AssociativeMemory mem(8);
    mem.add(tcam::TernaryWord::fromString("00000000"));
    mem.add(tcam::TernaryWord::fromString("11110000"));
    mem.add(tcam::TernaryWord::fromString("11111111"));
    const auto r = mem.nearest(tcam::TernaryWord::fromString("11100000"));
    EXPECT_EQ(r.index, 1u);
    EXPECT_EQ(r.distance, 1u);
    EXPECT_TRUE(r.unique);
}

TEST(Hamming, TieDetection) {
    AssociativeMemory mem(4);
    mem.add(tcam::TernaryWord::fromString("0000"));
    mem.add(tcam::TernaryWord::fromString("1111"));
    const auto r = mem.nearest(tcam::TernaryWord::fromString("0011"));
    EXPECT_FALSE(r.unique);
}

TEST(Hamming, DistancesMatchPerRowMismatchCount) {
    // The bit-plane kernel behind distances() must agree with the scalar
    // TernaryWord::mismatchCount row by row — including widths that are not
    // a multiple of 64 and memories spanning several 64-row blocks. The
    // memory grows one row at a time past one 1024-row plane group, and is
    // checked at sizes that end mid-block, on a block edge, inside a partial
    // first group, on the group edge and in a partial second group.
    numeric::Rng rng(5);
    for (const std::size_t bits : {5u, 64u, 77u}) {
        AssociativeMemory mem(bits);
        std::vector<tcam::TernaryWord> stored;
        for (const int size : {70, 128, 700, 1024, 1025, 1100}) {
            while (static_cast<int>(stored.size()) < size) {
                tcam::TernaryWord w(bits);
                for (std::size_t b = 0; b < bits; ++b)
                    w[b] = rng.bernoulli(0.5) ? tcam::Trit::One : tcam::Trit::Zero;
                mem.add(w);
                stored.push_back(w);
            }
            for (int q = 0; q < 10; ++q) {
                tcam::TernaryWord key(bits);
                for (std::size_t b = 0; b < bits; ++b)
                    key[b] = rng.bernoulli(0.5) ? tcam::Trit::One : tcam::Trit::Zero;
                const auto d = mem.distances(key);
                ASSERT_EQ(d.size(), mem.size());
                for (std::size_t r = 0; r < d.size(); ++r)
                    EXPECT_EQ(d[r], stored[r].mismatchCount(key));
            }
        }
    }
}

TEST(Hamming, RejectsWildcardsAndWidthMismatch) {
    AssociativeMemory mem(4);
    EXPECT_THROW(mem.add(tcam::TernaryWord::fromString("0X01")), std::invalid_argument);
    EXPECT_THROW(mem.add(tcam::TernaryWord::fromString("01")), std::invalid_argument);
    EXPECT_THROW(mem.nearest(tcam::TernaryWord::fromString("0000")), std::logic_error);
}

TEST(Hamming, DischargeModelAgreesWithExactModel) {
    // Property: the analog discharge-time winner equals the Hamming winner
    // whenever no exact-match row exists (exact matches never discharge and
    // trivially win in both models too).
    const auto rows = randomHypervectors(32, 64, 21);
    AssociativeMemory mem(64);
    for (const auto& r : rows) mem.add(r);
    numeric::Rng rng(22);
    for (int q = 0; q < 50; ++q) {
        const auto base = rows[static_cast<std::size_t>(rng.uniformInt(0, 31))];
        const auto query = perturbWord(base, static_cast<std::size_t>(rng.uniformInt(1, 8)),
                                       rng);
        const auto exact = mem.nearest(query);
        const auto analog = mem.nearestViaDischarge(query);
        if (exact.unique) EXPECT_EQ(analog.index, exact.index);
        EXPECT_EQ(analog.distance, exact.distance);
    }
}

TEST(Hamming, DischargeTieBreaksToLowestIndexLikeExactModel) {
    // Three rows at identical distance from the query: both models must
    // report the lowest index and flag the tie, on every tie position.
    AssociativeMemory mem(8);
    mem.add(tcam::TernaryWord::fromString("10000000"));  // d=1 from all-zeros
    mem.add(tcam::TernaryWord::fromString("01000000"));  // d=1
    mem.add(tcam::TernaryWord::fromString("11110000"));  // d=4
    mem.add(tcam::TernaryWord::fromString("00100000"));  // d=1
    const auto query = tcam::TernaryWord::fromString("00000000");
    const auto exact = mem.nearest(query);
    const auto analog = mem.nearestViaDischarge(query);
    EXPECT_EQ(analog.index, 0u);
    EXPECT_EQ(analog.index, exact.index);
    EXPECT_EQ(analog.distance, 1u);
    EXPECT_FALSE(analog.unique);
    EXPECT_FALSE(exact.unique);
}

TEST(Hamming, ExactMatchBeatsDistanceOneDeterministically) {
    // An exact-match row never discharges (+inf): it must win over a
    // distance-1 row regardless of ordering, and two exact matches tie to
    // the lowest index exactly like the exact model.
    {
        AssociativeMemory mem(8);
        mem.add(tcam::TernaryWord::fromString("10000000"));  // d=1, earlier row
        mem.add(tcam::TernaryWord::fromString("00000000"));  // exact, later row
        const auto analog =
            mem.nearestViaDischarge(tcam::TernaryWord::fromString("00000000"));
        EXPECT_EQ(analog.index, 1u);
        EXPECT_EQ(analog.distance, 0u);
        EXPECT_TRUE(analog.unique);
    }
    {
        AssociativeMemory mem(8);
        mem.add(tcam::TernaryWord::fromString("00000000"));  // exact
        mem.add(tcam::TernaryWord::fromString("00000000"));  // exact duplicate
        mem.add(tcam::TernaryWord::fromString("10000000"));  // d=1
        const auto query = tcam::TernaryWord::fromString("00000000");
        const auto exact = mem.nearest(query);
        const auto analog = mem.nearestViaDischarge(query);
        EXPECT_EQ(analog.index, 0u);
        EXPECT_EQ(analog.index, exact.index);
        EXPECT_EQ(analog.distance, 0u);
        EXPECT_FALSE(analog.unique);
        EXPECT_FALSE(exact.unique);
    }
}

TEST(Hamming, DischargeTimesInverseToDistance) {
    AssociativeMemory mem(8);
    mem.add(tcam::TernaryWord::fromString("00000000"));
    const auto t1 = mem.dischargeTimes(tcam::TernaryWord::fromString("10000000"));
    const auto t4 = mem.dischargeTimes(tcam::TernaryWord::fromString("11110000"));
    EXPECT_DOUBLE_EQ(t1[0] / t4[0], 4.0);
    const auto tExact = mem.dischargeTimes(tcam::TernaryWord::fromString("00000000"));
    EXPECT_TRUE(std::isinf(tExact[0]));
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
