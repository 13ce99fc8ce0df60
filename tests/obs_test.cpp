// Tests for the observability substrate: metric semantics, scoped timers,
// JSONL trace round-trips (write -> parse -> assert nesting), and the
// guarantee that a disabled registry allocates nothing on the hot path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace_reader.hpp"

using namespace fetcam;

// --- allocation counting for the zero-allocation guard -----------------------
//
// Global operator new/delete overrides count every heap allocation in the
// test binary. Only the delta across a measured region matters.

namespace {
std::atomic<long long> gAllocs{0};
}  // namespace

void* operator new(std::size_t size) {
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

TEST(Metrics, CounterSemantics) {
    auto& c = obs::counter("test.counter");
    c.reset();
    EXPECT_EQ(c.value(), 0);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42);
    EXPECT_EQ(c.name(), "test.counter");
    // Same name -> same instrument.
    EXPECT_EQ(&obs::counter("test.counter"), &c);
    c.reset();
    EXPECT_EQ(c.value(), 0);
}

TEST(Metrics, GaugeSemantics) {
    auto& g = obs::gauge("test.gauge");
    g.set(3.5);
    EXPECT_DOUBLE_EQ(g.value(), 3.5);
    g.set(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Metrics, HistogramBuckets) {
    auto& h = obs::histogram("test.hist", {1.0, 10.0, 100.0});
    h.reset();
    for (const double v : {0.5, 0.9, 5.0, 50.0, 500.0, 5000.0}) h.observe(v);
    const auto counts = h.counts();
    ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
    EXPECT_EQ(counts[0], 2);       // <= 1
    EXPECT_EQ(counts[1], 1);       // <= 10
    EXPECT_EQ(counts[2], 1);       // <= 100
    EXPECT_EQ(counts[3], 2);       // overflow
    EXPECT_EQ(h.count(), 6);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 5000.0);
    EXPECT_NEAR(h.sum(), 5556.4, 1e-9);
    EXPECT_NEAR(h.mean(), 5556.4 / 6.0, 1e-9);
}

TEST(Metrics, ExponentialBounds) {
    const auto b = obs::Histogram::exponentialBounds(1e-6, 1e-3, 1);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_NEAR(b[0], 1e-6, 1e-12);
    EXPECT_NEAR(b[3], 1e-3, 1e-9);
    EXPECT_TRUE(obs::Histogram::exponentialBounds(-1.0, 1.0, 1).empty());
}

TEST(Metrics, ScopedTimerAccumulates) {
    auto& h = obs::histogram("test.timer.hist", {1.0});
    h.reset();
    double accum = 0.0;
    {
        obs::ScopedTimer timer(h, accum);
        // Burn a little time so elapsed is strictly positive.
        volatile double x = 0.0;
        for (int i = 0; i < 1000; ++i) x = x + static_cast<double>(i);
        EXPECT_GE(timer.elapsed(), 0.0);
    }
    EXPECT_EQ(h.count(), 1);
    EXPECT_GT(accum, 0.0);
    EXPECT_DOUBLE_EQ(h.sum(), accum);
}

TEST(Metrics, RegistrySnapshots) {
    obs::counter("test.snapshot.counter");
    obs::gauge("test.snapshot.gauge");
    obs::histogram("test.snapshot.hist");
    bool foundCounter = false;
    for (const auto* c : obs::Registry::global().counters())
        foundCounter |= c->name() == "test.snapshot.counter";
    EXPECT_TRUE(foundCounter);
    EXPECT_FALSE(obs::Registry::global().gauges().empty());
    EXPECT_FALSE(obs::Registry::global().histograms().empty());
}

TEST(Obs, EnabledFlagToggles) {
    EXPECT_FALSE(obs::enabled());  // default off
    obs::setEnabled(true);
    EXPECT_TRUE(obs::enabled());
    obs::setEnabled(false);
    EXPECT_FALSE(obs::enabled());
}

TEST(Trace, JsonlRoundTripWithNesting) {
    const std::string path = ::testing::TempDir() + "obs_roundtrip.jsonl";
    auto& sink = obs::TraceSink::global();
    ASSERT_TRUE(sink.open(path));
    obs::setEnabled(true);
    {
        obs::SpanGuard outer("outer", {{"runs", 1}});
        {
            obs::SpanGuard inner("inner", {{"label", "a b\"c"}});
            sink.event("tick", {{"value", 2.5}, {"ok", true}});
        }
    }
    obs::setEnabled(false);
    sink.close();

    const auto records = obs::readTraceFile(path);
    ASSERT_EQ(records.size(), 3u);

    // Spans close child-first, so file order is: event, inner, outer.
    const auto& event = records[0];
    const auto& inner = records[1];
    const auto& outer = records[2];
    EXPECT_TRUE(event.isEvent());
    EXPECT_EQ(event.name, "tick");
    EXPECT_EQ(event.depth, 2);  // inside two open spans
    EXPECT_DOUBLE_EQ(event.num.at("value"), 2.5);
    EXPECT_DOUBLE_EQ(event.num.at("ok"), 1.0);

    EXPECT_TRUE(inner.isSpan());
    EXPECT_EQ(inner.name, "inner");
    EXPECT_EQ(inner.depth, 1);
    EXPECT_EQ(inner.str.at("label"), "a b\"c");  // escaping survived

    EXPECT_TRUE(outer.isSpan());
    EXPECT_EQ(outer.depth, 0);
    EXPECT_DOUBLE_EQ(outer.num.at("runs"), 1.0);

    // Nesting: the inner span's interval sits inside the outer's.
    EXPECT_GE(inner.ts, outer.ts);
    EXPECT_LE(inner.end(), outer.end() + 1e-9);
    // The event fires while both spans are open.
    EXPECT_GE(event.ts, inner.ts);
    EXPECT_LE(event.ts, inner.end() + 1e-9);

    // Self-time attribution: outer's self excludes inner's duration.
    const auto stats = obs::spanStats(records);
    ASSERT_EQ(stats.size(), 2u);
    double outerSelf = 0.0, innerTotal = 0.0, outerTotal = 0.0;
    for (const auto& s : stats) {
        if (s.name == "outer") {
            outerSelf = s.self;
            outerTotal = s.total;
        }
        if (s.name == "inner") innerTotal = s.total;
    }
    EXPECT_NEAR(outerSelf, outerTotal - innerTotal, 1e-12);
}

TEST(Trace, SpanStatsNestsSpansPerThread) {
    // Two same-depth spans overlap on different threads, each with a child.
    // Ordered by start time, a.child opens after b.sim; it still belongs to
    // a.sim, the span on its own tid.
    std::vector<obs::TraceRecord> records;
    for (const char* line : {
             R"({"type":"span","name":"a.child","ts":0.002,"dur":0.006,"tid":1,"depth":2})",
             R"({"type":"span","name":"b.child","ts":0.003,"dur":0.001,"tid":2,"depth":2})",
             R"({"type":"span","name":"a.sim","ts":0.000,"dur":0.010,"tid":1,"depth":1})",
             R"({"type":"span","name":"b.sim","ts":0.001,"dur":0.010,"tid":2,"depth":1})",
         })
        records.push_back(*obs::parseTraceLine(line));

    double aSelf = -1.0, bSelf = -1.0;
    for (const auto& s : obs::spanStats(records)) {
        if (s.name == "a.sim") aSelf = s.self;
        if (s.name == "b.sim") bSelf = s.self;
    }
    EXPECT_NEAR(aSelf, 0.010 - 0.006, 1e-12);
    EXPECT_NEAR(bSelf, 0.010 - 0.001, 1e-12);
}

TEST(Trace, ParserRejectsMalformedLines) {
    EXPECT_FALSE(obs::parseTraceLine("").has_value());
    EXPECT_FALSE(obs::parseTraceLine("   ").has_value());
    EXPECT_THROW(obs::parseTraceLine("{\"unterminated"), std::runtime_error);
    EXPECT_THROW(obs::parseTraceLine("{\"a\":}"), std::runtime_error);
    EXPECT_THROW(obs::parseTraceLine("{\"a\":1} junk"), std::runtime_error);
    const auto rec = obs::parseTraceLine("{}");
    ASSERT_TRUE(rec.has_value());
    EXPECT_TRUE(rec->type.empty());
}

TEST(Trace, InactiveSinkDropsRecords) {
    auto& sink = obs::TraceSink::global();
    ASSERT_FALSE(sink.active());
    sink.event("ignored", {{"x", 1}});  // must be a silent no-op
    obs::SpanGuard span("ignored.span");
    EXPECT_DOUBLE_EQ(sink.now(), 0.0);
}

TEST(Obs, DisabledHotPathMakesZeroAllocations) {
    obs::setEnabled(false);
    ASSERT_FALSE(obs::TraceSink::global().active());

    // Register outside the measured region (registration may allocate).
    auto& c = obs::counter("test.zeroalloc.counter");
    auto& g = obs::gauge("test.zeroalloc.gauge");
    auto& h = obs::histogram("test.zeroalloc.hist", {1e-3, 1.0});
    double accum = 0.0;

    const long long before = gAllocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        if (obs::enabled()) {  // the instrumentation-site idiom: all off
            c.add();
            g.set(static_cast<double>(i));
        }
        h.observe(1e-4);  // metrics mutation itself is allocation-free too
        c.add();
        obs::ScopedTimer timer(h, accum);
        obs::TraceSink::global().event("noop", {{"i", i}});
        obs::SpanGuard span("noop.span", {{"i", i}});
        // Repeated registry lookup of an existing name (heterogeneous find).
        obs::counter("test.zeroalloc.counter");
    }
    const long long after = gAllocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0);
}

}  // namespace

TEST(Metrics, QuantileEstimatesFromBuckets) {
    fetcam::obs::Histogram hist("quantile.test", {1.0, 2.0, 4.0, 8.0});
    EXPECT_TRUE(std::isnan(fetcam::obs::quantile(hist, 0.5)));

    for (int i = 0; i < 100; ++i) hist.observe(1.5);  // all in bucket (1, 2]
    const double p50 = fetcam::obs::quantile(hist, 0.5);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p50, 2.0);
    // Clamped to observed extremes, so the estimate never exceeds reality.
    EXPECT_GE(fetcam::obs::quantile(hist, 0.001), hist.min());
    EXPECT_LE(fetcam::obs::quantile(hist, 0.999), hist.max());

    hist.reset();
    hist.observe(0.5);
    hist.observe(3.0);
    hist.observe(6.0);
    hist.observe(100.0);  // overflow bucket
    EXPECT_LE(fetcam::obs::quantile(hist, 0.25), fetcam::obs::quantile(hist, 0.9));
    EXPECT_LE(fetcam::obs::quantile(hist, 0.999), 100.0);
    EXPECT_GE(fetcam::obs::quantile(hist, 0.01), 0.5);
}
