// NET — serving front-end micro-benchmarks: wire-protocol codec throughput
// (encode + incremental decode of CRC-framed QueryBatch messages, with a
// round-trip identity check) and the deadline-shed fast path (expired
// queries must be answered orders of magnitude faster than live ones,
// because they are refused before any entry is scanned and charged no
// search energy).
//
// Flags (beyond the shared --trace/--jobs): --frames N (default 200k),
// --batch N keys per frame (default 16), --queries N for the shed study
// (default 50k), --seed S.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/protocol.hpp"
#include "numeric/stats.hpp"
#include "obs/obs.hpp"
#include "serve/query_engine.hpp"

using namespace fetcam;

namespace {

double now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t randomBits(numeric::Rng& rng, std::uint32_t wordBits) {
    std::uint64_t v = 0;
    for (std::uint32_t got = 0; got < wordBits; got += 16)
        v = (v << 16) | static_cast<std::uint64_t>(rng.uniformInt(0, 0xFFFF));
    return wordBits >= 64 ? v : v & ((std::uint64_t{1} << wordBits) - 1);
}

net::QueryBatchBody makeBatch(std::uint64_t id, int keys, std::uint32_t wordBits,
                              numeric::Rng& rng) {
    net::QueryBatchBody b;
    b.requestId = id;
    b.deadlineMicros = 250;
    for (int k = 0; k < keys; ++k)
        b.keys.push_back(tcam::TernaryWord::fromBits(randomBits(rng, wordBits), wordBits));
    return b;
}

struct CodecResult {
    std::int64_t frames = 0;
    std::int64_t bytes = 0;
    double encodePerSec = 0.0;
    double decodePerSec = 0.0;
    double decodeMBps = 0.0;
    bool identical = false;
};

/// Encode N QueryBatch frames, then decode them back through the same
/// incremental decodeFrame() path the server's read loop uses (frames
/// concatenated into one stream, consumed frame by frame).
CodecResult runCodec(std::int64_t frames, int keysPerFrame, std::uint64_t seed) {
    constexpr std::uint32_t kWordBits = 32;
    numeric::Rng rng = numeric::Rng::forStream(seed, 0xBE5C);

    std::vector<net::QueryBatchBody> bodies;
    bodies.reserve(static_cast<std::size_t>(frames));
    for (std::int64_t i = 0; i < frames; ++i)
        bodies.push_back(makeBatch(static_cast<std::uint64_t>(i) + 1, keysPerFrame,
                                   kWordBits, rng));

    CodecResult r;
    r.frames = frames;

    double t0 = now();
    std::string stream;
    for (const auto& b : bodies)
        stream += net::encodeFrame(net::MsgType::QueryBatch, net::encodeQueryBatch(b));
    const double encodeSeconds = now() - t0;
    r.bytes = static_cast<std::int64_t>(stream.size());
    r.encodePerSec = static_cast<double>(frames) / encodeSeconds;

    bool identical = true;
    std::int64_t decoded = 0;
    t0 = now();
    std::string_view rest = stream;
    while (!rest.empty()) {
        const auto d = net::decodeFrame(rest, net::kDefaultMaxFrameBytes);
        if (d.status != net::DecodeResult::Status::Ok) {
            identical = false;
            break;
        }
        std::string err;
        const auto body = net::decodeQueryBatch(
            d.frame.body, kWordBits, static_cast<std::uint32_t>(keysPerFrame), &err);
        if (!body || body->requestId != static_cast<std::uint64_t>(decoded) + 1 ||
            body->keys != bodies[static_cast<std::size_t>(decoded)].keys)
            identical = false;
        ++decoded;
        rest.remove_prefix(d.consumed);
    }
    const double decodeSeconds = now() - t0;
    r.decodePerSec = static_cast<double>(decoded) / decodeSeconds;
    r.decodeMBps = static_cast<double>(r.bytes) / decodeSeconds / 1e6;
    r.identical = identical && decoded == frames;
    return r;
}

struct ShedResult {
    std::int64_t queries = 0;
    double liveQps = 0.0;
    double expiredQps = 0.0;
    double speedup = 0.0;
    double liveEnergy = 0.0;
    double expiredEnergy = 0.0;
    bool accounted = false;
};

/// Live queries pay a full masked scan; expired ones must be refused at
/// admission without touching a single entry or joule.
ShedResult runDeadlineShed(std::int64_t queries, std::uint64_t seed) {
    serve::EngineOptions o;
    o.shard.cell = tcam::CellKind::FeFet2;
    o.shard.sense = array::SenseScheme::LowSwing;
    o.shard.wordBits = 16;
    o.shard.rows = 64;
    o.capacity = 256;
    serve::QueryEngine engine(o);
    numeric::Rng rng = numeric::Rng::forStream(seed, 0x5EED);
    for (std::int64_t i = 0; i < engine.capacity(); ++i)
        engine.insert(tcam::TernaryWord::fromBits(randomBits(rng, 16), 16));

    constexpr int kBatch = 64;
    std::vector<tcam::TernaryWord> keys;
    keys.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i)
        keys.push_back(tcam::TernaryWord::fromBits(randomBits(rng, 16), 16));
    const std::int64_t batches = (queries + kBatch - 1) / kBatch;

    ShedResult r;
    r.queries = batches * kBatch;

    // Deadlines are absolute obs::monotonicSeconds() values; 0 means "no
    // deadline", so the already-expired one must stay strictly positive.
    const std::vector<double> live(kBatch, obs::monotonicSeconds() + 3600.0);
    const std::vector<double> expired(kBatch, 1e-9);
    serve::SubmitOptions liveOpts;
    liveOpts.deadlines = &live;
    serve::SubmitOptions expiredOpts;
    expiredOpts.deadlines = &expired;

    const double e0 = engine.stats().searchEnergy;
    double t0 = now();
    for (std::int64_t b = 0; b < batches; ++b) engine.searchBatch(keys, 1, liveOpts);
    r.liveQps = static_cast<double>(r.queries) / (now() - t0);
    r.liveEnergy = engine.stats().searchEnergy - e0;

    const double e1 = engine.stats().searchEnergy;
    t0 = now();
    for (std::int64_t b = 0; b < batches; ++b)
        engine.searchBatch(keys, 1, expiredOpts);
    r.expiredQps = static_cast<double>(r.queries) / (now() - t0);
    r.expiredEnergy = engine.stats().searchEnergy - e1;

    r.speedup = r.expiredQps / r.liveQps;
    r.accounted = engine.stats().deadlineExpired == r.queries &&
                  r.expiredEnergy == 0.0 && r.liveEnergy > 0.0;
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    bench::initObs(argc, argv);

    std::int64_t frames = 200'000;
    int batch = 16;
    std::int64_t queries = 50'000;
    std::uint64_t seed = 42;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--frames" && i + 1 < argc) {
            frames = std::atoll(argv[++i]);
        } else if (arg == "--batch" && i + 1 < argc) {
            batch = std::atoi(argv[++i]);
        } else if (arg == "--queries" && i + 1 < argc) {
            queries = std::atoll(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else {
            std::fprintf(stderr,
                         "usage: bench_net [--frames N] [--batch K] [--queries N] "
                         "[--seed S]\n");
            return 2;
        }
    }
    if (frames < 1 || batch < 1 || queries < 1) {
        std::fprintf(stderr, "error: --frames/--batch/--queries must be >= 1\n");
        return 2;
    }

    bench::banner("NET", "serving front-end: codec + deadline shed",
                  "codec round-trips bit-identically at >=100k frames/s; expired "
                  "queries shed far faster than live scans and charge zero energy");

    const CodecResult c = runCodec(frames, batch, seed);
    core::Table ct({"codec path", "frames", "keys/frame", "rate", "identical"});
    ct.addRow({"encode", std::to_string(c.frames), std::to_string(batch),
               core::engFormat(c.encodePerSec, "fr/s"), ""});
    ct.addRow({"decode+validate", std::to_string(c.frames), std::to_string(batch),
               core::engFormat(c.decodePerSec, "fr/s") + " (" +
                   core::numFormat(c.decodeMBps, 1) + " MB/s)",
               c.identical ? "yes" : "NO"});
    std::printf("%s\n", ct.toAligned().c_str());

    const ShedResult s = runDeadlineShed(queries, seed);
    core::Table st({"admission path", "queries", "rate", "energy", "accounted"});
    st.addRow({"live scan", std::to_string(s.queries),
               core::engFormat(s.liveQps, "q/s"), core::engFormat(s.liveEnergy, "J"),
               ""});
    st.addRow({"expired shed", std::to_string(s.queries),
               core::engFormat(s.expiredQps, "q/s"),
               core::engFormat(s.expiredEnergy, "J"), s.accounted ? "yes" : "NO"});
    std::printf("shed speedup over live scan: %sx\n\n",
                core::numFormat(s.speedup, 1).c_str());

    std::printf("%s\n", st.toAligned().c_str());

    if (!c.identical) {
        std::fprintf(stderr, "FAIL: codec round trip diverged\n");
        return 1;
    }
    if (!s.accounted) {
        std::fprintf(stderr,
                     "FAIL: deadline shed accounting (expired energy must be zero)\n");
        return 1;
    }
    return 0;
}
