// fetcam_e2e — end-to-end lookup benchmark:
//   client -> net::Server -> QueryEngine -> MatchBackend, over loopback.
//
//   fetcam_e2e --workload lookup_4k|lookup_64k|mixed_4k --seed N --seconds S
//              --trace 0|1 [--trace-out FILE]
//
// The server runs in-process, configured like `fetcam_serve --listen`
// (FeFET2 cells, low-swing sense, 16-row shards, 0.5 ms coalesce window,
// maxBatch 4096) with the engine's worker team fixed at 2. It is driven by a
// single-threaded open-loop generator over 2 loopback connections: requests
// go out on a fixed schedule whatever the replies do, many stay in flight on
// each connection, replies are matched by requestId, and every latency is
// counted from the request's *scheduled* send time. Thread budget: generator
// + poll loop + 2 engine workers = the 4 cores the figures were taken on.
//
// Every reply is checked against an independent scalar oracle over the seed
// table; any wrong answer exits 2. A generator that fell behind its schedule
// makes the run invalid (exit 3), not slow.
//
// --trace 0 measures the end-to-end metrics with the program's
// instrumentation off. --trace 1 repeats the nominal phase with it on, then
// replays the run's own recorded requests through each layer's public
// functions, timing each call with the benchmark's own spans (written as
// JSONL to --trace-out) and reading the counters and histogram means the
// program exports. The last stdout line is one JSON object.
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <arpa/inet.h>
#include <fcntl.h>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "listen_workload.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/obs.hpp"
#include "recover/sim_error.hpp"
#include "serve/match_backend.hpp"
#include "serve/query_engine.hpp"

using namespace fetcam;

namespace {

constexpr int kWordBits = 64;
constexpr int kKeysPerRequest = 16;
constexpr int kShardRows = 16;
constexpr int kEngineJobs = 2;
constexpr int kConnections = 2;
constexpr std::uint32_t kMaxBatch = 4096;
constexpr double kCoalesceWindow = 0.5e-3;
/// Exact-match p99 limit of max_qps_at_slo [s]. On the 4-vCPU VM the
/// figures were taken on, hypervisor stalls put the p99 of a lightly loaded
/// server anywhere from 2 to 30 ms from one minute to the next, so a lower
/// limit is crossed by the neighbours' load, not ours; 50 ms sits above
/// that and below the saturation cliff (hundreds of ms).
constexpr double kSlo = 50e-3;
constexpr int kLadderSteps = 10;
constexpr double kLadderRatio = 1.26;
constexpr int kBisectSteps = 4;
/// Requests the generator keeps in flight at most (about 256 KiB of frames
/// per connection). The server drops a connection whose unread pipeline
/// passes 1 MiB, so an overloaded step stops sending here instead, falls
/// behind its schedule and fails.
constexpr std::int64_t kMaxOutstanding = 512;
/// Shares of --seconds: the nominal phase (halved and run twice, untraced
/// and traced, with --trace 1) and the rate ladder.
constexpr double kNominalShare = 0.4;
constexpr double kLadderShare = 0.5;
constexpr int kNearestK = 8;
constexpr int kSetupReps = 3;
constexpr std::size_t kKeyPool = 4096;
/// A send later than the SLO at p99 (or a lateness that grows by that much
/// across a phase) means the generator, not the server, set the pace: its
/// latencies can no longer be judged against the SLO. Not tighter because
/// of the same stalls: a bare ppoll loop on that VM wakes 0.4 ms late at
/// p99 and 5 ms late at p99.9, and more under load.
constexpr double kLatenessLimit = kSlo;
constexpr double kDrainTimeout = 5.0;

double now() { return obs::monotonicSeconds(); }

/// Every p99 the benchmark reports or gates on is chunked (see
/// e2e::chunkedPercentile): the VM's stall bursts otherwise decide it.
double p99(const std::vector<double>& v) {
    return e2e::chunkedPercentile(v, e2e::chunksFor(v.size()), 0.99);
}

struct Workload {
    const char* name;
    std::int64_t entries;
    double nominalQps;   ///< exact-match queries/s in the nominal phase
    double simShare;     ///< share of requests that are nearest-8 Similarity frames
    double mutateRate;   ///< Mutate ops/s (erase / reinstall of seed rows)
};

// Nominal rates sit near a quarter of each workload's measured
// max_qps_at_slo: at half, queueing amplified the VM's slow spells into
// 2x run-to-run swings of the tail latencies.
constexpr Workload kWorkloads[] = {
    {"lookup_4k", 4096, 12500.0, 0.0, 0.0},
    {"lookup_64k", 65536, 1500.0, 0.0, 0.0},
    {"mixed_4k", 4096, 12500.0, 0.02, 2000.0},
};

// --------------------------------------------------------------------------
// Spans: kept in memory, written as JSONL when the run ends.

struct Span {
    std::string name;
    std::int64_t id = 0;
    std::int64_t parent = 0;
    double start = 0.0;
    double end = 0.0;
    std::int64_t work = 0;  ///< items processed inside the span
};

class Spans {
public:
    std::int64_t add(std::string name, std::int64_t parent, double start, double end,
                     std::int64_t work = 0) {
        const auto id = static_cast<std::int64_t>(spans_.size()) + 1;
        spans_.push_back({std::move(name), id, parent, start, end, work});
        return id;
    }
    /// Time fn() as one span; returns its duration [s].
    double time(const std::string& name, std::int64_t parent, std::int64_t work,
                const std::function<void()>& fn) {
        const double t0 = now();
        fn();
        const double t1 = now();
        add(name, parent, t0, t1, work);
        return t1 - t0;
    }
    bool write(const std::string& path) const {
        std::filesystem::path p(path);
        if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
        std::ofstream out(path);
        for (const auto& s : spans_) {
            char line[256];
            std::snprintf(line, sizeof line,
                          "{\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                          "\"start_s\": %.9f, \"dur_s\": %.9f, \"work\": %lld}\n",
                          s.name.c_str(), static_cast<long long>(s.id),
                          static_cast<long long>(s.parent), s.start, s.end - s.start,
                          static_cast<long long>(s.work));
            out << line;
        }
        return static_cast<bool>(out);
    }

private:
    std::vector<Span> spans_;
};

// --------------------------------------------------------------------------
// Workload data: seed table, key pool and the oracle's answers.

struct Data {
    const Workload* w = nullptr;
    std::vector<tcam::TernaryWord> table;
    std::vector<tcam::TernaryWord> pool;
    std::vector<std::uint64_t> poolBits;
    std::vector<std::int64_t> expected;  ///< oracle row per pool key
    std::unique_ptr<e2e::Oracle> oracle;
    bool mutates() const { return w->mutateRate > 0.0; }
};

Data makeData(const Workload& w, std::uint64_t seed) {
    Data d;
    d.w = &w;
    d.table = tools::makeListenEntries(seed, w.entries, kWordBits);
    d.oracle = std::make_unique<e2e::Oracle>(d.table);
    // Stream 2^40 lies far past the entry streams makeListenEntries uses.
    numeric::Rng rng = numeric::Rng::forStream(seed, std::uint64_t{1} << 40);
    for (std::size_t i = 0; i < kKeyPool; ++i) {
        if (i % 2 == 0) {
            const int e = rng.uniformInt(0, static_cast<int>(w.entries) - 1);
            d.pool.push_back(tools::specializeKey(d.table[static_cast<std::size_t>(e)], rng));
        } else {
            d.pool.push_back(tools::randomKey(kWordBits, rng));
        }
        d.poolBits.push_back(e2e::packKey(d.pool.back()));
        d.expected.push_back(d.oracle->firstMatch(d.poolBits.back()));
    }
    return d;
}

// --------------------------------------------------------------------------
// Serving stack set-up (timed: setup_s).

serve::EngineOptions engineOptions(const Workload& w) {
    serve::EngineOptions o;
    o.shard.cell = tcam::CellKind::FeFet2;
    o.shard.sense = array::SenseScheme::LowSwing;
    o.shard.rows = kShardRows;
    o.shard.wordBits = kWordBits;
    o.capacity = w.entries;
    o.backend = serve::MatchBackendKind::BitPlane;
    return o;
}

struct Stack {
    std::shared_ptr<serve::CharacterizationCache> cache;
    std::unique_ptr<serve::QueryEngine> engine;
    std::unique_ptr<net::Server> server;
    double constructS = 0.0, fillS = 0.0, lazyS = 0.0, startS = 0.0;
    double total() const { return constructS + fillS + lazyS + startS; }
};

/// Cold start to ready-to-serve: fresh in-memory characterization cache
/// (solver runs included), table fill through insert(), the lazy costs the
/// workload will use, and Server::start().
Stack buildStack(const Data& d, Spans& spans, std::int64_t parent) {
    Stack s;
    s.constructS = spans.time("setup.construct", parent, 1, [&] {
        s.cache = std::make_shared<serve::CharacterizationCache>();
        s.engine = std::make_unique<serve::QueryEngine>(engineOptions(*d.w), s.cache);
    });
    s.fillS = spans.time("setup.fill", parent, static_cast<std::int64_t>(d.table.size()), [&] {
        for (const auto& word : d.table) s.engine->insert(word);
    });
    s.lazyS = spans.time("setup.lazy_costs", parent, 0, [&] {
        if (d.mutates()) {
            s.engine->writeCost();
            s.engine->simCost();
        }
    });
    s.startS = spans.time("setup.start", parent, 1, [&] {
        net::ServerOptions so;
        so.maxBatch = kMaxBatch;
        so.coalesceWindow = kCoalesceWindow;
        so.jobs = kEngineJobs;
        s.server = std::make_unique<net::Server>(*s.engine, so);
        s.server->start();
    });
    return s;
}

// --------------------------------------------------------------------------
// The generator.

enum class Kind : std::uint8_t { Exact, Similarity, Mutate };

struct Pending {
    double scheduled = 0.0;
    Kind kind = Kind::Exact;
    std::uint32_t keyOffset = 0;  ///< into keyLog_ (Exact / Similarity)
    std::uint16_t keys = 0;
    /// Mutation cycles from here on (erase of a row, then its reinstall)
    /// were not settled when the request went out: their rows may be
    /// missing from the table that answers it.
    std::int64_t openFrom = 0;
    std::int64_t row = -1;     ///< Mutate target
    std::int64_t cycle = -1;   ///< Mutate: its cycle
    bool reinstall = false;    ///< Mutate: InsertAt (else Erase)
    bool done = false;
};

struct PhaseSpec {
    double exactQps = 0.0;   ///< exact-match keys/s
    double simRate = 0.0;    ///< Similarity frames/s
    double mutateRate = 0.0; ///< Mutate frames/s (one op each)
    double seconds = 0.0;
    bool record = false;     ///< keep frames/keys for the layer replays
};

struct PhaseStats {
    std::vector<double> exactLat, simLat, mutateLat, lateness;
    std::int64_t attempted = 0;  ///< query keys + similarity keys + mutation ops
    std::int64_t failed = 0;     ///< shed, expired or timed out (protocol errors throw)
    std::int64_t exactDone = 0;  ///< keys answered Hit/Miss
    double start = 0.0, end = 0.0;  ///< the sending window
    double lastReply = 0.0;
    double achievedQps() const {
        return lastReply > start ? static_cast<double>(exactDone) / (lastReply - start) : 0.0;
    }
};

class Generator {
public:
    Generator(const Data& d, int port, std::uint64_t seed)
        : d_(d), rng_(numeric::Rng::forStream(seed, (std::uint64_t{1} << 40) + 1)) {
        for (int c = 0; c < kConnections; ++c) conns_.push_back(connectTo(port));
        // Erase/reinstall targets cycle through a seeded permutation of the rows.
        mutateRows_.resize(static_cast<std::size_t>(d.w->entries));
        std::iota(mutateRows_.begin(), mutateRows_.end(), 0);
        for (std::size_t i = mutateRows_.size(); i > 1; --i)
            std::swap(mutateRows_[i - 1],
                      mutateRows_[static_cast<std::size_t>(rng_.uniformInt(0, static_cast<int>(i) - 1))]);
    }
    ~Generator() {
        for (auto& c : conns_) ::close(c.fd);
    }
    Generator(const Generator&) = delete;
    Generator& operator=(const Generator&) = delete;

    PhaseStats run(const PhaseSpec& spec, Spans* spans = nullptr, std::int64_t parent = 0);

    const std::vector<std::string>& violations() const { return violations_; }
    std::int64_t totalHits() const { return totalHits_; }
    std::int64_t totalMisses() const { return totalMisses_; }
    /// Requests given up on at a phase's drain timeout.
    std::int64_t abandoned() const { return abandoned_; }
    /// Seed rows the table may lack now: erased, reinstall not acknowledged.
    std::vector<std::int64_t> absentNow() const { return absentSince(settled_); }

    // Recorded by phases with spec.record, for the layer replays.
    std::vector<std::string> requestFrames;  ///< encoded QueryBatch frames
    std::vector<std::string> replyBodies;    ///< BatchReply bodies as received
    std::vector<std::uint32_t> exactKeys;    ///< pool indices sent as exact keys

private:
    struct Conn {
        int fd = -1;
        std::string rbuf;
        std::string wbuf;
    };

    static Conn connectTo(int port);
    void send(int c, net::MsgType type, const std::string& body);
    void flush(Conn& conn);
    void receive(Conn& conn, double t, PhaseStats& st, Spans* spans, std::int64_t parent);
    void onFrame(const net::Frame& f, double t, PhaseStats& st, Spans* spans,
                 std::int64_t parent);
    std::uint32_t drawKeys(int n);
    std::int64_t cycleRow(std::int64_t cycle) const {
        return mutateRows_[static_cast<std::size_t>(cycle) % mutateRows_.size()];
    }
    std::vector<std::int64_t> absentSince(std::int64_t openFrom) const;
    void violate(std::string what) {
        if (violations_.size() < 20) violations_.push_back(std::move(what));
        else violations_.back() = "... and more";
    }

    const Data& d_;
    numeric::Rng rng_;
    std::vector<Conn> conns_;
    /// This phase's requests, indexed by requestId - firstId_; cleared
    /// between phases so the process's peak RSS tracks the program, not the
    /// generator's history.
    std::vector<Pending> pending_;
    std::uint64_t firstId_ = 1;
    std::vector<std::uint32_t> keyLog_;
    /// Erase/reinstall targets: cycle j erases, then reinstalls, row
    /// mutateRows_[j mod rows], all on one connection, so the server
    /// applies them in order.
    std::vector<std::int64_t> mutateRows_;
    std::int64_t erasesSent_ = 0;  ///< cycles whose erase went out
    std::int64_t settled_ = 0;     ///< cycles before this one are reinstalled
    /// Rows whose reinstall failed or was abandoned (absent until a later
    /// cycle reinstalls them).
    std::vector<std::int64_t> lost_;
    bool eraseNext_ = true;
    std::int64_t outstanding_ = 0;
    /// Request-id ranges [first, last) given up on at a drain timeout; a
    /// late reply in one is counted, not judged.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> abandonedIds_;
    std::int64_t abandoned_ = 0;
    bool recording_ = false;
    std::vector<std::string> violations_;
    std::int64_t totalHits_ = 0, totalMisses_ = 0;
};

std::vector<std::int64_t> Generator::absentSince(std::int64_t openFrom) const {
    std::vector<std::int64_t> rows = lost_;
    const auto n = static_cast<std::int64_t>(mutateRows_.size());
    for (std::int64_t j = std::max(openFrom, erasesSent_ - n); j < erasesSent_; ++j)
        rows.push_back(cycleRow(j));
    return rows;
}

Generator::Conn Generator::connectTo(int port) {
    Conn c;
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        const std::string why = std::strerror(errno);
        ::close(c.fd);
        throw std::runtime_error("connect: " + why);
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // Blocking read of the Hello, then non-blocking for the run.
    while (true) {
        char buf[4096];
        const auto n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n <= 0) throw std::runtime_error("server closed before its Hello");
        c.rbuf.append(buf, static_cast<std::size_t>(n));
        const auto r = net::decodeFrame(c.rbuf, net::kDefaultMaxFrameBytes);
        if (r.status == net::DecodeResult::Status::NeedMore) continue;
        std::string err;
        if (r.status != net::DecodeResult::Status::Ok || r.frame.type != net::MsgType::Hello ||
            !net::decodeHello(r.frame.body, &err))
            throw std::runtime_error("bad Hello from server " + err);
        c.rbuf.erase(0, r.consumed);
        break;
    }
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
    return c;
}

std::uint32_t Generator::drawKeys(int n) {
    const auto offset = static_cast<std::uint32_t>(keyLog_.size());
    for (int i = 0; i < n; ++i)
        keyLog_.push_back(static_cast<std::uint32_t>(rng_.uniformInt(0, kKeyPool - 1)));
    return offset;
}

void Generator::flush(Conn& conn) {
    while (!conn.wbuf.empty()) {
        const auto n = ::send(conn.fd, conn.wbuf.data(), conn.wbuf.size(), MSG_NOSIGNAL);
        if (n > 0) {
            conn.wbuf.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
        throw std::runtime_error("send: connection to the server failed");
    }
}

void Generator::send(int c, net::MsgType type, const std::string& body) {
    auto& conn = conns_[static_cast<std::size_t>(c)];
    std::string frame = net::encodeFrame(type, body);
    if (recording_ && type == net::MsgType::QueryBatch && requestFrames.size() < 4096)
        requestFrames.push_back(frame);
    conn.wbuf += frame;
    flush(conn);
}

void Generator::receive(Conn& conn, double t, PhaseStats& st, Spans* spans,
                        std::int64_t parent) {
    char buf[65536];
    while (true) {
        const auto n = ::recv(conn.fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn.rbuf.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("server closed a connection mid-run");
    }
    std::size_t used = 0;
    while (true) {
        const auto r = net::decodeFrame(std::string_view(conn.rbuf).substr(used),
                                        net::kDefaultMaxFrameBytes);
        if (r.status == net::DecodeResult::Status::NeedMore) break;
        if (r.status == net::DecodeResult::Status::Bad)
            throw std::runtime_error("undecodable reply frame: " + r.message);
        used += r.consumed;
        onFrame(r.frame, t, st, spans, parent);
    }
    conn.rbuf.erase(0, used);
}

void Generator::onFrame(const net::Frame& f, double t, PhaseStats& st, Spans* spans,
                        std::int64_t parent) {
    std::string err;
    auto lookup = [&](std::uint64_t id) -> Pending* {
        if (id < firstId_ && std::any_of(abandonedIds_.begin(), abandonedIds_.end(),
                                         [&](const auto& r) { return id >= r.first && id < r.second; }))
            return nullptr;  // a late reply of a request already counted as failed
        if (id < firstId_ || id - firstId_ >= pending_.size() || pending_[id - firstId_].done) {
            violate("reply for unknown or answered request " + std::to_string(id));
            return nullptr;
        }
        Pending& p = pending_[id - firstId_];
        p.done = true;
        --outstanding_;
        return &p;
    };
    switch (f.type) {
        case net::MsgType::BatchReply: {
            auto reply = net::decodeBatchReply(f.body, &err);
            if (!reply) throw std::runtime_error("bad BatchReply: " + err);
            Pending* p = lookup(reply->requestId);
            if (!p) return;
            if (p->kind != Kind::Exact || reply->rows.size() != p->keys) {
                violate("BatchReply shape does not match request " +
                        std::to_string(reply->requestId));
                return;
            }
            if (recording_ && replyBodies.size() < 4096) replyBodies.push_back(f.body);
            const auto absent = absentSince(p->openFrom);
            for (std::size_t i = 0; i < reply->rows.size(); ++i) {
                const std::uint32_t k = keyLog_[p->keyOffset + i];
                const std::int64_t row = reply->rows[i];
                const auto status = reply->status[i];
                if (status == net::QueryStatus::Shed || status == net::QueryStatus::DeadlineExceeded) {
                    ++st.failed;
                    continue;
                }
                if ((status == net::QueryStatus::Hit) != (row >= 0))
                    violate("status/row disagree for request " + std::to_string(reply->requestId));
                const std::string bad =
                    d_.oracle->checkRow(d_.poolBits[k], d_.expected[k], row, absent);
                if (!bad.empty()) violate("request " + std::to_string(reply->requestId) + ": " + bad);
                ++st.exactDone;
                ++(row >= 0 ? totalHits_ : totalMisses_);
            }
            st.exactLat.push_back(t - p->scheduled);
            if (spans) spans->add("client.exact_request", parent, p->scheduled, t, p->keys);
            st.lastReply = std::max(st.lastReply, t);
            break;
        }
        case net::MsgType::SimilarityReply: {
            auto reply = net::decodeSimilarityReply(f.body, &err);
            if (!reply) throw std::runtime_error("bad SimilarityReply: " + err);
            Pending* p = lookup(reply->requestId);
            if (!p) return;
            if (p->kind != Kind::Similarity || reply->hits.size() != p->keys) {
                violate("SimilarityReply shape does not match request " +
                        std::to_string(reply->requestId));
                return;
            }
            if (reply->admission != static_cast<std::uint8_t>(serve::BatchAdmission::Accepted)) {
                st.failed += p->keys;
            } else {
                const auto absent = absentSince(p->openFrom);
                for (std::size_t i = 0; i < reply->hits.size(); ++i) {
                    std::vector<std::int64_t> rows;
                    std::vector<std::uint32_t> dist;
                    for (const auto& h : reply->hits[i]) {
                        rows.push_back(h.row);
                        dist.push_back(h.distance);
                    }
                    const std::string bad = d_.oracle->checkNearest(
                        d_.poolBits[keyLog_[p->keyOffset + i]], kNearestK, rows, dist, absent);
                    if (!bad.empty())
                        violate("similarity request " + std::to_string(reply->requestId) + ": " + bad);
                }
            }
            st.simLat.push_back(t - p->scheduled);
            if (spans) spans->add("client.similarity_request", parent, p->scheduled, t, p->keys);
            break;
        }
        case net::MsgType::MutateReply: {
            auto reply = net::decodeMutateReply(f.body, &err);
            if (!reply) throw std::runtime_error("bad MutateReply: " + err);
            Pending* p = lookup(reply->requestId);
            if (!p) return;
            if (p->kind != Kind::Mutate || reply->rows.size() != 1) {
                violate("MutateReply shape does not match request " +
                        std::to_string(reply->requestId));
                return;
            }
            if (reply->status[0] == net::MutateStatus::Rejected ||
                reply->status[0] == net::MutateStatus::TableFull) {
                ++st.failed;
                if (p->reinstall) lost_.push_back(p->row);
            } else if (reply->status[0] != net::MutateStatus::Ok || reply->rows[0] != p->row) {
                violate("mutation of row " + std::to_string(p->row) + " answered " +
                        net::mutateStatusName(reply->status[0]));
            } else if (p->reinstall) {
                settled_ = std::max(settled_, p->cycle + 1);
                std::erase(lost_, p->row);
            }
            st.mutateLat.push_back(t - p->scheduled);
            if (spans) spans->add("client.mutate_request", parent, p->scheduled, t, 1);
            break;
        }
        case net::MsgType::Error: {
            auto e = net::decodeError(f.body, &err);
            throw std::runtime_error("server protocol error: " + (e ? e->message : err));
        }
        case net::MsgType::Drain:
            return;
        default:
            throw std::runtime_error("unexpected frame type from server");
    }
}

PhaseStats Generator::run(const PhaseSpec& spec, Spans* spans, std::int64_t parent) {
    PhaseStats st;
    recording_ = spec.record;
    firstId_ += pending_.size();
    pending_ = {};
    keyLog_ = {};
    const double exactPeriod = spec.exactQps > 0.0 ? kKeysPerRequest / spec.exactQps : 0.0;
    const double simPeriod = spec.simRate > 0.0 ? 1.0 / spec.simRate : 0.0;
    const double mutatePeriod = spec.mutateRate > 0.0 ? 1.0 / spec.mutateRate : 0.0;
    const double inf = std::numeric_limits<double>::infinity();
    st.start = now() + 1e-3;
    st.end = st.start + spec.seconds;
    const double end = st.end;
    // Three fixed-rate streams, offset so they do not fire together.
    double nextExact = exactPeriod > 0.0 ? st.start : inf;
    double nextSim = simPeriod > 0.0 ? st.start + simPeriod / 2 : inf;
    double nextMutate = mutatePeriod > 0.0 ? st.start + mutatePeriod / 3 : inf;
    int exactConn = 0, simConn = 0;

    std::vector<pollfd> fds;
    while (true) {
        double t = now();
        // Send everything due, in schedule order.
        while (outstanding_ < kMaxOutstanding) {
            const double due = std::min({nextExact, nextSim, nextMutate});
            if (due >= end || due > t) break;
            Pending p;
            p.scheduled = due;
            p.openFrom = settled_;
            const auto id = firstId_ + pending_.size();
            if (due == nextExact) {
                p.kind = Kind::Exact;
                p.keys = kKeysPerRequest;
                p.keyOffset = drawKeys(kKeysPerRequest);
                net::QueryBatchBody body;
                body.requestId = id;
                for (int i = 0; i < kKeysPerRequest; ++i) {
                    const std::uint32_t k = keyLog_[p.keyOffset + static_cast<std::uint32_t>(i)];
                    body.keys.push_back(d_.pool[k]);
                    if (spec.record) exactKeys.push_back(k);
                }
                pending_.push_back(p);
                send(exactConn, net::MsgType::QueryBatch, net::encodeQueryBatch(body));
                exactConn = (exactConn + 1) % kConnections;
                nextExact += exactPeriod;
                st.attempted += kKeysPerRequest;
            } else if (due == nextSim) {
                p.kind = Kind::Similarity;
                p.keys = kKeysPerRequest;
                p.keyOffset = drawKeys(kKeysPerRequest);
                net::SimilarityBody body;
                body.requestId = id;
                body.kind = sim::SimilarityKind::NearestK;
                body.param = kNearestK;
                body.maxResults = kNearestK;
                for (int i = 0; i < kKeysPerRequest; ++i)
                    body.keys.push_back(d_.pool[keyLog_[p.keyOffset + static_cast<std::uint32_t>(i)]]);
                pending_.push_back(p);
                send(simConn, net::MsgType::Similarity, net::encodeSimilarity(body));
                simConn = (simConn + 1) % kConnections;
                nextSim += simPeriod;
                st.attempted += kKeysPerRequest;
            } else {
                // Erase a seed row, then reinstall it: the table only ever
                // holds a subset of the seed rows. All mutations share one
                // connection so the server applies them in order.
                p.kind = Kind::Mutate;
                p.reinstall = !eraseNext_;
                p.cycle = p.reinstall ? erasesSent_ - 1 : erasesSent_++;
                p.row = cycleRow(p.cycle);
                net::MutateBody body;
                body.requestId = id;
                net::MutateOpSpec op;
                op.row = p.row;
                if (p.reinstall) {
                    op.op = net::MutateOp::InsertAt;
                    op.word = d_.table[static_cast<std::size_t>(p.row)];
                } else {
                    op.op = net::MutateOp::Erase;
                }
                eraseNext_ = !eraseNext_;
                body.ops.push_back(std::move(op));
                pending_.push_back(p);
                send(0, net::MsgType::Mutate, net::encodeMutate(body));
                nextMutate += mutatePeriod;
                st.attempted += 1;
            }
            ++outstanding_;
            st.lateness.push_back(now() - p.scheduled);
        }

        const bool sending = std::min({nextExact, nextSim, nextMutate}) < end;
        if (!sending && outstanding_ == 0) break;
        if (!sending && t > end + kDrainTimeout) {
            // Whatever has not come back by now never will in time.
            st.failed += outstanding_;
            abandoned_ += outstanding_;
            for (auto& p : pending_) {
                if (!p.done && p.kind == Kind::Mutate && p.reinstall) lost_.push_back(p.row);
                p.done = true;
            }
            abandonedIds_.emplace_back(firstId_, firstId_ + pending_.size());
            outstanding_ = 0;
            break;
        }

        double wait = 0.01;
        if (sending && outstanding_ < kMaxOutstanding)
            wait = std::max(0.0, std::min({nextExact, nextSim, nextMutate}) - t);
        fds.clear();
        for (const auto& c : conns_)
            fds.push_back({c.fd, static_cast<short>(POLLIN | (c.wbuf.empty() ? 0 : POLLOUT)), 0});
        timespec ts;
        ts.tv_sec = static_cast<time_t>(wait);
        ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
        const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        if (rc < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
        t = now();
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents & POLLOUT) flush(conns_[i]);
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) receive(conns_[i], t, st, spans, parent);
        }
    }
    recording_ = false;
    return st;
}

// --------------------------------------------------------------------------
// Rate search: the highest offered exact-match rate that meets the SLO.

/// A ladder step's exact p99, or +inf when the step failed outright: errors,
/// a generator that fell behind, or a backlog (the last reply came more
/// than the SLO after the sending window closed).
double stepP99(const PhaseStats& st) {
    const bool ok = st.failed == 0 && !st.exactLat.empty() && st.lastReply - st.end <= kSlo &&
                    e2e::judgeLateness(st.lateness, kLatenessLimit).valid;
    return ok ? p99(st.exactLat) : std::numeric_limits<double>::infinity();
}

PhaseSpec mixAt(const Workload& w, double qps, double seconds) {
    PhaseSpec s;
    s.exactQps = qps;
    // simShare of all requests are Similarity frames on top of the exact stream.
    s.simRate = w.simShare > 0.0 ? (qps / kKeysPerRequest) * w.simShare / (1.0 - w.simShare) : 0.0;
    s.mutateRate = w.mutateRate;
    s.seconds = seconds;
    return s;
}

/// max_qps_at_slo. A ladder of geometric offered rates from `lo` (ratio
/// kLadderRatio, at most kLadderSteps) climbs until a step misses the SLO
/// (or, when `lo` itself misses, descends until one passes);
/// kBisectSteps geometric bisections then narrow the bracket, since the
/// latency curve ends in a cliff that a coarse ladder cannot place. The
/// steps' achieved rates and p99s go through sloCrossing.
double maxQpsAtSlo(Generator& gen, const Workload& w, double lo, double stepSeconds) {
    struct Step {
        double offered, achieved, p99;
    };
    std::vector<Step> steps;
    auto probe = [&](double rate) {
        const auto st = gen.run(mixAt(w, rate, stepSeconds));
        steps.push_back({rate, st.achievedQps(), stepP99(st)});
        std::printf("# ladder %.0f q/s offered: achieved %.0f, p50 %.3f ms, p99 %.3f ms, "
                    "failed %lld%s\n",
                    rate, st.achievedQps(), e2e::percentile(st.exactLat, 0.5) * 1e3,
                    p99(st.exactLat) * 1e3, static_cast<long long>(st.failed),
                    std::isinf(steps.back().p99) ? " (step failed)" : "");
        ::usleep(50000);  // let any backlog clear before the next step
        return steps.back().p99 <= kSlo;
    };
    double pass = 0.0, fail = 0.0;
    if (probe(lo)) {
        pass = lo;
        for (int i = 1; i < kLadderSteps && fail == 0.0; ++i)
            (probe(lo * std::pow(kLadderRatio, i)) ? pass : fail) = lo * std::pow(kLadderRatio, i);
    } else {
        // Missed at the start: step down until a rate passes.
        fail = lo;
        for (int i = 1; i <= 4 && pass == 0.0; ++i)
            (probe(lo / std::pow(kLadderRatio, i)) ? pass : fail) = lo / std::pow(kLadderRatio, i);
    }
    if (pass > 0.0 && fail > 0.0)
        for (int i = 0; i < kBisectSteps; ++i) {
            const double mid = std::sqrt(pass * fail);
            (probe(mid) ? pass : fail) = mid;
        }
    std::sort(steps.begin(), steps.end(),
              [](const Step& x, const Step& y) { return x.offered < y.offered; });
    std::vector<double> rates, p99s;
    for (const auto& st : steps) {
        rates.push_back(st.achieved);
        p99s.push_back(st.p99);
    }
    return e2e::sloCrossing(rates, p99s, kSlo);
}

// --------------------------------------------------------------------------
// Output.

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string jsonNumber(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void printResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
    for (const auto& m : metrics)
        std::printf("%-32s %16s %s\n", m.name.c_str(), jsonNumber(m.value).c_str(), m.unit.c_str());
    std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i) out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " + jsonNumber(metrics[i].value) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

double median(std::vector<double> v) { return e2e::percentile(std::move(v), 0.5); }

double peakRssMb() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double histMean(const char* name) {
    const auto& h = obs::histogram(name);
    return h.count() > 0 ? h.mean() : 0.0;
}

struct Args {
    const Workload* workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string traceOut;
};

Args parseArgs(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string opt = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value after " + opt);
        const std::string val = argv[++i];
        if (opt == "--workload") {
            for (const auto& w : kWorkloads)
                if (val == w.name) a.workload = &w;
            if (!a.workload) throw std::invalid_argument("unknown workload " + val);
        } else if (opt == "--seed") {
            a.seed = std::stoull(val);
        } else if (opt == "--seconds") {
            a.seconds = std::stod(val);
        } else if (opt == "--trace") {
            if (val != "0" && val != "1") throw std::invalid_argument("--trace expects 0 or 1");
            a.trace = val == "1";
        } else if (opt == "--trace-out") {
            a.traceOut = val;
        } else {
            throw std::invalid_argument("unknown option " + opt);
        }
    }
    if (!a.workload) throw std::invalid_argument("--workload is required");
    if (!(a.seconds >= 1.0)) throw std::invalid_argument("--seconds must be >= 1");
    if (a.traceOut.empty())
        a.traceOut = ".bench_out/e2e-" + std::string(a.workload->name) + "-seed" +
                     std::to_string(a.seed) + ".jsonl";
    return a;
}

/// Runs the server's event loop on its own thread; stops and joins it on
/// stop() or destruction, so no exit path leaves the thread running.
class ServerThread {
public:
    explicit ServerThread(net::Server& server) : server_(server) {
        thread_ = std::thread([this] {
            try {
                server_.run();
            } catch (...) {
                error_ = std::current_exception();
            }
        });
    }
    ~ServerThread() {
        join();
        // Only reached without stop() when the run is already failing.
        if (error_) std::fprintf(stderr, "fetcam_e2e: server thread failed as well\n");
    }
    ServerThread(const ServerThread&) = delete;
    ServerThread& operator=(const ServerThread&) = delete;
    /// Graceful drain, join, and rethrow anything run() threw.
    void stop() {
        join();
        if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
    }

private:
    void join() noexcept {
        if (!thread_.joinable()) return;
        server_.requestStop();
        thread_.join();
    }

    net::Server& server_;
    std::exception_ptr error_;
    std::thread thread_;
};

void teardown(Stack& s) {
    s.server.reset();
    s.engine.reset();
    s.cache.reset();
}

/// Calls fn(i) for i = 0, 1, ... until `budget` seconds of calls have run
/// (at least once, at most maxCalls times). Calls shorter than 50 us are
/// grouped, up to 64 to a span, so the clock reads and span records stay
/// negligible next to them. fn returns the work it did (keys, ops, ...).
/// Returns seconds per unit of work.
double replay(Spans& spans, const char* name, std::int64_t parent, double budget,
              std::int64_t maxCalls, const std::function<std::int64_t(std::int64_t)>& fn) {
    double busy = 0.0;
    std::int64_t work = 0;
    std::int64_t group = 1;
    for (std::int64_t i = 0; i < maxCalls && busy < budget;) {
        const double t0 = now();
        std::int64_t w = 0;
        for (const std::int64_t stop = std::min(maxCalls, i + group); i < stop; ++i) w += fn(i);
        const double t1 = now();
        spans.add(name, parent, t0, t1, w);
        busy += t1 - t0;
        work += w;
        if (t1 - t0 < 50e-6 * static_cast<double>(group)) group = std::min<std::int64_t>(group * 2, 64);
    }
    return work > 0 ? busy / static_cast<double>(work) : 0.0;
}

std::vector<tcam::TernaryWord> slice(const std::vector<tcam::TernaryWord>& keys,
                                     std::size_t begin, std::size_t n) {
    std::vector<tcam::TernaryWord> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(keys[(begin + i) % keys.size()]);
    return out;
}

struct LayerInputs {
    double queriesPerBatch = 1.0;
    double maxQps = 0.0;
};

/// The per-layer replays: each layer's public functions fed the run's own
/// recorded requests, timed by the benchmark's spans.
std::vector<Metric> replayLayers(const Data& d, Stack& stack, Generator& gen,
                                 const LayerInputs& in, Spans& spans, std::vector<std::string>& bad) {
    const std::int64_t root = spans.add("replay", 0, now(), now());
    auto& engine = *stack.engine;
    std::vector<tcam::TernaryWord> keys;
    std::vector<std::uint32_t> keyIdx = gen.exactKeys;
    if (keyIdx.empty())
        for (std::uint32_t i = 0; i < kKeyPool; ++i) keyIdx.push_back(i);
    for (const auto k : keyIdx) keys.push_back(d.pool[k]);
    // The server has stopped, so the table is as the run left it: the seed
    // table without the rows erased and not reinstalled (at most one, the
    // last cycle's, when every phase drained).
    const auto absent = gen.absentNow();
    auto checkRows = [&](std::size_t begin, const std::vector<std::int64_t>& rows) {
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const std::uint32_t k = keyIdx[(begin + i) % keyIdx.size()];
            const std::string why = d.oracle->checkRow(d.poolBits[k], d.expected[k], rows[i], absent);
            if (!why.empty() && bad.size() < 20) bad.push_back("replay: " + why);
        }
    };
    std::vector<Metric> m;

    // net: decode the recorded request frames, encode the recorded replies.
    const auto& frames = gen.requestFrames;
    const double decodeS = frames.empty() ? 0.0 : replay(spans, "net.decode", root, 0.2, 1 << 20, [&](std::int64_t i) {
        const auto& frame = frames[static_cast<std::size_t>(i) % frames.size()];
        const auto r = net::decodeFrame(frame, net::kDefaultMaxFrameBytes);
        std::string err;
        const auto body = net::decodeQueryBatch(r.frame.body, kWordBits, kMaxBatch, &err);
        if (!body && bad.size() < 20) bad.push_back("replay: recorded request does not decode");
        return static_cast<std::int64_t>(body ? body->keys.size() : 0);
    });
    std::vector<net::BatchReplyBody> replies;
    for (const auto& b : gen.replyBodies) {
        std::string err;
        if (auto r = net::decodeBatchReply(b, &err)) replies.push_back(std::move(*r));
    }
    const double encodeS = replies.empty() ? 0.0 : replay(spans, "net.encode", root, 0.2, 1 << 20, [&](std::int64_t i) {
        const auto& reply = replies[static_cast<std::size_t>(i) % replies.size()];
        const std::string frame = net::encodeFrame(net::MsgType::BatchReply, net::encodeBatchReply(reply));
        if (frame.size() < net::kFrameHeaderSize && bad.size() < 20) bad.push_back("replay: short reply frame");
        return static_cast<std::int64_t>(reply.rows.size());
    });
    m.push_back({"net.decode_ns_per_query", decodeS * 1e9, "ns"});
    m.push_back({"net.encode_ns_per_query", encodeS * 1e9, "ns"});

    // serve: submitBatch at the run's mean batch size, and at maxBatch.
    const auto meanBatch = static_cast<std::size_t>(std::max(1.0, std::round(in.queriesPerBatch)));
    std::size_t cursor = 0;
    const double submitS = replay(spans, "serve.submit", root, 0.5, 1 << 20, [&](std::int64_t) {
        auto batch = slice(keys, cursor, meanBatch);
        const auto r = engine.submitBatch(batch, kEngineJobs);
        checkRows(cursor, r.result.rows);
        cursor += meanBatch;
        return static_cast<std::int64_t>(batch.size());
    });
    cursor = 0;
    const double inprocS = replay(spans, "serve.submit_max_batch", root, 0.5, 1 << 20, [&](std::int64_t) {
        auto batch = slice(keys, cursor, kMaxBatch);
        const auto r = engine.submitBatch(batch, kEngineJobs);
        checkRows(cursor, r.result.rows);
        cursor += kMaxBatch;
        return static_cast<std::int64_t>(batch.size());
    });
    const double inprocQps = inprocS > 0.0 ? 1.0 / inprocS : 0.0;

    // similarity: nearest-8 over the recorded keys, 16 per call. The
    // brute-force check runs after the timed calls.
    const auto simCost = engine.simCost();  // lazy characterization stays untimed
    sim::SimilarityOptions so;
    so.kind = sim::SimilarityKind::NearestK;
    so.k = kNearestK;
    std::int64_t simRows = 0, simKeys = 0;
    std::vector<sim::SimilarityHits> simHits;
    cursor = 0;
    const double simS = replay(spans, "serve.similarity", root, 0.3, 1 << 20, [&](std::int64_t) {
        auto batch = slice(keys, cursor, kKeysPerRequest);
        auto r = engine.similarityBatch(batch, so, kEngineJobs);
        for (auto& hits : r.hits) simHits.push_back(std::move(hits));
        simRows += r.rowsReturned;
        simKeys += static_cast<std::int64_t>(batch.size());
        cursor += kKeysPerRequest;
        return static_cast<std::int64_t>(batch.size());
    });
    for (std::size_t i = 0; i < simHits.size(); ++i) {
        std::vector<std::int64_t> rows;
        std::vector<std::uint32_t> dist;
        for (const auto& h : simHits[i]) rows.push_back(h.row), dist.push_back(h.distance);
        const std::string why = d.oracle->checkNearest(d.poolBits[keyIdx[i % keyIdx.size()]],
                                                       kNearestK, rows, dist, absent);
        if (!why.empty() && bad.size() < 20) bad.push_back("replay: " + why);
    }

    // mutation: erase a seed row and reinstall it.
    const auto writeCost = engine.writeCost();
    const double mutateS = replay(spans, "serve.mutate", root, 0.2, 4096, [&](std::int64_t i) {
        const std::int64_t row = (i * 7919) % d.w->entries;
        engine.erase(row);
        engine.insertAt(row, d.table[static_cast<std::size_t>(row)]);
        return std::int64_t{2};
    });

    m.push_back({"net.queries_per_batch", in.queriesPerBatch, "count"});
    m.push_back({"serve.submit_ns_per_query", submitS * 1e9, "ns"});
    m.push_back({"serve.inproc_qps", inprocQps, "queries/s"});
    m.push_back({"serve.net_over_inproc", inprocQps > 0.0 ? in.maxQps / inprocQps : 0.0, "ratio"});
    m.push_back({"serve.sim_us_per_key", simS * 1e6, "us"});
    m.push_back({"serve.mutate_us", mutateS * 1e6, "us"});

    // tcam: one bit-plane backend over the whole table, no sharding.
    auto whole = serve::makeMatchBackend(serve::MatchBackendKind::BitPlane, d.w->entries, kWordBits);
    for (std::size_t r = 0; r < d.table.size(); ++r)
        whole->set(static_cast<std::int64_t>(r), d.table[r]);
    std::vector<serve::PreparedKey> prepared;
    for (std::size_t i = 0; i < std::min<std::size_t>(keys.size(), 4096); ++i)
        prepared.push_back(whole->prepare(keys[i]));
    const double findS = replay(spans, "tcam.find_first", root, 0.3, 1 << 22, [&](std::int64_t i) {
        const auto j = static_cast<std::size_t>(i) % prepared.size();
        const std::int64_t row = whole->findFirst(0, whole->rows(), prepared[j]);
        const std::string why = d.oracle->checkRow(d.poolBits[keyIdx[j]], d.expected[keyIdx[j]], row, {});
        if (!why.empty() && bad.size() < 20) bad.push_back("tcam replay: " + why);
        return whole->rows();
    });
    std::vector<std::size_t> counts(static_cast<std::size_t>(whole->rows()));
    const double mismatchS = replay(spans, "tcam.mismatch_counts", root, 0.3, 1 << 22, [&](std::int64_t i) {
        const auto j = static_cast<std::size_t>(i) % prepared.size();
        whole->mismatchCounts(prepared[j], counts.data());
        const std::int64_t probe = (i * 31) % whole->rows();
        if (counts[static_cast<std::size_t>(probe)] !=
                static_cast<std::size_t>(e2e::distance(d.oracle->at(probe), d.poolBits[keyIdx[j]])) &&
            bad.size() < 20)
            bad.push_back("tcam replay: mismatch count disagrees with the oracle");
        return whole->rows();
    });
    auto shard = serve::makeMatchBackend(serve::MatchBackendKind::BitPlane, kShardRows, kWordBits);
    for (int r = 0; r < kShardRows; ++r) shard->set(r, d.table[static_cast<std::size_t>(r)]);
    const double cloneS = replay(spans, "tcam.clone", root, 0.2, 1 << 20, [&](std::int64_t) {
        for (int i = 0; i < 100; ++i) {
            auto copy = shard->clone();
            if (copy->rows() != kShardRows) bad.push_back("tcam replay: clone lost rows");
        }
        return std::int64_t{100};
    });
    m.push_back({"tcam.find_matches_per_s", findS > 0.0 ? 1.0 / findS : 0.0, "1/s"});
    m.push_back({"tcam.mismatch_matches_per_s", mismatchS > 0.0 ? 1.0 / mismatchS : 0.0, "1/s"});
    m.push_back({"tcam.clone_us", cloneS * 1e6, "us"});

    // Modelled results: functions of the geometry and the seed only.
    m.push_back({"array.energy_per_query_j", engine.energyPerQuery(), "J"});
    m.push_back({"array.search_latency_ns", engine.queryLatency() * 1e9, "ns"});
    m.push_back({"sim.energy_per_key_j", simCost.energyPerSearchJ, "J"});
    m.push_back({"serve.write_energy_per_op_j", writeCost.energy, "J"});
    m.push_back({"sim.rows_per_key", simKeys > 0 ? static_cast<double>(simRows) / static_cast<double>(simKeys) : 0.0, "count"});
    return m;
}

int runBenchmark(const Args& a) {
    const Workload& w = *a.workload;
    obs::setEnabled(false);
    Spans spans;
    const Data d = makeData(w, a.seed);
    std::int64_t poolHits = 0;
    for (const auto e : d.expected) poolHits += e >= 0 ? 1 : 0;

    // Set-up, several times from cold; the last stack serves.
    std::vector<double> setupS, constructS, fillS;
    Stack stack;
    const std::int64_t setupSpan = spans.add("setup", 0, now(), now());
    for (int rep = 0; rep < kSetupReps; ++rep) {
        teardown(stack);
        stack = buildStack(d, spans, setupSpan);
        setupS.push_back(stack.total());
        constructS.push_back(stack.constructS);
        fillS.push_back(stack.fillS);
    }

    // Cold minus warm construction = characterization; spice counts from one
    // more cold construction with the program's counters on.
    double characterizeS = 0.0;
    long long transientRuns = 0, newtonIterations = 0;
    if (a.trace) {
        std::vector<double> warm;
        for (int rep = 0; rep < kSetupReps; ++rep)
            warm.push_back(spans.time("setup.warm_construct", setupSpan, 1, [&] {
                serve::QueryEngine e(engineOptions(w), stack.cache);
            }));
        characterizeS = median(constructS) - median(warm);
        obs::Registry::global().resetAll();
        obs::setEnabled(true);
        {
            serve::QueryEngine e(engineOptions(w), std::make_shared<serve::CharacterizationCache>());
            if (d.mutates()) {
                e.writeCost();
                e.simCost();
            }
        }
        transientRuns = obs::counter("spice.transient.runs").value();
        newtonIterations = obs::counter("spice.newton.iterations").value();
        obs::setEnabled(false);
    }

    ServerThread serverThread(*stack.server);
    Generator gen(d, stack.server->port(), a.seed);
    const double S = a.seconds;

    auto invalid = [&](const char* phase, const PhaseStats& st) {
        const auto v = e2e::judgeLateness(st.lateness, kLatenessLimit);
        if (v.valid) return false;
        std::fprintf(stderr,
                     "fetcam_e2e: invalid run: generator fell behind in the %s phase "
                     "(lateness p99 %.3f ms, growth %.3f ms)\n",
                     phase, v.p99 * 1e3, v.growth * 1e3);
        return true;
    };

    // Nominal phase (instrumentation off).
    const PhaseStats nominal = gen.run(mixAt(w, w.nominalQps, (a.trace ? 0.5 : 1.0) * kNominalShare * S));
    if (invalid("nominal", nominal)) return 3;

    // Traced repeat of the nominal phase: the program's counters on, the
    // requests recorded for the layer replays.
    PhaseStats traced;
    LayerInputs layer;
    double requestMean = 0.0, queueWaitMean = 0.0, batchMean = 0.0;
    if (a.trace) {
        obs::Registry::global().resetAll();
        obs::setEnabled(true);
        auto spec = mixAt(w, w.nominalQps, 0.5 * kNominalShare * S);
        spec.record = true;
        const std::int64_t phase = spans.add("phase.traced_nominal", 0, now(), now());
        traced = gen.run(spec, &spans, phase);
        obs::setEnabled(false);
        const auto batches = obs::counter("net.batches").value();
        layer.queriesPerBatch = batches > 0 ? static_cast<double>(obs::counter("net.queries").value()) /
                                                  static_cast<double>(batches)
                                            : 1.0;
        requestMean = histMean("net.request.seconds");
        queueWaitMean = histMean("serve.admission.queue_wait");
        batchMean = histMean("serve.batch.seconds");
    }

    // Offered-rate ladder from twice the nominal rate, near the knee.
    const double maxQps =
        maxQpsAtSlo(gen, w, 2 * w.nominalQps, kLadderShare * S / (4 + kBisectSteps));
    layer.maxQps = maxQps;

    // Similarity and update latency exist on the mixed workload only; the
    // exact-only workloads send neither kind of frame.
    const auto& simLat = nominal.simLat;
    const auto& mutateLat = nominal.mutateLat;

    serverThread.stop();
    const auto& ss = stack.server->stats();
    std::vector<std::string> bad = gen.violations();
    if (ss.queries != ss.hits + ss.misses + ss.shedQueries + ss.expiredQueries)
        bad.push_back("server accounting does not close: queries != hits + misses + shed + expired");
    // Replies given up on at a drain timeout were never counted by the client.
    if (gen.abandoned() == 0 && (ss.hits != gen.totalHits() || ss.misses != gen.totalMisses()))
        bad.push_back("server hit/miss counts differ from the replies the client checked");
    if (ss.protoErrors != 0) bad.push_back("server counted protocol errors");

    const std::int64_t attempted = nominal.attempted + traced.attempted;
    const std::int64_t failed = nominal.failed + traced.failed;
    std::vector<Metric> m;
    if (!a.trace) {
        m.push_back({"setup_s", median(setupS), "s"});
        m.push_back({"max_qps_at_slo", maxQps, "queries/s"});
        m.push_back({"p50_ms", e2e::percentile(nominal.exactLat, 0.5) * 1e3, "ms"});
        m.push_back({"rss_mb", peakRssMb(), "MB"});
    } else {
        const double p50u = e2e::percentile(nominal.exactLat, 0.5);
        const double p50t = e2e::percentile(traced.exactLat, 0.5);
        double clientMean = 0.0;
        for (const double v : traced.exactLat) clientMean += v;
        clientMean /= std::max<std::size_t>(1, traced.exactLat.size());
        // The tails swing too far between runs on the reference VM to gate
        // on (see README.md), so they are reported here, from the untraced
        // half of the nominal phase. sim_p99_ms and update_p99_ms read 0 on
        // the exact-only workloads, which have no such samples.
        m.push_back({"p99_ms", p99(nominal.exactLat) * 1e3, "ms"});
        m.push_back({"sim_p99_ms", p99(simLat) * 1e3, "ms"});
        m.push_back({"update_p99_ms", p99(mutateLat) * 1e3, "ms"});
        m.push_back({"net.request_mean_ms", requestMean * 1e3, "ms"});
        m.push_back({"net.outside_server_ms", (clientMean - requestMean) * 1e3, "ms"});
        m.push_back({"serve.queue_wait_mean_ms", queueWaitMean * 1e3, "ms"});
        m.push_back({"serve.batch_mean_ms", batchMean * 1e3, "ms"});
        m.push_back({"serve.construct_s", median(constructS), "s"});
        m.push_back({"serve.fill_s", median(fillS), "s"});
        const auto layers = replayLayers(d, stack, gen, layer, spans, bad);
        m.insert(m.end(), layers.begin(), layers.end());
        m.push_back({"spice.transient_runs", static_cast<double>(transientRuns), "count"});
        m.push_back({"spice.newton_iterations", static_cast<double>(newtonIterations), "count"});
        m.push_back({"array.characterize_s", characterizeS, "s"});
        m.push_back({"gen.lateness_p99_ms", e2e::judgeLateness(nominal.lateness, kLatenessLimit).p99 * 1e3, "ms"});
        m.push_back({"gen.pool_hit_keys", static_cast<double>(poolHits), "count"});
        m.push_back({"obs.trace_overhead", p50u > 0.0 ? p50t / p50u - 1.0 : 0.0, "ratio"});
        m.push_back({"error_rate", attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0, "fraction"});
        if (!spans.write(a.traceOut))
            throw std::runtime_error("cannot write spans to " + a.traceOut);
        std::printf("# spans written to %s\n", a.traceOut.c_str());
    }

    std::printf("# %s seed %llu: open loop, %d connections, %d keys/request, nominal %.0f q/s "
                "(%.0f similarity frames/s, %.0f updates/s); samples exact %zu, similarity %zu, "
                "update %zu; unchunked exact p99 %.3f ms; error_rate %.6g (%lld/%lld)\n",
                w.name, static_cast<unsigned long long>(a.seed), kConnections, kKeysPerRequest,
                w.nominalQps, mixAt(w, w.nominalQps, 0).simRate, w.mutateRate,
                nominal.exactLat.size(), simLat.size(), mutateLat.size(),
                e2e::percentile(nominal.exactLat, 0.99) * 1e3,
                attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
                static_cast<long long>(failed), static_cast<long long>(attempted));
    for (const auto& v : bad) std::fprintf(stderr, "fetcam_e2e: WRONG ANSWER: %s\n", v.c_str());
    printResult(bad.empty(), std::max<std::int64_t>(1, attempted), failed, m);
    return bad.empty() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return runBenchmark(parseArgs(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fetcam_e2e: %s\n", e.what());
        return 1;
    }
}
