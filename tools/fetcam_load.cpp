// fetcam_load — open-loop load generator for fetcam_serve --listen.
//
// Drives the net protocol at a configured offered rate: requests are
// scheduled on a fixed timeline (t0 + i/qps) regardless of how fast the
// server answers, and latency is measured from the *scheduled* arrival — so
// a stalled server inflates the tail instead of silently slowing the
// offered load (no coordinated omission).
//
// Usage:
//   fetcam_load --port P | --port-file FILE  [--host H]
//               [--qps N] [--connections C] [--queries N | --seconds S]
//               [--batch B] [--deadline-ms D] [--hit-fraction F]
//               [--entries N] [--seed S] [--retries R] [--timeout S]
//               [--churn N]
//               [--similarity F] [--sim-k K] [--sim-threshold D]
//               [--fault-torn N] [--fault-garbage N]
//               [--fault-disconnect N] [--fault-stall N]
//               [--json FILE]
//
// --churn N adds a dedicated mutator connection sending Mutate frames at N
// table updates per second while the query load runs: it flaps the known
// seed entries (erase a present row / re-install its word), mirroring the
// membership client-side so every op is valid. Mutations ride the same
// open-loop pacing and are tallied separately from query requests.
//
// --similarity F sends that fraction of requests as Similarity frames
// (nearest-k by default, --sim-k K; --sim-threshold D switches to
// threshold matching with max Hamming distance D). The decision is drawn
// from the same per-request deterministic stream as the keys, so the mix is
// reproducible. Similarity replies are tallied separately (simRequests /
// simKeys / simRows).
//
// A server speaking another protocol version is refused at connect with a
// typed CorruptData error.
//
// Shed and failed requests retry with capped exponential backoff plus
// deterministic jitter (numeric::Rng::forStream per connection); a request
// that exhausts its retries is a permanent failure, and any permanent
// failure makes the tool exit with the DeadlineExceeded code (10) so CI can
// tell "server refused / lost work" from "clean run".
//
// --fault-* N injects a network fault on every Nth outbound frame of each
// connection through the recover::FaultPlan harness (torn frame, garbage
// bytes, disconnect, stalled read); the generator reconnects and retries, so
// a healthy server shows zero permanent failures even under injected faults.
//
// --entries/--seed must match the server's for the --hit-fraction mix to
// produce actual hits (see listen_workload.hpp). Every numeric flag value
// must be a whole number of its type ("1k", "abc" and "" are refused with
// InvalidSpec).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "numeric/parallel.hpp"
#include "obs/obs.hpp"
#include "recover/fault_injection.hpp"
#include "recover/io_guard.hpp"
#include "recover/sim_error.hpp"
#include "serve/query_engine.hpp"
#include "listen_workload.hpp"
#include "parse_number.hpp"

using namespace fetcam;

namespace {

struct Args {
    std::string host = "127.0.0.1";
    int port = 0;
    std::string portFile;
    double qps = 5000.0;  ///< offered queries per second (not requests)
    int connections = 4;
    std::int64_t queries = 20'000;
    double seconds = 0.0;  ///< when > 0, overrides --queries as qps * seconds
    int batch = 16;
    double deadlineMs = 0.0;
    double hitFraction = 0.5;
    std::int64_t entries = 64;
    std::uint64_t seed = 42;
    int retries = 5;
    double timeout = 5.0;
    double churn = 0.0;  ///< table updates per second (0 = no mutator)
    double similarity = 0.0;  ///< fraction of requests sent as Similarity
    int simK = 4;             ///< nearest-k per key
    int simThreshold = -1;    ///< >= 0: threshold matching at this distance
    int faultTorn = 0;
    int faultGarbage = 0;
    int faultDisconnect = 0;
    int faultStall = 0;
    std::string jsonPath;
};

Args parseArgs(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string opt = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                        "fetcam_load", "missing value after " + opt);
            return argv[i];
        };
        auto number = [&](auto& out) { tools::parseNumber(next(), out, "fetcam_load", opt); };
        if (opt == "--host") a.host = next();
        else if (opt == "--port") number(a.port);
        else if (opt == "--port-file") a.portFile = next();
        else if (opt == "--qps") number(a.qps);
        else if (opt == "--connections") number(a.connections);
        else if (opt == "--queries") number(a.queries);
        else if (opt == "--seconds") number(a.seconds);
        else if (opt == "--batch") number(a.batch);
        else if (opt == "--deadline-ms") number(a.deadlineMs);
        else if (opt == "--hit-fraction") number(a.hitFraction);
        else if (opt == "--entries") number(a.entries);
        else if (opt == "--seed") number(a.seed);
        else if (opt == "--retries") number(a.retries);
        else if (opt == "--timeout") number(a.timeout);
        else if (opt == "--churn") number(a.churn);
        else if (opt == "--similarity") number(a.similarity);
        else if (opt == "--sim-k") number(a.simK);
        else if (opt == "--sim-threshold") number(a.simThreshold);
        else if (opt == "--fault-torn") number(a.faultTorn);
        else if (opt == "--fault-garbage") number(a.faultGarbage);
        else if (opt == "--fault-disconnect") number(a.faultDisconnect);
        else if (opt == "--fault-stall") number(a.faultStall);
        else if (opt == "--json") a.jsonPath = next();
        else
            throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_load",
                                    "unknown option " + opt);
    }
    if (a.port <= 0 && a.portFile.empty())
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_load",
                                "--port or --port-file is required");
    if (a.qps <= 0.0 || a.connections < 1 || a.batch < 1 || a.retries < 0 ||
        a.timeout <= 0.0 || a.entries < 1 || a.hitFraction < 0.0 ||
        a.hitFraction > 1.0 || a.churn < 0.0 || a.similarity < 0.0 ||
        a.similarity > 1.0 || a.simK < 1)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_load",
                                "argument out of range");
    if (a.seconds > 0.0)
        a.queries = std::max<std::int64_t>(
            a.batch, static_cast<std::int64_t>(a.qps * a.seconds));
    if (a.queries < 1)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_load",
                                "--queries must be >= 1");
    return a;
}

/// Wait for the server to publish its ephemeral port (written after bind).
int resolvePort(const Args& a) {
    if (a.port > 0) return a.port;
    const double deadline = obs::monotonicSeconds() + 10.0;
    while (obs::monotonicSeconds() < deadline) {
        std::ifstream is(a.portFile);
        int port = 0;
        if (is >> port && port > 0) return port;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    throw recover::SimError(recover::SimErrorReason::IoError, "fetcam_load",
                            "no port appeared in " + a.portFile + " within 10 s");
}

/// Every-Nth-frame injection expressed as one-frame FaultPlan windows.
void addEveryNth(recover::FaultPlan& plan, recover::FaultKind kind, int n,
                 long long maxFrames) {
    if (n <= 0) return;
    for (long long ord = n - 1; ord < maxFrames; ord += n) {
        recover::FaultSpec spec;
        spec.kind = kind;
        spec.fromSolve = ord;
        spec.toSolve = ord + 1;
        plan.add(spec);
    }
}

struct Tally {
    std::int64_t requests = 0;
    std::int64_t okRequests = 0;
    std::int64_t permanentFailures = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t deadlineExceeded = 0;  ///< per-query statuses in accepted replies
    std::int64_t shedReplies = 0;       ///< whole requests refused (overload/drain)
    std::int64_t retries = 0;
    std::int64_t reconnects = 0;
    std::int64_t faultsInjected = 0;
    std::int64_t protoErrors = 0;  ///< server Error frames / decode failures seen
    std::int64_t timeouts = 0;
    std::int64_t disconnects = 0;
    std::int64_t drainNotices = 0;
    std::int64_t mutations = 0;         ///< Mutate ops acknowledged Ok
    std::int64_t mutationFailures = 0;  ///< non-Ok statuses or exhausted retries
    std::int64_t simRequests = 0;       ///< requests sent as Similarity frames
    std::int64_t simKeys = 0;           ///< keys inside accepted sim replies
    std::int64_t simRows = 0;           ///< hit rows returned in those replies

    void merge(const Tally& o) {
        requests += o.requests;
        okRequests += o.okRequests;
        permanentFailures += o.permanentFailures;
        hits += o.hits;
        misses += o.misses;
        deadlineExceeded += o.deadlineExceeded;
        shedReplies += o.shedReplies;
        retries += o.retries;
        reconnects += o.reconnects;
        faultsInjected += o.faultsInjected;
        protoErrors += o.protoErrors;
        timeouts += o.timeouts;
        disconnects += o.disconnects;
        drainNotices += o.drainNotices;
        mutations += o.mutations;
        mutationFailures += o.mutationFailures;
        simRequests += o.simRequests;
        simKeys += o.simKeys;
        simRows += o.simRows;
    }
};

void sleepUntil(double when) {
    const double wait = when - obs::monotonicSeconds();
    if (wait > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

void runConnection(const Args& a, int port, int conn, double t0, double interval,
                   std::int64_t totalRequests,
                   const std::vector<tcam::TernaryWord>& entries, int wordBits,
                   obs::Histogram& latency, Tally& tally) {
    recover::FaultPlan plan;
    const long long frameCap = 3 * (totalRequests / a.connections + 1) + 16;
    addEveryNth(plan, recover::FaultKind::TornFrame, a.faultTorn, frameCap);
    addEveryNth(plan, recover::FaultKind::GarbageBytes, a.faultGarbage, frameCap);
    addEveryNth(plan, recover::FaultKind::Disconnect, a.faultDisconnect, frameCap);
    addEveryNth(plan, recover::FaultKind::StalledRead, a.faultStall, frameCap);
    recover::ScopedFaultPlan guard(plan);

    numeric::Rng rng = numeric::Rng::forStream(a.seed, 0xB0FFu + static_cast<std::uint64_t>(conn));
    net::Client client;

    for (std::int64_t r = conn; r < totalRequests; r += a.connections) {
        const double sched = t0 + static_cast<double>(r) * interval;
        sleepUntil(sched);

        net::QueryBatchBody batch;
        batch.requestId = static_cast<std::uint64_t>(r) + 1;
        batch.deadlineMicros = static_cast<std::uint32_t>(a.deadlineMs * 1e3);
        numeric::Rng keyRng =
            numeric::Rng::forStream(a.seed, 0x10000000ULL + static_cast<std::uint64_t>(r));
        const std::int64_t remaining = a.queries - r * static_cast<std::int64_t>(a.batch);
        const std::int64_t want = std::clamp<std::int64_t>(remaining, 0, a.batch);
        for (std::int64_t k = 0; k < want; ++k) {
            if (!entries.empty() && keyRng.uniform() < a.hitFraction) {
                const auto idx = static_cast<std::size_t>(keyRng.uniformInt(
                    0, static_cast<int>(entries.size()) - 1));
                batch.keys.push_back(tools::specializeKey(entries[idx], keyRng));
            } else {
                batch.keys.push_back(tools::randomKey(wordBits, keyRng));
            }
        }
        if (batch.keys.empty()) continue;
        ++tally.requests;

        // The similarity decision rides the same deterministic per-request
        // stream as the keys: the query/similarity mix is reproducible.
        const bool simRequest = a.similarity > 0.0 && keyRng.uniform() < a.similarity;
        net::SimilarityBody sim;
        if (simRequest) {
            ++tally.simRequests;
            sim.requestId = batch.requestId;
            if (a.simThreshold >= 0) {
                sim.kind = sim::SimilarityKind::Threshold;
                sim.param = static_cast<std::uint32_t>(a.simThreshold);
            } else {
                sim.kind = sim::SimilarityKind::NearestK;
                sim.param = static_cast<std::uint32_t>(a.simK);
            }
            sim.maxResults = static_cast<std::uint32_t>(std::max(a.simK, 64));
            sim.keys = batch.keys;
        }

        bool done = false;
        for (int attempt = 0; attempt <= a.retries && !done; ++attempt) {
            if (attempt > 0) {
                ++tally.retries;
                // Capped exponential backoff with deterministic jitter, so a
                // shedding server sees a decaying, non-synchronized retry
                // wave rather than a thundering herd.
                const double base = std::min(1e-3 * std::pow(2.0, attempt - 1), 0.1);
                sleepUntil(obs::monotonicSeconds() + base * (0.5 + rng.uniform()));
            }
            if (!client.connected()) {
                try {
                    client.connect(a.host, port, a.timeout);
                    ++tally.reconnects;
                } catch (const recover::SimError&) {
                    continue;  // server booting or mid-drain; backoff covers us
                }
            }
            net::ClientResult res = simRequest ? client.similarity(sim, a.timeout)
                                               : client.query(batch, a.timeout);
            if (res.drainNotice) ++tally.drainNotices;
            if (res.faultInjected) {
                ++tally.faultsInjected;
                // Stall leaves a poisoned half-frame on the wire; everything
                // else already closed the socket. Reconnect either way.
                client.close();
                continue;
            }
            if (simRequest && res.ok && res.simReply) {
                if (res.simReply->admission ==
                    static_cast<std::uint8_t>(serve::BatchAdmission::Accepted)) {
                    tally.simKeys += static_cast<std::int64_t>(res.simReply->hits.size());
                    for (const auto& hits : res.simReply->hits)
                        tally.simRows += static_cast<std::int64_t>(hits.size());
                    latency.observe(obs::monotonicSeconds() - sched);
                    ++tally.okRequests;
                    done = true;
                } else {
                    ++tally.shedReplies;  // typed whole-request shed; retryable
                }
            } else if (!simRequest && res.ok &&
                       res.reply.admission ==
                           static_cast<std::uint8_t>(serve::BatchAdmission::Accepted)) {
                for (const auto status : res.reply.status) {
                    switch (status) {
                        case net::QueryStatus::Hit: ++tally.hits; break;
                        case net::QueryStatus::Miss: ++tally.misses; break;
                        case net::QueryStatus::DeadlineExceeded:
                            ++tally.deadlineExceeded;
                            break;
                        case net::QueryStatus::Shed: ++tally.shedReplies; break;
                    }
                }
                latency.observe(obs::monotonicSeconds() - sched);
                ++tally.okRequests;
                done = true;
            } else if (res.ok) {
                ++tally.shedReplies;  // typed whole-request shed; retryable
            } else if (res.timedOut) {
                ++tally.timeouts;
                client.close();
            } else if (res.error != net::ProtoError::None) {
                ++tally.protoErrors;
                client.close();
            } else {
                ++tally.disconnects;
                client.close();
            }
        }
        if (!done) ++tally.permanentFailures;
    }
    client.close();
}

/// Dedicated mutator connection: flap the known seed entries at a.churn
/// updates/s (open-loop schedule, like the query timeline) until told to
/// stop. Membership is mirrored client-side, so each op is a valid erase of
/// a present row or a re-install of an absent one.
void runMutator(const Args& a, int port, const std::vector<tcam::TernaryWord>& entries,
                const std::atomic<bool>& stop, Tally& tally) {
    net::Client client;
    numeric::Rng rng = numeric::Rng::forStream(a.seed, 0xC4C4u);
    std::vector<char> present(entries.size(), 1);
    const double t0 = obs::monotonicSeconds();
    std::int64_t i = 0;
    // Mutation requestIds live in their own range so a stale query reply can
    // never be mistaken for a mutate ack.
    std::uint64_t requestId = 1ULL << 62;
    while (!stop.load(std::memory_order_relaxed)) {
        sleepUntil(t0 + static_cast<double>(i) / a.churn);
        if (stop.load(std::memory_order_relaxed)) break;
        ++i;

        const auto row = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(entries.size()) - 1));
        net::MutateBody body;
        body.requestId = requestId++;
        net::MutateOpSpec op;
        op.row = static_cast<std::int64_t>(row);
        if (present[row]) {
            op.op = net::MutateOp::Erase;
        } else {
            op.op = net::MutateOp::InsertAt;
            op.word = entries[row];
        }
        body.ops.push_back(std::move(op));

        bool done = false;
        for (int attempt = 0; attempt <= a.retries && !done; ++attempt) {
            if (attempt > 0) {
                ++tally.retries;
                const double base = std::min(1e-3 * std::pow(2.0, attempt - 1), 0.1);
                sleepUntil(obs::monotonicSeconds() + base * (0.5 + rng.uniform()));
            }
            if (!client.connected()) {
                try {
                    client.connect(a.host, port, a.timeout);
                    ++tally.reconnects;
                } catch (const recover::SimError&) {
                    continue;
                }
            }
            net::ClientResult res = client.mutate(body, a.timeout);
            if (res.drainNotice) ++tally.drainNotices;
            if (res.ok && res.mutateReply) {
                if (res.mutateReply->status[0] == net::MutateStatus::Ok) {
                    present[row] = !present[row];
                    ++tally.mutations;
                } else {
                    ++tally.mutationFailures;  // typed refusal; don't retry
                }
                done = true;
            } else if (res.timedOut) {
                ++tally.timeouts;
                client.close();
            } else if (res.error != net::ProtoError::None) {
                ++tally.protoErrors;
                client.close();
            } else {
                ++tally.disconnects;
                client.close();
            }
        }
        if (!done) ++tally.mutationFailures;
    }
    client.close();
}

void writeJson(const std::string& path, const Tally& t, const obs::Histogram& latency,
               double wallSeconds) {
    std::ofstream os(path);
    if (!os)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "fetcam_load",
                                "cannot open " + path + " for writing");
    os.precision(17);
    os << "{\n  \"tool\": \"fetcam_load\",\n";
    os << "  \"accounting\": {\n";
    os << "    \"requests\": " << t.requests << ",\n";
    os << "    \"okRequests\": " << t.okRequests << ",\n";
    os << "    \"permanentFailures\": " << t.permanentFailures << ",\n";
    os << "    \"hits\": " << t.hits << ",\n";
    os << "    \"misses\": " << t.misses << ",\n";
    os << "    \"deadlineExceeded\": " << t.deadlineExceeded << ",\n";
    os << "    \"shedReplies\": " << t.shedReplies << ",\n";
    os << "    \"retries\": " << t.retries << ",\n";
    os << "    \"reconnects\": " << t.reconnects << ",\n";
    os << "    \"faultsInjected\": " << t.faultsInjected << ",\n";
    os << "    \"protoErrors\": " << t.protoErrors << ",\n";
    os << "    \"timeouts\": " << t.timeouts << ",\n";
    os << "    \"disconnects\": " << t.disconnects << ",\n";
    os << "    \"drainNotices\": " << t.drainNotices << ",\n";
    os << "    \"mutations\": " << t.mutations << ",\n";
    os << "    \"mutationFailures\": " << t.mutationFailures << ",\n";
    os << "    \"simRequests\": " << t.simRequests << ",\n";
    os << "    \"simKeys\": " << t.simKeys << ",\n";
    os << "    \"simRows\": " << t.simRows << "\n";
    os << "  },\n";
    os << "  \"latency\": {\n";
    os << "    \"count\": " << latency.count() << ",\n";
    os << "    \"p50\": " << obs::quantile(latency, 0.5) << ",\n";
    os << "    \"p99\": " << obs::quantile(latency, 0.99) << ",\n";
    os << "    \"p999\": " << obs::quantile(latency, 0.999) << ",\n";
    os << "    \"meanSeconds\": " << latency.mean() << ",\n";
    os << "    \"wallSeconds\": " << wallSeconds << ",\n";
    os << "    \"achievedQps\": "
       << (wallSeconds > 0.0 ? static_cast<double>(t.hits + t.misses + t.deadlineExceeded) /
                                   wallSeconds
                             : 0.0)
       << "\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
    recover::ignoreSigpipe();
    try {
        const Args a = parseArgs(argc, argv);
        const int port = resolvePort(a);

        // Probe connection: learn the server's word width (and fail fast on
        // another protocol version) before spinning up the worker connections.
        int wordBits = 0;
        {
            net::Client probe;
            probe.connect(a.host, port, a.timeout);
            wordBits = static_cast<int>(probe.hello().wordBits);
        }
        const auto entries = tools::makeListenEntries(a.seed, a.entries, wordBits);

        const std::int64_t totalRequests = (a.queries + a.batch - 1) / a.batch;
        const double interval = static_cast<double>(a.batch) / a.qps;
        obs::Histogram latency("load.latency.seconds",
                               obs::Histogram::exponentialBounds(1e-6, 100.0, 9));

        std::vector<Tally> tallies(static_cast<std::size_t>(a.connections));
        std::vector<std::thread> threads;
        const double t0 = obs::monotonicSeconds() + 0.05;  // shared epoch
        threads.reserve(static_cast<std::size_t>(a.connections));
        for (int c = 0; c < a.connections; ++c)
            threads.emplace_back([&, c] {
                runConnection(a, port, c, t0, interval, totalRequests, entries,
                              wordBits, latency, tallies[static_cast<std::size_t>(c)]);
            });
        std::atomic<bool> stopMutator{false};
        Tally mutatorTally;
        std::thread mutator;
        if (a.churn > 0.0)
            mutator = std::thread(
                [&] { runMutator(a, port, entries, stopMutator, mutatorTally); });
        for (auto& th : threads) th.join();
        stopMutator.store(true, std::memory_order_relaxed);
        if (mutator.joinable()) mutator.join();
        const double wallSeconds = obs::monotonicSeconds() - t0;

        Tally t;
        for (const auto& partial : tallies) t.merge(partial);
        t.merge(mutatorTally);

        std::printf("fetcam_load: %lld requests (%lld ok, %lld failed) @ %.0f q/s offered\n",
                    static_cast<long long>(t.requests),
                    static_cast<long long>(t.okRequests),
                    static_cast<long long>(t.permanentFailures), a.qps);
        std::printf("  queries        %lld hit / %lld miss / %lld deadline-expired\n",
                    static_cast<long long>(t.hits), static_cast<long long>(t.misses),
                    static_cast<long long>(t.deadlineExceeded));
        if (a.churn > 0.0)
            std::printf("  churn          %lld mutations acked (%lld failed) @ %.0f u/s offered\n",
                        static_cast<long long>(t.mutations),
                        static_cast<long long>(t.mutationFailures), a.churn);
        if (a.similarity > 0.0)
            std::printf("  similarity     %lld requests (%lld keys, %lld rows returned)\n",
                        static_cast<long long>(t.simRequests),
                        static_cast<long long>(t.simKeys),
                        static_cast<long long>(t.simRows));
        std::printf("  robustness     %lld shed / %lld retries / %lld faults injected / "
                    "%lld proto errors / %lld timeouts / %lld disconnects\n",
                    static_cast<long long>(t.shedReplies),
                    static_cast<long long>(t.retries),
                    static_cast<long long>(t.faultsInjected),
                    static_cast<long long>(t.protoErrors),
                    static_cast<long long>(t.timeouts),
                    static_cast<long long>(t.disconnects));
        std::printf("  latency        p50 %.3f ms / p99 %.3f ms / p999 %.3f ms "
                    "(%lld samples, %.2f s wall)\n",
                    obs::quantile(latency, 0.5) * 1e3, obs::quantile(latency, 0.99) * 1e3,
                    obs::quantile(latency, 0.999) * 1e3,
                    static_cast<long long>(latency.count()), wallSeconds);

        if (!a.jsonPath.empty()) writeJson(a.jsonPath, t, latency, wallSeconds);
        recover::checkStdout("fetcam_load");

        if (t.permanentFailures > 0) {
            std::fprintf(stderr,
                         "fetcam_load: %lld requests permanently failed after %d retries\n",
                         static_cast<long long>(t.permanentFailures), a.retries);
            return recover::exitCodeFor(recover::SimErrorReason::DeadlineExceeded);
        }
        return 0;
    } catch (const recover::SimError& e) {
        std::fprintf(stderr, "fetcam_load: [%s] %s\n", recover::reasonName(e.reason()),
                     e.what());
        return recover::exitCodeFor(e.reason());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fetcam_load: %s\n", e.what());
        return 1;
    }
}
