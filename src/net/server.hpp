// fetcam::net::Server — deadline-aware TCP front-end for serve::QueryEngine.
//
// A zero-dependency, single-threaded ppoll(2) event loop (parallelism lives
// inside the engine's worker team, where it already is) that:
//
//   * accepts connections and greets each with a Hello frame carrying the
//     engine word width and the protocol limits,
//   * reads CRC-framed QueryBatch requests and, at the end of each loop
//     pass, executes every request that pass read: whole requests, across
//     connections, up to options.maxBatch queries per engine batch. Frames
//     that arrive together share one searchBatch; a request that arrives
//     alone runs at once. No request waits for batchmates on a timer,
//   * propagates per-request deadlines into QueryEngine::searchBatch, so
//     expired queries are shed before any entry is scanned and answered with
//     a typed DeadlineExceeded status,
//   * applies Mutate frames (insert / insertAt / erase) immediately on
//     receipt — the engine's snapshot scheme makes that safe against any
//     in-flight batch — answering each op with a typed MutateStatus;
//     draining refuses mutations with Rejected,
//   * executes Similarity frames (nearest-k / threshold) immediately on
//     receipt via QueryEngine::similarityBatch, answering a
//     SimilarityReply with per-key best-first hit lists; drain and the
//     pending-query overload bound shed them with admission = Shed,
//   * never sends a reply larger than options.maxFrameBytes: a request
//     whose worst-case reply would exceed it is refused with a typed
//     BadBody before any work,
//   * sheds whole requests with typed Shed replies the moment the pending
//     queue would exceed options.maxPendingQueries — overload never queues
//     unboundedly, and every shed is counted,
//   * kills exactly one connection on a protocol error (bad magic/CRC/type,
//     oversized frame, malformed body), answering a typed Error frame first;
//     a peer that stalls mid-frame longer than options.readTimeout is cut
//     the same way (slowloris defense),
//   * drains gracefully on requestStop() — async-signal-safe, so the tools
//     wire it straight into SIGTERM: stop accepting, answer everything
//     in flight (executing what still meets its deadline), flush write
//     buffers, then return from run() with deterministic final accounting.
//
// Timing: each loop pass sleeps in ppoll(2) until a socket is ready or one
// absolute deadline passes, the earliest of the mid-frame read timeout, the
// drain bound and a 0.1 s heartbeat (nextWake). ppoll returns on every
// readable socket, so the loop wakes once per arrival and the batch a pass
// runs is whatever arrived since the pass before: sparse traffic runs one
// request per batch, dense traffic batches as much as one wake reads.
//
// obs metrics (when obs::enabled()): net.connections.accepted/.dropped,
// net.frames.in/.out, net.queries, net.hits, net.shed,
// net.deadline_expired, net.proto_errors, net.batches counters and a
// net.request.seconds histogram (receipt -> reply queued).
#pragma once

#include <array>
#include <cstdint>
#include <ctime>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <poll.h>

#include "net/protocol.hpp"
#include "serve/query_engine.hpp"

namespace fetcam::net {

struct ServerOptions {
    std::string host = "127.0.0.1";
    int port = 0;  ///< 0 = ephemeral; the bound port is port() after start()
    int backlog = 64;
    int maxConnections = 256;
    std::uint32_t maxFrameBytes = kDefaultMaxFrameBytes;
    /// Queries per engine batch (and per-request ceiling).
    std::uint32_t maxBatch = 4096;
    /// Not read by the server, which runs what each loop pass read and waits
    /// on no timer; the field stays only because the frozen end-to-end
    /// benchmark (e2ebench/bench_e2e.cpp:250) still sets it.
    double coalesceWindow = 0.5e-3;
    /// Overload bound: queries one loop pass may queue before it executes
    /// them; requests beyond it are shed immediately with typed replies.
    std::int64_t maxPendingQueries = 1 << 16;
    /// A peer stalled mid-frame longer than this is dropped [s].
    double readTimeout = 5.0;
    /// Deadline applied when a request carries none (0 = none) [s].
    double defaultDeadline = 0.0;
    /// Hard cap on the graceful-drain phase [s].
    double drainTimeout = 5.0;
    /// Worker count handed to the engine per batch (0 = process default).
    /// The engine splits a batch into tiles of EngineOptions::batchSize
    /// (4096) queries and gives each worker whole tiles. An engine batch
    /// is at most maxBatch queries (4096 by default), so it is one tile and
    /// runs on the loop thread alone; jobs only splits larger batches.
    int jobs = 0;
};

/// What the event loop waits on, as absolute obs::monotonicSeconds() times.
struct LoopDeadlines {
    std::optional<double> oldestMidFrame;  ///< earliest last read of a peer mid-frame
    std::optional<double> drainStart;      ///< set while draining
};

/// Absolute time the event loop next wakes: the earliest of the read
/// timeout (oldestMidFrame + readTimeout), the drain bound (drainStart +
/// drainTimeout) and the idle heartbeat (now + 0.1 s).
double nextWake(double now, const LoopDeadlines& deadlines, const ServerOptions& options);

/// The wait from `now` until `deadline` as a ppoll(2) timeout: rounded up
/// to the nanosecond, so a wait never ends before its deadline; zero once
/// the deadline has passed; capped at 1 s.
timespec waitTimeout(double now, double deadline);

/// ppoll(2) on `fds` until `deadline` (absolute, see waitTimeout); returns
/// what ppoll returns. The one deadline wait of net::Server and net::Client.
int pollUntil(pollfd* fds, nfds_t count, double now, double deadline);

/// Deterministic request/shed/error accounting (no wall-clock anywhere), so
/// CI can assert every query is accounted for: queries ==
/// hits + misses + shedQueries + expiredQueries.
struct ServerStats {
    std::int64_t connectionsAccepted = 0;
    std::int64_t connectionsDropped = 0;  ///< protocol errors + timeouts + over limit
    std::int64_t requests = 0;            ///< QueryBatch frames parsed
    std::int64_t queries = 0;             ///< queries received in those requests
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t shedQueries = 0;     ///< refused by overload protection / drain
    std::int64_t expiredQueries = 0;  ///< deadline passed before simulation
    std::int64_t batches = 0;         ///< engine searchBatch calls
    std::int64_t mutateRequests = 0;  ///< Mutate frames parsed
    std::int64_t mutateOps = 0;       ///< ops inside those frames
    std::int64_t mutateFailed = 0;    ///< ops answered with a non-Ok status
    std::int64_t simRequests = 0;     ///< Similarity frames parsed
    std::int64_t simQueries = 0;      ///< keys inside those frames
    std::int64_t simRows = 0;         ///< hit rows returned across all replies
    std::int64_t simShed = 0;         ///< similarity keys refused (drain/overload)
    std::int64_t framesIn = 0;
    std::int64_t framesOut = 0;
    std::int64_t protoErrors = 0;  ///< sum of errorCounts
    /// Per-ProtoError occurrence counts, indexed by the enum value.
    std::array<std::int64_t, kNumProtoErrors> errorCounts{};
    bool drained = false;       ///< run() exited through graceful drain
    bool drainForced = false;   ///< drainTimeout expired with replies unwritten
};

class Server {
public:
    /// The engine must outlive the server. Entry mutations — over the wire
    /// via Mutate frames or directly on the engine — are safe while run() is
    /// live (the engine serves from published table snapshots).
    Server(serve::QueryEngine& engine, ServerOptions options);
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind + listen (+ create the stop pipe). Throws SimError(IoError).
    void start();

    /// Port actually bound (resolves options.port == 0).
    int port() const { return boundPort_; }

    /// Event loop; returns after requestStop() completes the graceful drain.
    /// Throws SimError(IoError) only for unrecoverable listener/poll
    /// failures — per-connection trouble is handled and counted.
    void run();

    /// Begin graceful drain. Async-signal-safe (one write(2) to a pipe);
    /// callable from any thread or from a signal handler.
    void requestStop() noexcept;

    /// Install SIGTERM/SIGINT handlers that requestStop() this server.
    /// One server per process may hold the handlers at a time.
    static void installStopSignals(Server& server);

    bool draining() const { return draining_; }
    const ServerStats& stats() const { return stats_; }

    /// Deterministic JSON object (sorted, no wall-clock) for the tool report.
    std::string statsJson() const;

private:
    struct Conn {
        int fd = -1;
        std::string readBuf;
        std::string writeBuf;
        double lastActivity = 0.0;  ///< monotonic; read-side progress
        bool closeAfterFlush = false;
    };

    struct Request {
        int fd = -1;
        std::uint64_t requestId = 0;
        double arrival = 0.0;
        double deadline = 0.0;  ///< absolute monotonic; 0 = none
        std::vector<tcam::TernaryWord> keys;
    };

    void acceptConnections(double now);
    void readConn(int fd, double now);
    void writeConn(int fd);
    void handleFrame(int fd, const Frame& frame, double now);
    void handleQueryBatch(int fd, const Frame& frame, double now);
    void handleMutate(int fd, const Frame& frame);
    void handleSimilarity(int fd, const Frame& frame);
    /// False (after a typed BadBody) when a reply of `count` keys at up to
    /// `perKeyBytes` each would exceed options.maxFrameBytes.
    bool replyFits(int fd, std::size_t count, std::size_t perKeyBytes);
    void sendFrame(int fd, MsgType type, std::string_view body);
    void sendShedReply(int fd, std::uint64_t requestId, std::size_t count);
    void protoFail(int fd, ProtoError code, const std::string& message);
    void dropConn(int fd, bool countDropped);
    /// Runs whole requests off the front of pending_, up to maxBatch
    /// queries, as one engine batch and queues each request's reply.
    void executeBatch();
    void checkReadTimeouts(double now);
    LoopDeadlines loopDeadlines() const;
    bool drainComplete() const;
    void noteError(ProtoError code);

    serve::QueryEngine& engine_;
    ServerOptions options_;
    int listenFd_ = -1;
    int boundPort_ = 0;
    int stopPipe_[2] = {-1, -1};
    bool draining_ = false;
    double drainStart_ = 0.0;
    std::map<int, Conn> conns_;
    std::deque<Request> pending_;
    std::int64_t pendingQueries_ = 0;
    ServerStats stats_;
};

}  // namespace fetcam::net
