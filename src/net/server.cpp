#include "net/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/obs.hpp"
#include "recover/sim_error.hpp"

namespace fetcam::net {

using recover::SimError;
using recover::SimErrorReason;

namespace {

void setNonBlocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throw SimError(SimErrorReason::IoError, "net::Server",
                       "cannot set O_NONBLOCK: " + std::string(std::strerror(errno)));
}

/// BatchReply and SimilarityReply header: requestId u64, admission u8,
/// count u32.
constexpr std::size_t kReplyHeaderBytes = 13;

Server* gSignalTarget = nullptr;

void stopSignalHandler(int) {
    if (gSignalTarget) gSignalTarget->requestStop();
}

}  // namespace

double nextWake(double now, const LoopDeadlines& deadlines, const ServerOptions& options) {
    double next = now + 0.1;  // idle heartbeat
    if (deadlines.oldestMidFrame)
        next = std::min(next, *deadlines.oldestMidFrame + options.readTimeout);
    if (deadlines.drainStart)
        next = std::min(next, *deadlines.drainStart + options.drainTimeout);
    return next;
}

timespec waitTimeout(double now, double deadline) {
    constexpr long kNanosPerSecond = 1'000'000'000L;
    timespec timeout{};
    const double wait = std::min(deadline - now, 1.0);
    if (!(wait > 0.0)) return timeout;
    // wait * 1e9 may itself round down; step up until the timeout covers
    // the whole wait, so the loop never wakes to a deadline still ahead.
    auto nanos = static_cast<long>(std::ceil(wait * 1e9));
    while (static_cast<double>(nanos) * 1e-9 < wait) ++nanos;
    timeout.tv_sec = nanos / kNanosPerSecond;
    timeout.tv_nsec = nanos % kNanosPerSecond;
    return timeout;
}

int pollUntil(pollfd* fds, nfds_t count, double now, double deadline) {
    const timespec timeout = waitTimeout(now, deadline);
    return ::ppoll(fds, count, &timeout, nullptr);
}

Server::Server(serve::QueryEngine& engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
    if (options_.maxBatch < 1)
        throw SimError(SimErrorReason::InvalidSpec, "net::Server", "maxBatch must be >= 1");
    if (options_.maxPendingQueries < 1)
        throw SimError(SimErrorReason::InvalidSpec, "net::Server",
                       "maxPendingQueries must be >= 1");
    if (options_.maxFrameBytes < kFrameHeaderSize)
        throw SimError(SimErrorReason::InvalidSpec, "net::Server", "maxFrameBytes too small");
    if (options_.readTimeout <= 0.0 || options_.drainTimeout <= 0.0)
        throw SimError(SimErrorReason::InvalidSpec, "net::Server",
                       "readTimeout/drainTimeout out of range");
}

Server::~Server() {
    if (gSignalTarget == this) gSignalTarget = nullptr;
    for (auto& [fd, conn] : conns_) ::close(fd);
    conns_.clear();
    if (listenFd_ >= 0) ::close(listenFd_);
    if (stopPipe_[0] >= 0) ::close(stopPipe_[0]);
    if (stopPipe_[1] >= 0) ::close(stopPipe_[1]);
}

void Server::start() {
    if (listenFd_ >= 0)
        throw SimError(SimErrorReason::InvalidSpec, "net::Server", "start() called twice");
    if (::pipe(stopPipe_) != 0)
        throw SimError(SimErrorReason::IoError, "net::Server",
                       "cannot create stop pipe: " + std::string(std::strerror(errno)));
    setNonBlocking(stopPipe_[0]);
    setNonBlocking(stopPipe_[1]);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw SimError(SimErrorReason::IoError, "net::Server",
                       "cannot create socket: " + std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
        throw SimError(SimErrorReason::InvalidSpec, "net::Server",
                       "invalid listen host " + options_.host);
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
        throw SimError(SimErrorReason::IoError, "net::Server",
                       "cannot bind " + options_.host + ":" + std::to_string(options_.port) +
                           ": " + std::string(std::strerror(errno)));
    if (::listen(listenFd_, options_.backlog) != 0)
        throw SimError(SimErrorReason::IoError, "net::Server",
                       "listen failed: " + std::string(std::strerror(errno)));
    setNonBlocking(listenFd_);

    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
        throw SimError(SimErrorReason::IoError, "net::Server",
                       "getsockname failed: " + std::string(std::strerror(errno)));
    boundPort_ = ntohs(bound.sin_port);
}

void Server::requestStop() noexcept {
    if (stopPipe_[1] < 0) return;
    const char byte = 's';
    // Async-signal-safe: one write(2); EAGAIN just means a stop is already
    // queued, which is all we need.
    [[maybe_unused]] const auto n = ::write(stopPipe_[1], &byte, 1);
}

void Server::installStopSignals(Server& server) {
    gSignalTarget = &server;
    std::signal(SIGTERM, stopSignalHandler);
    std::signal(SIGINT, stopSignalHandler);
}

void Server::noteError(ProtoError code) {
    ++stats_.protoErrors;
    ++stats_.errorCounts[static_cast<std::size_t>(code)];
    if (obs::enabled()) {
        static obs::Counter& errors = obs::counter("net.proto_errors");
        errors.add();
    }
}

void Server::sendFrame(int fd, MsgType type, std::string_view body) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    it->second.writeBuf += encodeFrame(type, body);
    ++stats_.framesOut;
    if (obs::enabled()) {
        static obs::Counter& frames = obs::counter("net.frames.out");
        frames.add();
    }
    writeConn(fd);
}

void Server::sendShedReply(int fd, std::uint64_t requestId, std::size_t count) {
    BatchReplyBody reply;
    reply.requestId = requestId;
    reply.admission = static_cast<std::uint8_t>(serve::BatchAdmission::Shed);
    reply.rows.assign(count, -1);
    reply.status.assign(count, QueryStatus::Shed);
    stats_.shedQueries += static_cast<std::int64_t>(count);
    if (obs::enabled()) {
        static obs::Counter& shed = obs::counter("net.shed");
        shed.add(static_cast<long long>(count));
    }
    sendFrame(fd, MsgType::BatchReply, encodeBatchReply(reply));
}

void Server::protoFail(int fd, ProtoError code, const std::string& message) {
    noteError(code);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    // Stop reading this peer: whatever else its buffer holds is untrusted.
    it->second.readBuf.clear();
    it->second.closeAfterFlush = true;
    ErrorBody body{code, message};
    sendFrame(fd, MsgType::Error, encodeError(body));
    // If the error could not be flushed immediately the poll loop keeps
    // trying until the write buffer empties, then closes.
    it = conns_.find(fd);
    if (it != conns_.end() && it->second.writeBuf.empty()) dropConn(fd, true);
}

void Server::dropConn(int fd, bool countDropped) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    ::close(fd);
    conns_.erase(it);
    if (countDropped) ++stats_.connectionsDropped;
    if (obs::enabled()) {
        static obs::Counter& dropped = obs::counter("net.connections.dropped");
        if (countDropped) dropped.add();
    }
    // Pending requests from this connection still execute; their replies
    // are simply unroutable by then (sendFrame no-ops on a gone fd).
}

void Server::acceptConnections(double now) {
    while (true) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
            if (errno == EMFILE || errno == ENFILE || errno == ECONNABORTED) return;
            throw SimError(SimErrorReason::IoError, "net::Server",
                           "accept failed: " + std::string(std::strerror(errno)));
        }
        setNonBlocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        Conn conn;
        conn.fd = fd;
        conn.lastActivity = now;
        conns_.emplace(fd, std::move(conn));
        ++stats_.connectionsAccepted;
        if (obs::enabled()) {
            static obs::Counter& accepted = obs::counter("net.connections.accepted");
            accepted.add();
        }
        if (static_cast<int>(conns_.size()) > options_.maxConnections) {
            protoFail(fd, ProtoError::TooManyConnections, "connection limit reached");
            continue;
        }
        HelloBody hello;
        hello.wordBits = static_cast<std::uint32_t>(engine_.wordBits());
        hello.maxBatch = options_.maxBatch;
        hello.maxFrameBytes = options_.maxFrameBytes;
        sendFrame(fd, MsgType::Hello, encodeHello(hello));
    }
}

void Server::readConn(int fd, double now) {
    auto it = conns_.find(fd);
    if (it == conns_.end() || it->second.closeAfterFlush) return;
    char buf[16384];
    while (true) {
        const auto n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
            it->second.readBuf.append(buf, static_cast<std::size_t>(n));
            it->second.lastActivity = now;
            if (it->second.readBuf.size() >
                options_.maxFrameBytes + kFrameHeaderSize + sizeof buf) {
                protoFail(fd, ProtoError::Oversized, "receive buffer overrun");
                return;
            }
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        // EOF or hard error. A non-empty parse buffer is a torn frame —
        // the mid-request-disconnect fault — which is typed and counted.
        if (!it->second.readBuf.empty()) noteError(ProtoError::Truncated);
        dropConn(fd, n < 0 || !it->second.readBuf.empty());
        return;
    }

    while (true) {
        it = conns_.find(fd);
        if (it == conns_.end() || it->second.closeAfterFlush) return;
        auto& readBuf = it->second.readBuf;
        const DecodeResult r = decodeFrame(readBuf, options_.maxFrameBytes);
        if (r.status == DecodeResult::Status::NeedMore) return;
        if (r.status == DecodeResult::Status::Bad) {
            protoFail(fd, r.error, r.message);
            return;
        }
        readBuf.erase(0, r.consumed);
        ++stats_.framesIn;
        if (obs::enabled()) {
            static obs::Counter& frames = obs::counter("net.frames.in");
            frames.add();
        }
        handleFrame(fd, r.frame, now);
    }
}

void Server::handleMutate(int fd, const Frame& frame) {
    std::string err;
    auto mutate = decodeMutate(frame.body, static_cast<std::uint32_t>(engine_.wordBits()),
                               options_.maxBatch, &err);
    if (!mutate) {
        protoFail(fd, ProtoError::BadBody, err);
        return;
    }
    ++stats_.mutateRequests;
    stats_.mutateOps += static_cast<std::int64_t>(mutate->ops.size());
    if (obs::enabled()) {
        static obs::Counter& mutations = obs::counter("net.mutations");
        mutations.add(static_cast<long long>(mutate->ops.size()));
    }

    MutateReplyBody reply;
    reply.requestId = mutate->requestId;
    reply.rows.reserve(mutate->ops.size());
    reply.status.reserve(mutate->ops.size());
    for (const auto& op : mutate->ops) {
        std::int64_t row = -1;
        MutateStatus status = MutateStatus::Ok;
        if (draining_) {
            // Refuse new table state during drain: a mutation applied after
            // the last reply flushed would be silently lost on restart.
            status = MutateStatus::Rejected;
        } else {
            switch (op.op) {
                case MutateOp::Insert:
                    try {
                        row = engine_.insert(op.word);
                    } catch (const std::length_error&) {
                        status = MutateStatus::TableFull;
                    }
                    break;
                case MutateOp::InsertAt:
                    if (op.row < 0 || op.row >= engine_.capacity()) {
                        status = MutateStatus::InvalidRow;
                    } else {
                        engine_.insertAt(op.row, op.word);
                        row = op.row;
                    }
                    break;
                case MutateOp::Erase:
                    if (op.row < 0 || op.row >= engine_.capacity()) {
                        status = MutateStatus::InvalidRow;
                    } else {
                        engine_.erase(op.row);
                        row = op.row;
                    }
                    break;
            }
        }
        if (status != MutateStatus::Ok) ++stats_.mutateFailed;
        reply.rows.push_back(row);
        reply.status.push_back(status);
    }
    sendFrame(fd, MsgType::MutateReply, encodeMutateReply(reply));
}

void Server::handleSimilarity(int fd, const Frame& frame) {
    std::string err;
    auto sim = decodeSimilarity(frame.body, static_cast<std::uint32_t>(engine_.wordBits()),
                                options_.maxBatch, &err);
    if (!sim) {
        protoFail(fd, ProtoError::BadBody, err);
        return;
    }
    // Worst case: every key returns a u32 hit count and limit() hits of
    // { row i64, distance u32 }.
    if (!replyFits(fd, sim->keys.size(), 4 + 12 * sim->toOptions().limit())) return;
    ++stats_.simRequests;
    stats_.simQueries += static_cast<std::int64_t>(sim->keys.size());
    if (obs::enabled()) {
        static obs::Counter& queries = obs::counter("net.sim.queries");
        queries.add(static_cast<long long>(sim->keys.size()));
    }

    SimilarityReplyBody reply;
    reply.requestId = sim->requestId;
    // Drain and the pending-query overload bound shed similarity work the
    // same way query batches are shed: a typed, retryable reply.
    if (draining_ || pendingQueries_ >= options_.maxPendingQueries) {
        reply.admission = static_cast<std::uint8_t>(serve::BatchAdmission::Shed);
        reply.hits.resize(sim->keys.size());
        stats_.simShed += static_cast<std::int64_t>(sim->keys.size());
        sendFrame(fd, MsgType::SimilarityReply, encodeSimilarityReply(reply));
        return;
    }
    try {
        // Executed immediately (like Mutate): similarity scans run on the
        // engine's snapshot table, so batching them buys nothing and ordering
        // against queued QueryBatch work is irrelevant to determinism.
        auto result = engine_.similarityBatch(sim->keys, sim->toOptions(), options_.jobs);
        reply.admission = static_cast<std::uint8_t>(serve::BatchAdmission::Accepted);
        reply.hits = std::move(result.hits);
        stats_.simRows += result.rowsReturned;
    } catch (const SimError& e) {
        // e.g. a non-FeFET geometry cannot price similarity searches; the
        // request is unservable here, which is a typed body-level failure.
        protoFail(fd, ProtoError::BadBody, e.what());
        return;
    }
    sendFrame(fd, MsgType::SimilarityReply, encodeSimilarityReply(reply));
}

bool Server::replyFits(int fd, std::size_t count, std::size_t perKeyBytes) {
    // Divide rather than multiply: count * perKeyBytes could overflow.
    if (count <= (options_.maxFrameBytes - kReplyHeaderBytes) / perKeyBytes) return true;
    protoFail(fd, ProtoError::BadBody,
              "worst-case reply of " + std::to_string(count) + " keys x " +
                  std::to_string(perKeyBytes) + " bytes exceeds the " +
                  std::to_string(options_.maxFrameBytes) + "-byte frame limit");
    return false;
}

void Server::handleFrame(int fd, const Frame& frame, double now) {
    switch (frame.type) {
        case MsgType::QueryBatch: return handleQueryBatch(fd, frame, now);
        case MsgType::Mutate: return handleMutate(fd, frame);
        case MsgType::Similarity: return handleSimilarity(fd, frame);
        default:
            protoFail(fd, ProtoError::BadType,
                      "unexpected " + std::to_string(static_cast<int>(frame.type)) +
                          " frame from client");
    }
}

void Server::handleQueryBatch(int fd, const Frame& frame, double now) {
    std::string err;
    auto batch = decodeQueryBatch(frame.body, static_cast<std::uint32_t>(engine_.wordBits()),
                                  options_.maxBatch, &err);
    if (!batch) {
        protoFail(fd, ProtoError::BadBody, err);
        return;
    }
    // One { row i64, status u8 } per key.
    if (!replyFits(fd, batch->keys.size(), 9)) return;
    ++stats_.requests;
    stats_.queries += static_cast<std::int64_t>(batch->keys.size());
    if (obs::enabled()) {
        static obs::Counter& queries = obs::counter("net.queries");
        queries.add(static_cast<long long>(batch->keys.size()));
    }
    // Drain refuses new work with typed sheds (the peer got a Drain frame).
    if (draining_) {
        sendShedReply(fd, batch->requestId, batch->keys.size());
        return;
    }
    // Overload protection: never queue past the bound; shed the whole
    // request with a typed, retryable reply instead.
    const auto n = static_cast<std::int64_t>(batch->keys.size());
    if (pendingQueries_ + n > options_.maxPendingQueries) {
        sendShedReply(fd, batch->requestId, batch->keys.size());
        return;
    }

    Request req;
    req.fd = fd;
    req.requestId = batch->requestId;
    req.arrival = now;
    if (batch->deadlineMicros > 0)
        req.deadline = now + static_cast<double>(batch->deadlineMicros) * 1e-6;
    else if (options_.defaultDeadline > 0.0)
        req.deadline = now + options_.defaultDeadline;
    req.keys = std::move(batch->keys);
    pendingQueries_ += n;
    pending_.push_back(std::move(req));
}

void Server::executeBatch() {
    // Take whole requests off the front until the engine batch is full — a
    // request is never split, so each gets exactly one reply.
    std::vector<Request> taken;
    std::size_t total = 0;
    while (!pending_.empty()) {
        const std::size_t n = pending_.front().keys.size();
        if (!taken.empty() && total + n > options_.maxBatch) break;
        total += n;
        taken.push_back(std::move(pending_.front()));
        pending_.pop_front();
    }
    pendingQueries_ -= static_cast<std::int64_t>(total);

    std::vector<tcam::TernaryWord> keys;
    std::vector<double> deadlines;
    keys.reserve(total);
    deadlines.reserve(total);
    for (auto& req : taken)
        for (auto& key : req.keys) {
            keys.push_back(std::move(key));
            deadlines.push_back(req.deadline);
        }

    serve::SubmitOptions opts;
    opts.deadlines = &deadlines;
    opts.enqueuedAt = taken.front().arrival;
    const auto result = engine_.searchBatch(keys, options_.jobs, opts);
    ++stats_.batches;
    if (obs::enabled()) {
        static obs::Counter& batches = obs::counter("net.batches");
        batches.add();
    }

    const double done = obs::monotonicSeconds();
    obs::Histogram* requestSeconds = nullptr;
    if (obs::enabled()) {
        static obs::Histogram& hist = obs::histogram("net.request.seconds");
        requestSeconds = &hist;
    }
    std::size_t offset = 0;
    for (const auto& req : taken) {
        const std::size_t n = req.keys.size();
        BatchReplyBody reply;
        reply.requestId = req.requestId;
        reply.admission = static_cast<std::uint8_t>(serve::BatchAdmission::Accepted);
        reply.rows.assign(result.rows.begin() + static_cast<std::ptrdiff_t>(offset),
                          result.rows.begin() + static_cast<std::ptrdiff_t>(offset + n));
        reply.status.reserve(n);
        for (const auto row : reply.rows) {
            if (row >= 0) {
                reply.status.push_back(QueryStatus::Hit);
                ++stats_.hits;
            } else if (row == serve::kRowDeadlineExpired) {
                reply.status.push_back(QueryStatus::DeadlineExceeded);
                ++stats_.expiredQueries;
            } else {
                reply.status.push_back(QueryStatus::Miss);
                ++stats_.misses;
            }
        }
        offset += n;
        if (requestSeconds) requestSeconds->observe(done - req.arrival);
        sendFrame(req.fd, MsgType::BatchReply, encodeBatchReply(reply));
    }
    if (obs::enabled()) {
        static obs::Counter& hits = obs::counter("net.hits");
        static obs::Counter& expired = obs::counter("net.deadline_expired");
        // Recount from the batch result once instead of per reply row.
        hits.add(static_cast<long long>(result.hits));
        expired.add(static_cast<long long>(result.expired));
    }
}

void Server::writeConn(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    auto& writeBuf = it->second.writeBuf;
    while (!writeBuf.empty()) {
        const auto n = ::send(fd, writeBuf.data(), writeBuf.size(), MSG_NOSIGNAL);
        if (n > 0) {
            writeBuf.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        if (n < 0 && errno == EINTR) continue;
        dropConn(fd, true);  // peer gone mid-reply
        return;
    }
    if (it->second.closeAfterFlush) dropConn(fd, true);
}

void Server::checkReadTimeouts(double now) {
    std::vector<int> stalled;
    for (const auto& [fd, conn] : conns_)
        // Only a peer stalled *mid-frame* is suspect (slowloris); idle
        // connections between requests are normal and stay open.
        if (!conn.closeAfterFlush && !conn.readBuf.empty() &&
            now - conn.lastActivity > options_.readTimeout)
            stalled.push_back(fd);
    for (const int fd : stalled)
        protoFail(fd, ProtoError::ReadTimeout,
                  "stalled mid-frame past the read timeout");
}

LoopDeadlines Server::loopDeadlines() const {
    LoopDeadlines deadlines;
    for (const auto& [fd, conn] : conns_)
        if (!conn.readBuf.empty())
            deadlines.oldestMidFrame =
                std::min(deadlines.oldestMidFrame.value_or(conn.lastActivity), conn.lastActivity);
    if (draining_) deadlines.drainStart = drainStart_;
    return deadlines;
}

bool Server::drainComplete() const {
    for (const auto& [fd, conn] : conns_)
        if (!conn.writeBuf.empty()) return false;
    return true;
}

void Server::run() {
    if (listenFd_ < 0)
        throw SimError(SimErrorReason::InvalidSpec, "net::Server", "run() before start()");
    std::vector<pollfd> fds;
    while (true) {
        fds.clear();
        fds.push_back({stopPipe_[0], POLLIN, 0});
        if (!draining_ && listenFd_ >= 0) fds.push_back({listenFd_, POLLIN, 0});
        for (const auto& [fd, conn] : conns_) {
            short events = 0;
            if (!conn.closeAfterFlush) events |= POLLIN;
            if (!conn.writeBuf.empty()) events |= POLLOUT;
            if (events) fds.push_back({fd, events, 0});
        }

        const double before = obs::monotonicSeconds();
        const int rc =
            pollUntil(fds.data(), fds.size(), before, nextWake(before, loopDeadlines(), options_));
        if (rc < 0) {
            if (errno == EINTR) continue;
            throw SimError(SimErrorReason::IoError, "net::Server",
                           "ppoll failed: " + std::string(std::strerror(errno)));
        }
        const double now = obs::monotonicSeconds();

        for (const auto& p : fds) {
            if (p.revents == 0) continue;
            if (p.fd == stopPipe_[0]) {
                char drainBytes[16];
                while (::read(stopPipe_[0], drainBytes, sizeof drainBytes) > 0) {
                }
                if (!draining_) {
                    draining_ = true;
                    drainStart_ = now;
                    if (listenFd_ >= 0) {
                        ::close(listenFd_);
                        listenFd_ = -1;
                    }
                    // Tell every peer; anything already queued still runs.
                    std::vector<int> open;
                    open.reserve(conns_.size());
                    for (const auto& [fd, conn] : conns_) open.push_back(fd);
                    for (const int fd : open) sendFrame(fd, MsgType::Drain, {});
                }
            } else if (p.fd == listenFd_) {
                if (p.revents & POLLIN) acceptConnections(now);
            } else {
                if (p.revents & (POLLIN | POLLHUP | POLLERR)) readConn(p.fd, now);
                if (p.revents & POLLOUT) writeConn(p.fd);
            }
        }

        checkReadTimeouts(now);

        // Run everything this pass read, whole requests up to maxBatch
        // queries a batch: frames read together share a searchBatch, and no
        // request waits for a later wake (group commit, the loop its only
        // worker). A request read before a drain began still runs here.
        while (!pending_.empty()) executeBatch();

        if (draining_) {
            if (drainComplete()) {
                stats_.drained = true;
                break;
            }
            if (now - drainStart_ > options_.drainTimeout) {
                stats_.drained = true;
                stats_.drainForced = true;
                break;
            }
        }
    }
    // Drain finished: close every connection; the final report is the
    // caller's to emit (store flush + deterministic JSON live in the tool).
    std::vector<int> open;
    open.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) open.push_back(fd);
    for (const int fd : open) dropConn(fd, false);
}

std::string Server::statsJson() const {
    std::ostringstream os;
    os << "{\"connectionsAccepted\": " << stats_.connectionsAccepted
       << ", \"connectionsDropped\": " << stats_.connectionsDropped
       << ", \"requests\": " << stats_.requests << ", \"queries\": " << stats_.queries
       << ", \"hits\": " << stats_.hits << ", \"misses\": " << stats_.misses
       << ", \"shedQueries\": " << stats_.shedQueries
       << ", \"expiredQueries\": " << stats_.expiredQueries
       << ", \"batches\": " << stats_.batches
       << ", \"mutateRequests\": " << stats_.mutateRequests
       << ", \"mutateOps\": " << stats_.mutateOps
       << ", \"mutateFailed\": " << stats_.mutateFailed
       << ", \"simRequests\": " << stats_.simRequests
       << ", \"simQueries\": " << stats_.simQueries
       << ", \"simRows\": " << stats_.simRows
       << ", \"simShed\": " << stats_.simShed
       << ", \"framesIn\": " << stats_.framesIn
       << ", \"framesOut\": " << stats_.framesOut
       << ", \"protoErrors\": " << stats_.protoErrors << ", \"errorCounts\": {";
    bool first = true;
    for (int code = 0; code < kNumProtoErrors; ++code) {
        if (stats_.errorCounts[static_cast<std::size_t>(code)] == 0) continue;
        if (!first) os << ", ";
        first = false;
        os << "\"" << protoErrorName(static_cast<ProtoError>(code))
           << "\": " << stats_.errorCounts[static_cast<std::size_t>(code)];
    }
    os << "}, \"drained\": " << (stats_.drained ? "true" : "false")
       << ", \"drainForced\": " << (stats_.drainForced ? "true" : "false") << "}";
    return os.str();
}

}  // namespace fetcam::net
