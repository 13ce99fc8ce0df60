#include "net/client.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/server.hpp"
#include "obs/obs.hpp"
#include "recover/fault_injection.hpp"
#include "recover/sim_error.hpp"

namespace fetcam::net {

using recover::SimError;
using recover::SimErrorReason;

Client::~Client() { close(); }

void Client::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    readBuf_.clear();
}

void Client::connect(const std::string& host, int port, double timeout) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        throw SimError(SimErrorReason::IoError, "net::Client",
                       "cannot create socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        close();
        throw SimError(SimErrorReason::InvalidSpec, "net::Client",
                       "invalid host " + host);
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        const std::string detail = std::strerror(errno);
        close();
        throw SimError(SimErrorReason::IoError, "net::Client",
                       "cannot connect to " + host + ":" + std::to_string(port) + ": " +
                           detail);
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    hello_ = HelloBody{};  // the Hello itself is read against the default limit
    ClientResult greeting = readFrame(timeout);
    if (greeting.error != ProtoError::None || greeting.timedOut || greeting.disconnected) {
        close();
        throw SimError(SimErrorReason::IoError, "net::Client",
                       "no valid Hello from server: " + greeting.message);
    }
    if (hello_.version != kProtocolVersion) {
        const auto version = hello_.version;
        close();
        throw SimError(SimErrorReason::CorruptData, "net::Client",
                       "server speaks protocol version " + std::to_string(version) +
                           "; this client speaks only version " +
                           std::to_string(kProtocolVersion));
    }
}

bool Client::sendRaw(std::string_view bytes) {
    if (fd_ < 0) return false;
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const auto n =
            ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        close();
        return false;
    }
    return true;
}

bool Client::sendFrame(MsgType type, std::string_view body, ClientResult& result) {
    if (fd_ < 0) {
        result.disconnected = true;
        result.message = "not connected";
        return false;
    }
    std::string frame = encodeFrame(type, body);

    recover::FrameFaults faults;
    if (auto* plan = recover::FaultPlan::active()) faults = plan->beginNetFrame();
    if (faults.any()) {
        result.faultInjected = true;
        if (obs::enabled()) {
            static obs::Counter& injected = obs::counter("net.client.faults_injected");
            injected.add();
        }
        if (faults.disconnect) {
            // Vanish instead of sending: the server sees a clean (or torn,
            // if earlier bytes are in flight) close.
            close();
            result.disconnected = true;
            return false;
        }
        if (faults.tornFrame) {
            // A strict prefix that always splits the body (or the header when
            // there is no body): the server must hold a forever-incomplete
            // frame until we close.
            const std::size_t cut = kFrameHeaderSize + body.size() / 2;
            sendRaw(std::string_view(frame).substr(0, std::min(cut, frame.size() - 1)));
            close();
            result.disconnected = true;
            return false;
        }
        if (faults.stalledRead) {
            // Slowloris: header only, socket stays open, no more bytes. The
            // server's read timeout is responsible for cutting us off.
            sendRaw(std::string_view(frame).substr(0, kFrameHeaderSize));
            return false;
        }
        // garbageBytes: damage the frame, send it whole; the server must
        // answer with a typed Error (BadMagic or BadCrc) and drop only us.
        frame[1] ^= 0x5A;                 // magic damage
        frame[frame.size() - 1] ^= 0xA5;  // body/CRC damage
        sendRaw(frame);
        return false;
    }

    if (!sendRaw(frame)) {
        result.disconnected = true;
        result.message = "connection lost during send";
        return false;
    }
    return true;
}

ClientResult Client::readFrame(double timeout) {
    MsgType type = MsgType::Hello;
    return nextFrame(timeout, type);
}

ClientResult Client::nextFrame(double timeout, MsgType& type) {
    ClientResult result;
    const double deadline = obs::monotonicSeconds() + timeout;
    while (true) {
        const DecodeResult r = decodeFrame(readBuf_, hello_.maxFrameBytes);
        if (r.status == DecodeResult::Status::Bad) {
            result.error = r.error;
            result.message = r.message;
            close();
            return result;
        }
        if (r.status == DecodeResult::Status::Ok) {
            readBuf_.erase(0, r.consumed);
            type = r.frame.type;
            std::string err;
            switch (r.frame.type) {
                case MsgType::Hello: {
                    auto hello = decodeHello(r.frame.body, &err);
                    if (!hello) break;
                    hello_ = *hello;
                    result.ok = true;
                    return result;
                }
                case MsgType::BatchReply: {
                    auto reply = decodeBatchReply(r.frame.body, &err);
                    if (!reply) break;
                    result.ok = true;
                    result.reply = std::move(*reply);
                    return result;
                }
                case MsgType::MutateReply: {
                    auto reply = decodeMutateReply(r.frame.body, &err);
                    if (!reply) break;
                    result.ok = true;
                    result.mutateReply = std::move(*reply);
                    return result;
                }
                case MsgType::SimilarityReply: {
                    auto reply = decodeSimilarityReply(r.frame.body, &err);
                    if (!reply) break;
                    result.ok = true;
                    result.simReply = std::move(*reply);
                    return result;
                }
                case MsgType::Error: {
                    auto error = decodeError(r.frame.body, &err);
                    if (!error) break;
                    result.error = error->code;
                    result.message = std::move(error->message);
                    return result;
                }
                case MsgType::Drain:
                    result.drainNotice = true;
                    return result;
                default:
                    err = "unexpected frame type from server";
            }
            result.error = ProtoError::BadBody;
            result.message = err;
            close();
            return result;
        }

        // NeedMore: wait for bytes.
        if (fd_ < 0) {
            result.disconnected = true;
            result.message = "connection closed";
            return result;
        }
        const double now = obs::monotonicSeconds();
        if (now >= deadline) {
            result.timedOut = true;
            result.message = "timed out waiting for a reply";
            return result;
        }
        pollfd p{fd_, POLLIN, 0};
        const int rc = pollUntil(&p, 1, now, deadline);
        if (rc < 0 && errno != EINTR)
            throw SimError(SimErrorReason::IoError, "net::Client",
                           "ppoll failed: " + std::string(std::strerror(errno)));
        if (rc <= 0) continue;
        char buf[16384];
        const auto n = ::recv(fd_, buf, sizeof buf, 0);
        if (n > 0) {
            readBuf_.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) continue;
        close();
        result.disconnected = true;
        result.message = "connection closed by server";
        return result;
    }
}

ClientResult Client::roundTrip(MsgType type, const std::string& body, bool widthOk,
                               MsgType replyType, std::uint64_t requestId, std::size_t count,
                               double timeout) {
    ClientResult result;
    if (!widthOk) {
        result.error = ProtoError::WidthMismatch;
        result.message = "key width does not match the server word width";
        return result;
    }
    if (!sendFrame(type, body, result)) return result;

    const double deadline = obs::monotonicSeconds() + timeout;
    while (true) {
        const double wait = deadline - obs::monotonicSeconds();
        if (wait <= 0.0) {
            result.timedOut = true;
            result.message = "timed out waiting for a reply";
            return result;
        }
        MsgType got = MsgType::Hello;
        ClientResult frame = nextFrame(wait, got);
        if (frame.drainNotice) {
            // Shutdown notice; the reply for this request may still arrive.
            result.drainNotice = true;
            continue;
        }
        frame.drainNotice = result.drainNotice;
        frame.faultInjected = result.faultInjected;
        if (!frame.ok) return frame;
        if (got != replyType) continue;  // interleaved reply to another request
        std::uint64_t id = frame.reply.requestId;
        std::size_t n = frame.reply.rows.size();
        if (frame.mutateReply) {
            id = frame.mutateReply->requestId;
            n = frame.mutateReply->rows.size();
        } else if (frame.simReply) {
            id = frame.simReply->requestId;
            n = frame.simReply->hits.size();
        }
        if (id != requestId) continue;  // stale
        if (n != count) {
            frame.ok = false;
            frame.error = ProtoError::BadBody;
            frame.message = "reply count does not match the request";
            close();
        }
        return frame;
    }
}

bool Client::fitsWidth(const tcam::TernaryWord& key) const {
    return hello_.wordBits == 0 || key.size() == hello_.wordBits;
}

ClientResult Client::query(const QueryBatchBody& batch, double timeout) {
    const bool ok = std::all_of(batch.keys.begin(), batch.keys.end(),
                                [&](const auto& key) { return fitsWidth(key); });
    return roundTrip(MsgType::QueryBatch, encodeQueryBatch(batch), ok, MsgType::BatchReply,
                     batch.requestId, batch.keys.size(), timeout);
}

ClientResult Client::mutate(const MutateBody& ops, double timeout) {
    const bool ok = std::all_of(ops.ops.begin(), ops.ops.end(), [&](const auto& op) {
        return op.op == MutateOp::Erase || fitsWidth(op.word);
    });
    return roundTrip(MsgType::Mutate, encodeMutate(ops), ok, MsgType::MutateReply,
                     ops.requestId, ops.ops.size(), timeout);
}

ClientResult Client::similarity(const SimilarityBody& request, double timeout) {
    const bool ok = std::all_of(request.keys.begin(), request.keys.end(),
                                [&](const auto& key) { return fitsWidth(key); });
    return roundTrip(MsgType::Similarity, encodeSimilarity(request), ok,
                     MsgType::SimilarityReply, request.requestId, request.keys.size(),
                     timeout);
}

}  // namespace fetcam::net
