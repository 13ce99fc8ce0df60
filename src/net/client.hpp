// fetcam::net::Client — blocking protocol client for the load generator and
// the network tests.
//
// One TCP connection speaking the net protocol: connect() reads the server's
// Hello (and validates the version), query() sends a QueryBatch and waits for
// the matching BatchReply. Every failure is typed — a ClientResult always
// says *why* (server Error frame, torn reply, timeout, injected fault), so
// callers can retry sheds and count faults without string-matching.
//
// Fault injection (the client *is* the network fault source in tests and the
// load generator): when a recover::FaultPlan is installed on this thread,
// every frame send consults plan->beginNetFrame() and may
//   * TornFrame      — send a prefix of the frame, then close,
//   * GarbageBytes   — flip bytes in the encoded frame before sending,
//   * Disconnect     — close without sending anything,
//   * StalledRead    — send only the frame header, keep the socket open and
//                      return (the server's read timeout must cut us off).
// Injected sends return faultInjected = true and never wait for a reply.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/protocol.hpp"

namespace fetcam::net {

/// Typed outcome of one query() / mutate() / similarity() round trip.
struct ClientResult {
    bool ok = false;             ///< reply holds a validated BatchReply
    BatchReplyBody reply;        ///< valid when ok (query path)
    std::optional<MutateReplyBody> mutateReply;  ///< set when a MutateReply arrived
    std::optional<SimilarityReplyBody> simReply;  ///< set when a SimilarityReply arrived
    bool drainNotice = false;    ///< a Drain frame arrived (server shutting down)
    bool faultInjected = false;  ///< an installed FaultPlan consumed this send
    bool timedOut = false;       ///< no complete reply within the wait
    bool disconnected = false;   ///< peer closed (or we closed via a fault)
    ProtoError error = ProtoError::None;  ///< server Error frame / decode failure
    std::string message;
};

class Client {
public:
    Client() = default;
    ~Client();
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /// Connect and read the server Hello. A server whose version is not
    /// kProtocolVersion is refused with SimError(CorruptData): this client
    /// knows one frame layout. Throws SimError(IoError) when the connection
    /// cannot be established.
    void connect(const std::string& host, int port, double timeout = 5.0);

    bool connected() const { return fd_ >= 0; }
    const HelloBody& hello() const { return hello_; }
    void close();

    /// Send one QueryBatch and wait for its BatchReply (in result.reply).
    /// The reply must carry the request's id and one row per key; a Drain
    /// frame arriving first is reported in drainNotice and the wait
    /// continues for the reply.
    ClientResult query(const QueryBatchBody& batch, double timeout = 10.0);

    /// Send one Mutate and wait for its MutateReply (in result.mutateReply),
    /// one row per op; otherwise like query().
    ClientResult mutate(const MutateBody& ops, double timeout = 10.0);

    /// Send one Similarity request and wait for its SimilarityReply (in
    /// result.simReply), one hit list per key; otherwise like query().
    ClientResult similarity(const SimilarityBody& request, double timeout = 10.0);

    /// Send raw bytes as-is (protocol-corruption tests). Returns false when
    /// the peer is gone.
    bool sendRaw(std::string_view bytes);

    /// Wait for the next frame (tests). ok=true with the decoded reply for
    /// BatchReply; other frame types surface through the flags/error fields.
    /// Frames are bounded by the maxFrameBytes the server's Hello advertised.
    ClientResult readFrame(double timeout);

private:
    /// Frame send with fault-plan consultation; returns true when a normal
    /// complete send happened (a reply may be expected).
    bool sendFrame(MsgType type, std::string_view body, ClientResult& result);

    /// True when `key` has the word width the server's Hello announced.
    bool fitsWidth(const tcam::TernaryWord& key) const;

    /// readFrame() that also reports the type of the frame it decoded.
    ClientResult nextFrame(double timeout, MsgType& type);

    /// The one request/reply exchange behind query(), mutate() and
    /// similarity(): refuse locally when `widthOk` is false, send the frame,
    /// then wait for a `replyType` frame carrying `requestId`, skipping
    /// Drain notices, stale replies and replies of other types. A reply
    /// whose count differs from `count` is a typed BadBody.
    ClientResult roundTrip(MsgType type, const std::string& body, bool widthOk,
                           MsgType replyType, std::uint64_t requestId, std::size_t count,
                           double timeout);

    int fd_ = -1;
    HelloBody hello_;
    std::string readBuf_;
};

}  // namespace fetcam::net
