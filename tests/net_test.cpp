// fetcam::net contract tests.
//
// Two layers:
//   1. Wire protocol (no sockets) — the corruption matrix: truncated
//      headers, bad magic/CRC, oversized declarations, malformed bodies must
//      each produce the right typed ProtoError, never a partially-parsed
//      message.
//   2. Server (loopback sockets, server on its own thread) — correct
//      answers against the engine, overload shedding, deadline expiry,
//      one-bad-connection isolation, slowloris read timeout, mid-batch
//      disconnect, graceful-drain accounting, and a random-byte fuzz smoke:
//      whatever bytes arrive, the server keeps serving well-formed peers.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "numeric/stats.hpp"
#include "obs/obs.hpp"
#include "recover/fault_injection.hpp"
#include "recover/sim_error.hpp"
#include "serve/query_engine.hpp"
#include "store/format.hpp"

using namespace fetcam;

namespace {

serve::EngineOptions smallOptions() {
    serve::EngineOptions o;
    o.shard.cell = tcam::CellKind::FeFet2;
    o.shard.sense = array::SenseScheme::LowSwing;
    o.shard.wordBits = 8;
    o.shard.rows = 4;
    o.capacity = 8;
    return o;
}

net::QueryBatchBody makeBatch(std::uint64_t id, std::initializer_list<int> values,
                              std::uint32_t deadlineMicros = 0) {
    net::QueryBatchBody b;
    b.requestId = id;
    b.deadlineMicros = deadlineMicros;
    for (const int v : values)
        b.keys.push_back(tcam::TernaryWord::fromBits(static_cast<std::uint64_t>(v), 8));
    return b;
}

/// Engine + Server on a background thread; entries 0..entries-1 stored as
/// exact words, so querying value v hits row v iff v < entries.
class ServerHarness {
public:
    explicit ServerHarness(net::ServerOptions options = {}, int entries = 4)
        : engine_(smallOptions()) {
        for (int i = 0; i < entries; ++i)
            engine_.insert(tcam::TernaryWord::fromBits(static_cast<std::uint64_t>(i), 8));
        options.port = 0;
        server_ = std::make_unique<net::Server>(engine_, options);
        server_->start();
        thread_ = std::thread([this] {
            try {
                server_->run();
            } catch (const recover::SimError& e) {
                runError_ = e.what();
            }
        });
    }

    ~ServerHarness() { stop(); }

    void stop() {
        if (thread_.joinable()) {
            server_->requestStop();
            thread_.join();
        }
        EXPECT_EQ(runError_, "");
    }

    int port() const { return server_->port(); }
    const net::ServerStats& stats() const { return server_->stats(); }
    net::Server& server() { return *server_; }
    serve::QueryEngine& engine() { return engine_; }

private:
    serve::QueryEngine engine_;
    std::unique_ptr<net::Server> server_;
    std::thread thread_;
    std::string runError_;
};

void expectAccountingInvariant(const net::ServerStats& s) {
    EXPECT_EQ(s.queries, s.hits + s.misses + s.shedQueries + s.expiredQueries);
}

/// Turns observability on for one test, so the server's net.* counters run.
struct ScopedObs {
    ScopedObs() { obs::setEnabled(true); }
    ~ScopedObs() { obs::setEnabled(false); }
};

/// Waits until obs counter `name` reaches `target`; false after `timeout`
/// seconds. Counters are atomic, so this is safe while the server runs
/// (ServerStats is not: only the server thread may touch it before stop()).
bool waitForCounter(const char* name, long long target, double timeout = 5.0) {
    const double until = obs::monotonicSeconds() + timeout;
    while (obs::counter(name).value() < target) {
        if (obs::monotonicSeconds() > until) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/// Lower-case hex of `bytes`, for comparing encoded bodies to literals.
std::string hex(std::string_view bytes) {
    static const char* digits = "0123456789abcdef";
    std::string out;
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out += digits[b >> 4];
        out += digits[b & 15];
    }
    return out;
}

}  // namespace

// --- protocol corruption matrix (no sockets) -------------------------------

TEST(NetProtocol, FrameRoundTrip) {
    const std::string frame = net::encodeFrame(net::MsgType::QueryBatch, "payload");
    const auto r = net::decodeFrame(frame, net::kDefaultMaxFrameBytes);
    ASSERT_EQ(r.status, net::DecodeResult::Status::Ok);
    EXPECT_EQ(r.frame.type, net::MsgType::QueryBatch);
    EXPECT_EQ(r.frame.body, "payload");
    EXPECT_EQ(r.consumed, frame.size());
}

TEST(NetProtocol, TruncatedHeaderNeedsMore) {
    const std::string frame = net::encodeFrame(net::MsgType::Drain, "");
    for (std::size_t n = 0; n < net::kFrameHeaderSize; ++n) {
        const auto r = net::decodeFrame(frame.substr(0, n), net::kDefaultMaxFrameBytes);
        EXPECT_EQ(r.status, net::DecodeResult::Status::NeedMore) << "prefix " << n;
    }
}

TEST(NetProtocol, TruncatedBodyNeedsMore) {
    const std::string frame = net::encodeFrame(net::MsgType::Error, "some error text");
    for (std::size_t n = net::kFrameHeaderSize; n < frame.size(); ++n) {
        const auto r = net::decodeFrame(frame.substr(0, n), net::kDefaultMaxFrameBytes);
        EXPECT_EQ(r.status, net::DecodeResult::Status::NeedMore) << "prefix " << n;
    }
}

TEST(NetProtocol, GarbagePreambleIsBadMagic) {
    const auto r = net::decodeFrame("GET / HTTP/1.1\r\nHost: x\r\n\r\n",
                                    net::kDefaultMaxFrameBytes);
    EXPECT_EQ(r.status, net::DecodeResult::Status::Bad);
    EXPECT_EQ(r.error, net::ProtoError::BadMagic);
}

TEST(NetProtocol, CorruptedByteIsBadCrc) {
    std::string frame = net::encodeFrame(net::MsgType::QueryBatch, "payload");
    frame[net::kFrameHeaderSize + 2] ^= 0x01;  // flip one body bit
    const auto r = net::decodeFrame(frame, net::kDefaultMaxFrameBytes);
    EXPECT_EQ(r.status, net::DecodeResult::Status::Bad);
    EXPECT_EQ(r.error, net::ProtoError::BadCrc);
}

TEST(NetProtocol, OversizedRejectedBeforeBodyArrives) {
    // Header declaring a body over the limit must fail immediately — waiting
    // for the body would let a hostile peer hold the buffer hostage.
    std::string frame = net::encodeFrame(net::MsgType::QueryBatch, "x");
    const std::uint32_t huge = 512 + 1;
    std::memcpy(frame.data() + 8, &huge, 4);
    const auto r = net::decodeFrame(frame.substr(0, net::kFrameHeaderSize), 512);
    EXPECT_EQ(r.status, net::DecodeResult::Status::Bad);
    EXPECT_EQ(r.error, net::ProtoError::Oversized);
}

TEST(NetProtocol, UnknownTypeIsBadType) {
    std::string frame = net::encodeFrame(net::MsgType::Drain, "");
    frame[4] = 99;  // type byte; re-seal the CRC so only the type is wrong
    std::uint32_t crc = store::crc32(frame.data() + 4, 8);
    std::memcpy(frame.data() + 12, &crc, 4);
    const auto r = net::decodeFrame(frame, net::kDefaultMaxFrameBytes);
    EXPECT_EQ(r.status, net::DecodeResult::Status::Bad);
    EXPECT_EQ(r.error, net::ProtoError::BadType);
}

TEST(NetProtocol, QueryBatchBodyValidation) {
    const auto batch = makeBatch(7, {1, 2, 3}, 1234);
    const std::string body = net::encodeQueryBatch(batch);
    std::string err;

    const auto ok = net::decodeQueryBatch(body, 8, 100, &err);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->requestId, 7u);
    EXPECT_EQ(ok->deadlineMicros, 1234u);
    ASSERT_EQ(ok->keys.size(), 3u);
    EXPECT_EQ(ok->keys[1], batch.keys[1]);

    // Count above maxBatch.
    EXPECT_FALSE(net::decodeQueryBatch(body, 8, 2, &err).has_value());
    // Wrong word width: body length no longer matches count * wordBits.
    EXPECT_FALSE(net::decodeQueryBatch(body, 16, 100, &err).has_value());
    // Trailing junk.
    EXPECT_FALSE(net::decodeQueryBatch(body + "x", 8, 100, &err).has_value());
    // Truncated.
    EXPECT_FALSE(
        net::decodeQueryBatch(body.substr(0, body.size() - 1), 8, 100, &err).has_value());
    // Trit byte outside {0,1,2}.
    std::string bad = body;
    bad[bad.size() - 1] = 3;
    EXPECT_FALSE(net::decodeQueryBatch(bad, 8, 100, &err).has_value());
    // Zero queries.
    net::QueryBatchBody empty;
    empty.requestId = 1;
    EXPECT_FALSE(
        net::decodeQueryBatch(net::encodeQueryBatch(empty), 8, 100, &err).has_value());
}

TEST(NetProtocol, BatchReplyAndErrorRoundTrip) {
    net::BatchReplyBody reply;
    reply.requestId = 42;
    reply.admission = static_cast<std::uint8_t>(serve::BatchAdmission::Accepted);
    reply.rows = {0, -1, serve::kRowDeadlineExpired};
    reply.status = {net::QueryStatus::Hit, net::QueryStatus::Miss,
                    net::QueryStatus::DeadlineExceeded};
    std::string err;
    const auto back = net::decodeBatchReply(net::encodeBatchReply(reply), &err);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->requestId, 42u);
    EXPECT_EQ(back->rows, reply.rows);
    EXPECT_EQ(back->status, reply.status);

    net::ErrorBody e{net::ProtoError::ReadTimeout, "too slow"};
    const auto eb = net::decodeError(net::encodeError(e), &err);
    ASSERT_TRUE(eb.has_value());
    EXPECT_EQ(eb->code, net::ProtoError::ReadTimeout);
    EXPECT_EQ(eb->message, "too slow");

    // Reply with a status byte outside the enum.
    std::string badReply = net::encodeBatchReply(reply);
    badReply[badReply.size() - 1] = 9;
    EXPECT_FALSE(net::decodeBatchReply(badReply, &err).has_value());
}

// Pins the exact wire bytes of every body type (little-endian host), so a
// codec change that alters the layout on both sides at once still fails.
TEST(NetProtocol, GoldenWireBytes) {
    std::string err;

    net::HelloBody hello;
    hello.version = 3;
    hello.wordBits = 8;
    hello.maxBatch = 4096;
    hello.maxFrameBytes = 1u << 20;
    const std::string helloBody = net::encodeHello(hello);
    EXPECT_EQ(hex(helloBody), "03000000" "08000000" "00100000" "00001000");
    const auto helloBack = net::decodeHello(helloBody, &err);
    ASSERT_TRUE(helloBack.has_value()) << err;
    EXPECT_EQ(helloBack->version, 3u);
    EXPECT_EQ(helloBack->wordBits, 8u);
    EXPECT_EQ(helloBack->maxBatch, 4096u);
    EXPECT_EQ(helloBack->maxFrameBytes, 1u << 20);

    // One full frame: magic "FNET", type, flags, reserved, length, CRC-32.
    const std::string frame = net::encodeFrame(net::MsgType::Hello, helloBody);
    EXPECT_EQ(hex(frame), "54454e46" "01" "00" "0000" "10000000" "b148fac0" + hex(helloBody));
    const auto frameBack = net::decodeFrame(frame, net::kDefaultMaxFrameBytes);
    ASSERT_EQ(frameBack.status, net::DecodeResult::Status::Ok);
    EXPECT_EQ(frameBack.frame.type, net::MsgType::Hello);
    EXPECT_EQ(frameBack.frame.body, helloBody);

    net::QueryBatchBody batch;
    batch.requestId = 0x0102030405060708ull;
    batch.deadlineMicros = 0x1234;
    batch.keys = {tcam::TernaryWord::fromString("01x1"),
                  tcam::TernaryWord::fromString("100x")};
    const std::string batchBody = net::encodeQueryBatch(batch);
    EXPECT_EQ(hex(batchBody),
              "0807060504030201" "34120000" "02000000" "00010201" "01000002");
    const auto batchBack = net::decodeQueryBatch(batchBody, 4, 16, &err);
    ASSERT_TRUE(batchBack.has_value()) << err;
    EXPECT_EQ(batchBack->requestId, batch.requestId);
    EXPECT_EQ(batchBack->deadlineMicros, batch.deadlineMicros);
    EXPECT_EQ(batchBack->keys, batch.keys);

    net::BatchReplyBody reply;
    reply.requestId = 9;
    reply.admission = static_cast<std::uint8_t>(serve::BatchAdmission::Shed);
    reply.rows = {5, -1};
    reply.status = {net::QueryStatus::Hit, net::QueryStatus::Shed};
    const std::string replyBody = net::encodeBatchReply(reply);
    EXPECT_EQ(hex(replyBody), "0900000000000000" "01" "02000000"
                              "0500000000000000" "00" "ffffffffffffffff" "02");
    const auto replyBack = net::decodeBatchReply(replyBody, &err);
    ASSERT_TRUE(replyBack.has_value()) << err;
    EXPECT_EQ(replyBack->requestId, 9u);
    EXPECT_EQ(replyBack->admission, reply.admission);
    EXPECT_EQ(replyBack->rows, reply.rows);
    EXPECT_EQ(replyBack->status, reply.status);

    const std::string errorBody =
        net::encodeError({net::ProtoError::ReadTimeout, "slow"});
    EXPECT_EQ(hex(errorBody), "0700" "736c6f77");
    const auto errorBack = net::decodeError(errorBody, &err);
    ASSERT_TRUE(errorBack.has_value()) << err;
    EXPECT_EQ(errorBack->code, net::ProtoError::ReadTimeout);
    EXPECT_EQ(errorBack->message, "slow");

    net::MutateBody mutate;
    mutate.requestId = 0x11;
    mutate.ops = {{net::MutateOp::Insert, 0, tcam::TernaryWord::fromString("10x0")},
                  {net::MutateOp::Erase, 3, {}}};
    const std::string mutateBody = net::encodeMutate(mutate);
    EXPECT_EQ(hex(mutateBody), "1100000000000000" "02000000"
                               "01" "0000000000000000" "01000200"
                               "03" "0300000000000000");
    const auto mutateBack = net::decodeMutate(mutateBody, 4, 16, &err);
    ASSERT_TRUE(mutateBack.has_value()) << err;
    EXPECT_EQ(mutateBack->requestId, 0x11u);
    ASSERT_EQ(mutateBack->ops.size(), 2u);
    EXPECT_EQ(mutateBack->ops[0].op, net::MutateOp::Insert);
    EXPECT_EQ(mutateBack->ops[0].word, mutate.ops[0].word);
    EXPECT_EQ(mutateBack->ops[1].op, net::MutateOp::Erase);
    EXPECT_EQ(mutateBack->ops[1].row, 3);
    EXPECT_EQ(mutateBack->ops[1].word.size(), 0u);

    net::MutateReplyBody mutateReply;
    mutateReply.requestId = 0x11;
    mutateReply.rows = {6, -1};
    mutateReply.status = {net::MutateStatus::Ok, net::MutateStatus::TableFull};
    const std::string mutateReplyBody = net::encodeMutateReply(mutateReply);
    EXPECT_EQ(hex(mutateReplyBody), "1100000000000000" "02000000"
                                    "0600000000000000" "00" "ffffffffffffffff" "01");
    const auto mutateReplyBack = net::decodeMutateReply(mutateReplyBody, &err);
    ASSERT_TRUE(mutateReplyBack.has_value()) << err;
    EXPECT_EQ(mutateReplyBack->requestId, 0x11u);
    EXPECT_EQ(mutateReplyBack->rows, mutateReply.rows);
    EXPECT_EQ(mutateReplyBack->status, mutateReply.status);

    net::SimilarityBody similarity;
    similarity.requestId = 0x21;
    similarity.kind = sim::SimilarityKind::NearestK;
    similarity.param = 2;
    similarity.maxResults = 4;
    similarity.keys = {tcam::TernaryWord::fromString("xx01")};
    const std::string similarityBody = net::encodeSimilarity(similarity);
    EXPECT_EQ(hex(similarityBody), "2100000000000000" "01" "02000000" "04000000"
                                   "01000000" "02020001");
    const auto similarityBack = net::decodeSimilarity(similarityBody, 4, 16, &err);
    ASSERT_TRUE(similarityBack.has_value()) << err;
    EXPECT_EQ(similarityBack->requestId, 0x21u);
    EXPECT_EQ(similarityBack->kind, sim::SimilarityKind::NearestK);
    EXPECT_EQ(similarityBack->param, 2u);
    EXPECT_EQ(similarityBack->maxResults, 4u);
    EXPECT_EQ(similarityBack->keys, similarity.keys);

    net::SimilarityReplyBody similarityReply;
    similarityReply.requestId = 0x21;
    similarityReply.admission = static_cast<std::uint8_t>(serve::BatchAdmission::Accepted);
    similarityReply.hits = {{{3, 0}, {1, 2}}, {}};
    const std::string similarityReplyBody = net::encodeSimilarityReply(similarityReply);
    EXPECT_EQ(hex(similarityReplyBody), "2100000000000000" "00" "02000000"
                                        "02000000" "0300000000000000" "00000000"
                                        "0100000000000000" "02000000"
                                        "00000000");
    const auto similarityReplyBack = net::decodeSimilarityReply(similarityReplyBody, &err);
    ASSERT_TRUE(similarityReplyBack.has_value()) << err;
    EXPECT_EQ(similarityReplyBack->requestId, 0x21u);
    EXPECT_EQ(similarityReplyBack->admission, similarityReply.admission);
    EXPECT_EQ(similarityReplyBack->hits, similarityReply.hits);
}

TEST(NetProtocol, ErrorCodeOutsideEnumRejected) {
    std::string err;
    for (const std::uint16_t code : {std::uint16_t{0}, std::uint16_t{net::kNumProtoErrors},
                                     std::uint16_t{0xFFFF}}) {
        std::string body(reinterpret_cast<const char*>(&code), sizeof code);
        body += "text";
        EXPECT_FALSE(net::decodeError(body, &err).has_value()) << "code " << code;
    }
    // The last valid code still decodes.
    const auto last = net::decodeError(
        net::encodeError({net::ProtoError::UnsupportedVersion, ""}), &err);
    ASSERT_TRUE(last.has_value()) << err;
    EXPECT_EQ(last->code, net::ProtoError::UnsupportedVersion);
}

TEST(NetProtocol, StableErrorNames) {
    EXPECT_STREQ(net::protoErrorName(net::ProtoError::BadMagic), "bad_magic");
    EXPECT_STREQ(net::protoErrorName(net::ProtoError::BadCrc), "bad_crc");
    EXPECT_STREQ(net::protoErrorName(net::ProtoError::Oversized), "oversized");
    EXPECT_STREQ(net::protoErrorName(net::ProtoError::ReadTimeout), "read_timeout");
    EXPECT_STREQ(net::protoErrorName(net::ProtoError::Truncated), "truncated");
    EXPECT_STREQ(net::queryStatusName(net::QueryStatus::Shed), "shed");
    EXPECT_STREQ(net::queryStatusName(net::QueryStatus::DeadlineExceeded),
                 "deadline_exceeded");
}

// --- server behaviour (loopback) -------------------------------------------

TEST(NetServer, ServesCorrectRowsAndHello) {
    ServerHarness h;
    net::Client client;
    client.connect("127.0.0.1", h.port());
    EXPECT_EQ(client.hello().version, net::kProtocolVersion);
    EXPECT_EQ(client.hello().wordBits, 8u);

    const auto res = client.query(makeBatch(1, {0, 3, 7}));
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.reply.rows.size(), 3u);
    EXPECT_EQ(res.reply.rows[0], 0);   // entry 0 stored at row 0
    EXPECT_EQ(res.reply.rows[1], 3);   // entry 3 stored at row 3
    EXPECT_EQ(res.reply.rows[2], -1);  // 7 was never inserted
    EXPECT_EQ(res.reply.status[0], net::QueryStatus::Hit);
    EXPECT_EQ(res.reply.status[2], net::QueryStatus::Miss);

    client.close();
    h.stop();
    EXPECT_EQ(h.stats().requests, 1);
    EXPECT_EQ(h.stats().hits, 2);
    EXPECT_EQ(h.stats().misses, 1);
    EXPECT_TRUE(h.stats().drained);
    expectAccountingInvariant(h.stats());
}

TEST(NetClient, ConnectRefusesAnotherProtocolVersion) {
    // A raw-socket stand-in for an older server: it greets with a v2 Hello.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ASSERT_EQ(::listen(listener, 1), 0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

    std::thread fake([listener] {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) return;
        net::HelloBody hello;
        hello.version = 2;
        hello.wordBits = 8;
        hello.maxBatch = 16;
        const std::string frame = net::encodeFrame(net::MsgType::Hello, net::encodeHello(hello));
        [[maybe_unused]] const auto sent = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        char byte;
        [[maybe_unused]] const auto got = ::recv(fd, &byte, 1, 0);  // until the client closes
        ::close(fd);
    });

    net::Client client;
    try {
        client.connect("127.0.0.1", ntohs(addr.sin_port));
        ADD_FAILURE() << "connect accepted a v2 Hello";
    } catch (const recover::SimError& e) {
        EXPECT_EQ(e.reason(), recover::SimErrorReason::CorruptData) << e.what();
    }
    EXPECT_FALSE(client.connected());
    client.close();
    fake.join();
    ::close(listener);
}

TEST(NetServer, OverloadShedsWholeRequestsWithTypedReplies) {
    net::ServerOptions opts;
    opts.maxPendingQueries = 2;
    opts.coalesceWindow = 0.2;  // hold queries pending long enough to collide
    ServerHarness h(opts);

    net::Client client;
    client.connect("127.0.0.1", h.port());

    // Two requests on one connection: frame order fixes arrival order, so the
    // first request's two queries fill the pending budget and the second must
    // be shed immediately (typed, whole-request) while the first is still
    // answered normally after the coalesce window.
    ASSERT_TRUE(client.sendRaw(
        net::encodeFrame(net::MsgType::QueryBatch,
                         net::encodeQueryBatch(makeBatch(1, {0, 1})))));
    ASSERT_TRUE(client.sendRaw(
        net::encodeFrame(net::MsgType::QueryBatch,
                         net::encodeQueryBatch(makeBatch(2, {2, 3})))));

    net::ClientResult accepted, shed;
    for (int i = 0; i < 2; ++i) {
        const auto res = client.readFrame(5.0);
        ASSERT_TRUE(res.ok);
        if (res.reply.requestId == 1)
            accepted = res;
        else
            shed = res;
    }
    EXPECT_EQ(accepted.reply.requestId, 1u);
    EXPECT_EQ(accepted.reply.admission,
              static_cast<std::uint8_t>(serve::BatchAdmission::Accepted));
    EXPECT_EQ(shed.reply.requestId, 2u);
    EXPECT_EQ(shed.reply.admission,
              static_cast<std::uint8_t>(serve::BatchAdmission::Shed));
    ASSERT_EQ(shed.reply.status.size(), 2u);
    EXPECT_EQ(shed.reply.status[0], net::QueryStatus::Shed);

    client.close();
    h.stop();
    EXPECT_EQ(h.stats().shedQueries, 2);
    expectAccountingInvariant(h.stats());
}

TEST(NetServer, ExpiredDeadlinesAnsweredWithoutScanning) {
    net::ServerOptions opts;
    opts.coalesceWindow = 0.05;  // longer than the 1us deadline below
    ServerHarness h(opts);
    net::Client client;
    client.connect("127.0.0.1", h.port());

    const auto res = client.query(makeBatch(1, {0, 1}, /*deadlineMicros=*/1));
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.reply.status[0], net::QueryStatus::DeadlineExceeded);
    EXPECT_EQ(res.reply.status[1], net::QueryStatus::DeadlineExceeded);
    EXPECT_EQ(res.reply.rows[0], serve::kRowDeadlineExpired);

    client.close();
    h.stop();
    EXPECT_EQ(h.stats().expiredQueries, 2);
    EXPECT_EQ(h.engine().stats().deadlineExpired, 2);
    expectAccountingInvariant(h.stats());
}

TEST(NetServer, BadConnectionDiesAloneNeighboursUnaffected) {
    ServerHarness h;
    net::Client good;
    good.connect("127.0.0.1", h.port());
    net::Client bad;
    bad.connect("127.0.0.1", h.port());

    // Garbage preamble: the bad peer gets a typed Error frame, then its
    // connection — and only its connection — is closed.
    ASSERT_TRUE(bad.sendRaw("this is definitely not a frame"));
    const auto err = bad.readFrame(5.0);
    EXPECT_EQ(err.error, net::ProtoError::BadMagic);
    const auto eof = bad.readFrame(5.0);
    EXPECT_TRUE(eof.disconnected);

    const auto res = good.query(makeBatch(1, {2}));
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.reply.rows[0], 2);

    good.close();
    h.stop();
    EXPECT_EQ(h.stats().errorCounts[static_cast<std::size_t>(net::ProtoError::BadMagic)], 1);
    EXPECT_EQ(h.stats().connectionsDropped, 1);
    expectAccountingInvariant(h.stats());
}

TEST(NetServer, OversizedFrameRejectedWithTypedError) {
    net::ServerOptions opts;
    opts.maxFrameBytes = 256;
    ServerHarness h(opts);
    net::Client client;
    client.connect("127.0.0.1", h.port());

    // Header declaring a 1 MiB body against a 256-byte limit.
    std::string frame = net::encodeFrame(net::MsgType::QueryBatch, "x");
    const std::uint32_t huge = 1u << 20;
    std::memcpy(frame.data() + 8, &huge, 4);
    ASSERT_TRUE(client.sendRaw(frame.substr(0, net::kFrameHeaderSize)));
    const auto err = client.readFrame(5.0);
    EXPECT_EQ(err.error, net::ProtoError::Oversized);

    h.stop();
    EXPECT_EQ(h.stats().errorCounts[static_cast<std::size_t>(net::ProtoError::Oversized)],
              1);
}

TEST(NetServer, SlowlorisCutByReadTimeout) {
    net::ServerOptions opts;
    opts.readTimeout = 0.15;
    ServerHarness h(opts);
    net::Client stalled;
    stalled.connect("127.0.0.1", h.port());
    net::Client good;
    good.connect("127.0.0.1", h.port());

    // Half a frame, then silence: the server must cut the stalled peer after
    // readTimeout with a typed error, not hold the parse buffer forever.
    const std::string frame =
        net::encodeFrame(net::MsgType::QueryBatch, net::encodeQueryBatch(makeBatch(1, {0})));
    ASSERT_TRUE(stalled.sendRaw(frame.substr(0, net::kFrameHeaderSize + 2)));
    const auto err = stalled.readFrame(5.0);
    EXPECT_EQ(err.error, net::ProtoError::ReadTimeout);

    // An idle-but-quiet neighbour (no partial frame) must NOT be cut.
    const auto res = good.query(makeBatch(2, {1}));
    ASSERT_TRUE(res.ok);

    good.close();
    h.stop();
    EXPECT_EQ(
        h.stats().errorCounts[static_cast<std::size_t>(net::ProtoError::ReadTimeout)], 1);
}

TEST(NetServer, DisconnectMidFrameCountedAsTruncated) {
    ServerHarness h;
    {
        net::Client client;
        client.connect("127.0.0.1", h.port());
        const std::string frame = net::encodeFrame(
            net::MsgType::QueryBatch, net::encodeQueryBatch(makeBatch(1, {0, 1, 2})));
        ASSERT_TRUE(client.sendRaw(frame.substr(0, frame.size() - 3)));
        client.close();
    }
    // On loopback the torn bytes and FIN are already queued, so the drain
    // pass reads the EOF (and counts it) before run() exits.
    h.stop();
    EXPECT_EQ(h.stats().errorCounts[static_cast<std::size_t>(net::ProtoError::Truncated)],
              1);
    EXPECT_EQ(h.stats().requests, 0);  // the torn request never parsed
}

TEST(NetServer, ClientFaultPlanInjectsTornFrame) {
    ScopedObs obsOn;
    const long long errorsBefore = obs::counter("net.proto_errors").value();
    ServerHarness h;
    recover::FaultPlan plan;
    recover::FaultSpec spec;
    spec.kind = recover::FaultKind::TornFrame;
    spec.fromSolve = 0;
    spec.toSolve = 1;
    plan.add(spec);

    net::Client client;
    client.connect("127.0.0.1", h.port());
    {
        recover::ScopedFaultPlan guard(plan);
        const auto res = client.query(makeBatch(1, {0, 1}));
        EXPECT_TRUE(res.faultInjected);
        EXPECT_FALSE(res.ok);
    }
    EXPECT_EQ(plan.framesSeen(), 1);
    EXPECT_EQ(plan.injectionCount(), 1);

    // Reconnect and serve normally — the fault consumed its window.
    client.connect("127.0.0.1", h.port());
    {
        recover::ScopedFaultPlan guard(plan);
        const auto res = client.query(makeBatch(2, {0}));
        ASSERT_TRUE(res.ok);
        EXPECT_EQ(res.reply.rows[0], 0);
    }
    client.close();

    // The torn frame is counted once the server reads the first
    // connection's EOF; stop only after that, or the drain may skip it.
    EXPECT_TRUE(waitForCounter("net.proto_errors", errorsBefore + 1));
    h.stop();
    EXPECT_EQ(h.stats().errorCounts[static_cast<std::size_t>(net::ProtoError::Truncated)],
              1);
    expectAccountingInvariant(h.stats());
}

TEST(NetServer, DrainAnswersInFlightThenExits) {
    ScopedObs obsOn;
    const long long queriesBefore = obs::counter("net.queries").value();
    net::ServerOptions opts;
    opts.coalesceWindow = 60.0;  // longer than the query timeout: only the drain flushes
    ServerHarness h(opts);
    net::Client client;
    client.connect("127.0.0.1", h.port());

    std::thread querier([&] {
        // In flight when requestStop() lands; drain must still answer it.
        const auto res = client.query(makeBatch(1, {0, 7}), 5.0);
        ASSERT_TRUE(res.ok);
        EXPECT_EQ(res.reply.rows[0], 0);
        EXPECT_EQ(res.reply.rows[1], -1);
    });
    // Stop only once the server has parsed both queries and holds them.
    EXPECT_TRUE(waitForCounter("net.queries", queriesBefore + 2));
    h.server().requestStop();
    querier.join();
    h.stop();

    EXPECT_TRUE(h.stats().drained);
    EXPECT_FALSE(h.stats().drainForced);
    EXPECT_EQ(h.stats().hits, 1);
    EXPECT_EQ(h.stats().misses, 1);
    expectAccountingInvariant(h.stats());
}

TEST(NetServer, FuzzRandomBytesNeverKillTheServer) {
    ServerHarness h;
    numeric::Rng rng(0xF022);
    for (int round = 0; round < 40; ++round) {
        net::Client fuzzer;
        fuzzer.connect("127.0.0.1", h.port());
        std::string noise(static_cast<std::size_t>(rng.uniformInt(1, 200)), '\0');
        for (auto& c : noise) c = static_cast<char>(rng.uniformInt(0, 255));
        fuzzer.sendRaw(noise);
        // Whatever happened — typed error, silent drop, instant close — the
        // fuzzer connection is gone or dying; the server must still be up.
        fuzzer.close();
    }
    net::Client wellFormed;
    wellFormed.connect("127.0.0.1", h.port());
    const auto res = wellFormed.query(makeBatch(99, {1, 2}));
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.reply.rows[0], 1);
    EXPECT_EQ(res.reply.rows[1], 2);
    wellFormed.close();
    h.stop();
    expectAccountingInvariant(h.stats());
}

TEST(NetServer, StatsJsonIsWellFormedAndDeterministicFields) {
    ServerHarness h;
    net::Client client;
    client.connect("127.0.0.1", h.port());
    ASSERT_TRUE(client.query(makeBatch(1, {0})).ok);
    client.close();
    h.stop();
    const std::string json = h.server().statsJson();
    EXPECT_NE(json.find("\"requests\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"queries\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"drained\": true"), std::string::npos);
    EXPECT_EQ(json.find("seconds"), std::string::npos);  // no wall-clock inside
}

TEST(NetServer, RejectsInvalidOptions) {
    serve::QueryEngine engine(smallOptions());
    net::ServerOptions opts;
    opts.maxBatch = 0;
    EXPECT_THROW(net::Server(engine, opts), recover::SimError);
    opts = {};
    opts.readTimeout = 0.0;
    EXPECT_THROW(net::Server(engine, opts), recover::SimError);
    opts = {};
    opts.host = "not-an-address";
    net::Server bad(engine, opts);
    EXPECT_THROW(bad.start(), recover::SimError);
}

// --- event-loop timing (pure functions, no clock) ---------------------------

namespace {

double timeoutSeconds(const timespec& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

}  // namespace

TEST(NetLoopTiming, SubMillisecondWaitIsNotRoundedToAMillisecond) {
    const timespec t = net::waitTimeout(100.0, 100.0002);
    EXPECT_EQ(t.tv_sec, 0);
    EXPECT_GE(t.tv_nsec, 200'000);  // 200 µs ...
    EXPECT_LE(t.tv_nsec, 200'001);  // ... not the 1 ms poll(2) would sleep
}

TEST(NetLoopTiming, TimeoutNeverShorterThanTheWait) {
    // A timeout short of the wait would wake the loop with the coalesce
    // window still open, and it would spin until the window closed.
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> start(1.0, 1e6);
    std::uniform_real_distribution<double> exponent(-9.0, 0.0);
    for (int i = 0; i < 100'000; ++i) {
        const double now = start(rng);
        const double deadline = now + std::pow(10.0, exponent(rng));
        const double wait = deadline - now;
        const timespec t = net::waitTimeout(now, deadline);
        ASSERT_GE(t.tv_nsec, 0);
        ASSERT_LT(t.tv_nsec, 1'000'000'000L);
        ASSERT_GE(timeoutSeconds(t), wait) << "now " << now << " deadline " << deadline;
        ASSERT_LE(timeoutSeconds(t), wait + 2e-9) << "now " << now << " deadline " << deadline;
    }
}

TEST(NetLoopTiming, PassedDeadlineGivesZero) {
    for (const double deadline : {100.0, 99.9999, 0.0}) {
        const timespec t = net::waitTimeout(100.0, deadline);
        EXPECT_EQ(t.tv_sec, 0);
        EXPECT_EQ(t.tv_nsec, 0);
    }
}

TEST(NetLoopTiming, LongWaitCappedAtOneSecond) {
    for (const double wait : {1.0, 5.0, 3600.0}) {
        const timespec t = net::waitTimeout(100.0, 100.0 + wait);
        EXPECT_EQ(t.tv_sec, 1);
        EXPECT_EQ(t.tv_nsec, 0);
    }
}

TEST(NetLoopTiming, EarliestDeadlineWins) {
    net::ServerOptions opts;
    opts.coalesceWindow = 0.5e-3;
    opts.readTimeout = 5.0;
    opts.drainTimeout = 2.0;
    const double now = 100.0;
    net::LoopDeadlines d;
    EXPECT_DOUBLE_EQ(net::nextWake(now, d, opts), 100.1);  // heartbeat alone

    net::LoopDeadlines coalesce;
    coalesce.oldestArrival = 99.9999;
    EXPECT_DOUBLE_EQ(net::nextWake(now, coalesce, opts), 99.9999 + 0.5e-3);

    net::LoopDeadlines read;
    read.oldestMidFrame = 95.05;
    EXPECT_DOUBLE_EQ(net::nextWake(now, read, opts), 95.05 + 5.0);

    net::LoopDeadlines drain;
    drain.drainStart = 98.02;
    EXPECT_DOUBLE_EQ(net::nextWake(now, drain, opts), 98.02 + 2.0);

    // All four armed: the earliest one wins, whichever term it is.
    d.oldestArrival = 99.9999;
    d.oldestMidFrame = 95.05;
    d.drainStart = 98.02;
    EXPECT_DOUBLE_EQ(net::nextWake(now, d, opts), 99.9999 + 0.5e-3);
    d.oldestArrival = 100.05;
    EXPECT_DOUBLE_EQ(net::nextWake(now, d, opts), 98.02 + 2.0);
    d.drainStart = 98.2;
    EXPECT_DOUBLE_EQ(net::nextWake(now, d, opts), 95.05 + 5.0);
    d.oldestMidFrame = 96.0;
    d.oldestArrival = 100.5;
    EXPECT_DOUBLE_EQ(net::nextWake(now, d, opts), 100.1);
}

TEST(NetLoopTiming, FirstArrivalWaitsTheWindow) {
    net::ServerOptions opts;
    opts.coalesceWindow = 0.5e-3;
    EXPECT_DOUBLE_EQ(net::flushBy(100.0, std::nullopt, opts), 100.0 + 0.5e-3);
}

TEST(NetLoopTiming, GapOfAWholeWindowFlushesAtArrival) {
    net::ServerOptions opts;
    opts.coalesceWindow = 0.5e-3;
    const double previous = 100.0;
    const double now = previous + opts.coalesceWindow;
    EXPECT_EQ(net::flushBy(now, previous, opts), now);
    EXPECT_EQ(net::flushBy(now + 1.0, previous, opts), now + 1.0);
}

TEST(NetLoopTiming, GapOneNanosecondShortWaits) {
    net::ServerOptions opts;
    opts.coalesceWindow = 0.5e-3;
    const double previous = 100.0;
    const double now = previous + opts.coalesceWindow - 1e-9;
    EXPECT_EQ(net::flushBy(now, previous, opts), now + opts.coalesceWindow);
    EXPECT_EQ(net::flushBy(previous, previous, opts), previous + opts.coalesceWindow);
}

TEST(NetLoopTiming, ZeroWindowAlwaysFlushesAtArrival) {
    net::ServerOptions opts;
    opts.coalesceWindow = 0.0;
    EXPECT_EQ(net::flushBy(100.0, std::nullopt, opts), 100.0);
    EXPECT_EQ(net::flushBy(100.0, 100.0, opts), 100.0);
    EXPECT_EQ(net::flushBy(100.0, 99.0, opts), 100.0);
}

TEST(NetServer, RequestArrivingAWindowAfterTheLastFlushesOnArrival) {
    ScopedObs obsOn;
    obs::Counter& arrival = obs::counter("net.flush.arrival");
    obs::Counter& window = obs::counter("net.flush.window");
    const long long arrivalBefore = arrival.value();
    const long long windowBefore = window.value();
    net::ServerOptions opts;
    opts.coalesceWindow = 0.2;
    ServerHarness h(opts);
    net::Client client;
    client.connect("127.0.0.1", h.port());

    // A is the first request the server sees, so it waits out the window;
    // its reply therefore leaves at least one window after A arrived, and
    // B, sent only once that reply is read, arrives at least a window after
    // A: B flushes on arrival. No clock is read here.
    ASSERT_TRUE(client.query(makeBatch(1, {0}), 5.0).ok);
    const auto b = client.query(makeBatch(2, {1}), 5.0);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(b.reply.rows[0], 1);

    client.close();
    h.stop();
    EXPECT_EQ(h.stats().batches, 2);
    EXPECT_EQ(window.value() - windowBefore, 1);
    EXPECT_EQ(arrival.value() - arrivalBefore, 1);
    expectAccountingInvariant(h.stats());
}

// --- table mutation over the wire (protocol v2) ----------------------------

TEST(NetProtocol, MutateRoundTrip) {
    net::MutateBody body;
    body.requestId = 77;
    net::MutateOpSpec ins;
    ins.op = net::MutateOp::Insert;
    ins.word = tcam::TernaryWord::fromBits(0xA5, 8);
    net::MutateOpSpec at;
    at.op = net::MutateOp::InsertAt;
    at.row = 3;
    at.word = tcam::TernaryWord(8, tcam::Trit::X);
    net::MutateOpSpec del;
    del.op = net::MutateOp::Erase;
    del.row = 5;
    body.ops = {ins, at, del};

    std::string err;
    const auto decoded = net::decodeMutate(net::encodeMutate(body), 8, 16, &err);
    ASSERT_TRUE(decoded.has_value()) << err;
    EXPECT_EQ(decoded->requestId, 77u);
    ASSERT_EQ(decoded->ops.size(), 3u);
    EXPECT_EQ(decoded->ops[0].op, net::MutateOp::Insert);
    EXPECT_TRUE(decoded->ops[0].word == ins.word);
    EXPECT_EQ(decoded->ops[1].op, net::MutateOp::InsertAt);
    EXPECT_EQ(decoded->ops[1].row, 3);
    EXPECT_TRUE(decoded->ops[1].word == at.word);
    EXPECT_EQ(decoded->ops[2].op, net::MutateOp::Erase);
    EXPECT_EQ(decoded->ops[2].row, 5);
    EXPECT_EQ(decoded->ops[2].word.size(), 0u);  // no word bytes on the wire
}

TEST(NetProtocol, MutateBodyValidation) {
    net::MutateBody body;
    body.requestId = 1;
    net::MutateOpSpec op;
    op.op = net::MutateOp::InsertAt;
    op.row = 0;
    op.word = tcam::TernaryWord::fromBits(3, 8);
    body.ops = {op};
    const std::string good = net::encodeMutate(body);
    std::string err;

    // Empty op list.
    net::MutateBody empty;
    empty.requestId = 2;
    EXPECT_FALSE(net::decodeMutate(net::encodeMutate(empty), 8, 16, &err).has_value());

    // More ops than the server's batch cap.
    EXPECT_FALSE(net::decodeMutate(good, 8, 0, &err).has_value());

    // Truncated: cut mid-word.
    EXPECT_FALSE(
        net::decodeMutate(std::string_view(good).substr(0, good.size() - 3), 8, 16, &err)
            .has_value());

    // Trailing junk after the declared ops.
    EXPECT_FALSE(net::decodeMutate(good + "x", 8, 16, &err).has_value());

    // Trit byte outside {0, 1, 2}.
    std::string bad = good;
    bad[bad.size() - 1] = 7;
    EXPECT_FALSE(net::decodeMutate(bad, 8, 16, &err).has_value());

    // Unknown op byte (first byte after requestId u64 + count u32).
    bad = good;
    bad[12] = 9;
    EXPECT_FALSE(net::decodeMutate(bad, 8, 16, &err).has_value());
    EXPECT_FALSE(err.empty());
}

TEST(NetProtocol, MutateReplyRoundTripAndValidation) {
    net::MutateReplyBody reply;
    reply.requestId = 9;
    reply.rows = {4, -1};
    reply.status = {net::MutateStatus::Ok, net::MutateStatus::TableFull};

    std::string err;
    const auto decoded = net::decodeMutateReply(net::encodeMutateReply(reply), &err);
    ASSERT_TRUE(decoded.has_value()) << err;
    EXPECT_EQ(decoded->requestId, 9u);
    EXPECT_EQ(decoded->rows, reply.rows);
    ASSERT_EQ(decoded->status.size(), 2u);
    EXPECT_EQ(decoded->status[1], net::MutateStatus::TableFull);

    // Status byte out of range.
    std::string bad = net::encodeMutateReply(reply);
    bad[bad.size() - 1] = 99;
    EXPECT_FALSE(net::decodeMutateReply(bad, &err).has_value());
}

TEST(NetProtocol, StableMutateNames) {
    EXPECT_STREQ(net::mutateOpName(net::MutateOp::Insert), "insert");
    EXPECT_STREQ(net::mutateOpName(net::MutateOp::InsertAt), "insert_at");
    EXPECT_STREQ(net::mutateOpName(net::MutateOp::Erase), "erase");
    EXPECT_STREQ(net::mutateStatusName(net::MutateStatus::Ok), "ok");
    EXPECT_STREQ(net::mutateStatusName(net::MutateStatus::TableFull), "table_full");
    EXPECT_STREQ(net::mutateStatusName(net::MutateStatus::InvalidRow), "invalid_row");
    EXPECT_STREQ(net::mutateStatusName(net::MutateStatus::Rejected), "rejected");
}

TEST(NetServer, MutateAppliesOpsAndSearchesSeeThem) {
    ServerHarness h;  // entries 0..3 at rows 0..3; capacity 8
    net::Client client;
    client.connect("127.0.0.1", h.port());

    net::MutateBody body;
    body.requestId = 50;
    net::MutateOpSpec ins;  // first-free-row insert lands at row 4
    ins.op = net::MutateOp::Insert;
    ins.word = tcam::TernaryWord::fromBits(7, 8);
    net::MutateOpSpec del;  // drop entry 1
    del.op = net::MutateOp::Erase;
    del.row = 1;
    net::MutateOpSpec oob;  // typed per-op failure, not a dead connection
    oob.op = net::MutateOp::Erase;
    oob.row = 100;
    body.ops = {ins, del, oob};

    const auto res = client.mutate(body);
    ASSERT_TRUE(res.ok);
    ASSERT_TRUE(res.mutateReply.has_value());
    ASSERT_EQ(res.mutateReply->rows.size(), 3u);
    EXPECT_EQ(res.mutateReply->rows[0], 4);
    EXPECT_EQ(res.mutateReply->status[0], net::MutateStatus::Ok);
    EXPECT_EQ(res.mutateReply->rows[1], 1);
    EXPECT_EQ(res.mutateReply->status[1], net::MutateStatus::Ok);
    EXPECT_EQ(res.mutateReply->rows[2], -1);
    EXPECT_EQ(res.mutateReply->status[2], net::MutateStatus::InvalidRow);

    // Same connection immediately observes the mutated table.
    const auto q = client.query(makeBatch(51, {7, 1, 0}));
    ASSERT_TRUE(q.ok);
    EXPECT_EQ(q.reply.rows[0], 4);   // the new entry
    EXPECT_EQ(q.reply.rows[1], -1);  // erased
    EXPECT_EQ(q.reply.rows[2], 0);   // untouched

    client.close();
    h.stop();
    EXPECT_EQ(h.stats().mutateRequests, 1);
    EXPECT_EQ(h.stats().mutateOps, 3);
    EXPECT_EQ(h.stats().mutateFailed, 1);
    expectAccountingInvariant(h.stats());
}

TEST(NetServer, MutateInsertIntoFullTableIsTypedTableFull) {
    ServerHarness h({}, 8);  // capacity 8, fully seeded
    net::Client client;
    client.connect("127.0.0.1", h.port());

    net::MutateBody body;
    body.requestId = 60;
    net::MutateOpSpec ins;
    ins.op = net::MutateOp::Insert;
    ins.word = tcam::TernaryWord::fromBits(0xEE, 8);
    body.ops = {ins};

    const auto res = client.mutate(body);
    ASSERT_TRUE(res.ok);
    ASSERT_TRUE(res.mutateReply.has_value());
    EXPECT_EQ(res.mutateReply->rows[0], -1);
    EXPECT_EQ(res.mutateReply->status[0], net::MutateStatus::TableFull);

    client.close();
    h.stop();
}

TEST(NetServer, MutateWidthMismatchRejectedClientSide) {
    ServerHarness h;
    net::Client client;
    client.connect("127.0.0.1", h.port());

    net::MutateBody body;
    body.requestId = 70;
    net::MutateOpSpec ins;
    ins.op = net::MutateOp::Insert;
    ins.word = tcam::TernaryWord::fromBits(1, 16);  // server speaks 8-bit words
    body.ops = {ins};

    const auto res = client.mutate(body);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, net::ProtoError::WidthMismatch);

    client.close();
    h.stop();
    EXPECT_EQ(h.stats().mutateRequests, 0);  // never reached the server
}
