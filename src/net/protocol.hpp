// fetcam::net wire protocol — length-prefixed, CRC-framed binary messages.
//
// Framing reuses the src/store conventions (magic + explicit lengths +
// CRC-32 over everything the lengths describe), because the failure model is
// the same: bytes arrive torn, duplicated, or corrupted, and the reader must
// either produce a fully validated message or a *typed* error — never a
// partially-parsed one.
//
//   frame header (16 bytes)
//     magic     u32   kFrameMagic ("FNET")
//     type      u8    MsgType
//     flags     u8    reserved, must be 0
//     reserved  u16   must be 0
//     length    u32   body bytes that follow (bounded by maxFrameBytes)
//     crc       u32   CRC-32 of type||flags||reserved||length||body
//
// Integers are native-endian, like the store log: this is a same-machine /
// same-arch serving protocol (the load generator and tests), not an
// interchange format, and the Hello version check guards the layout.
//
// Message bodies:
//   Hello (server -> client, on connect)
//     version u32, wordBits u32, maxBatch u32, maxFrameBytes u32
//   QueryBatch (client -> server)
//     requestId u64, deadlineMicros u32 (0 = none; relative to server
//     receipt), count u32, then count keys of wordBits trit-bytes (0/1/2)
//   BatchReply (server -> client)
//     requestId u64, admission u8 (BatchAdmission), count u32, then
//     count * { row i64, status u8 (QueryStatus) }
//   Error (server -> client, connection closes after)
//     code u16, message bytes
//   Drain (server -> client)
//     empty body: the server stops reading new requests; in-flight replies
//     still arrive.
//   Mutate (client -> server)
//     requestId u64, count u32, then count ops of
//     { op u8 (MutateOp), row i64 (ignored for Insert), then wordBits
//       trit-bytes unless op == Erase }
//   MutateReply (server -> client)
//     requestId u64, count u32, then count * { row i64 (the assigned /
//     echoed row, -1 on failure), status u8 (MutateStatus) }
//   Similarity (client -> server)
//     requestId u64, kind u8 (SimilarityKind: 1 nearest / 2 threshold),
//     param u32 (k or maxDistance), maxResults u32, count u32, then count
//     keys of wordBits trit-bytes
//   SimilarityReply (server -> client)
//     requestId u64, admission u8 (BatchAdmission), count u32, then per key
//     { hits u32, then hits * { row i64, distance u32 } }
//
// One protocol version: the Hello carries it, and a client refuses a server
// whose version is not kProtocolVersion (there is no feature negotiation).
// The server never sends a frame larger than the maxFrameBytes its Hello
// advertises: a request whose worst-case reply would be larger is refused
// with a typed BadBody before any work, and the client decodes replies
// against that advertised limit.
//
// decodeFrame is incremental: feed it the connection's receive buffer and it
// reports NeedMore (keep reading), a complete validated Frame, or a typed
// ProtoError that the server answers with an Error frame before killing that
// one connection — the defining robustness contract: one bad peer never
// touches its neighbours.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/similarity.hpp"
#include "tcam/ternary.hpp"

namespace fetcam::net {

inline constexpr std::uint32_t kFrameMagic = 0x464E4554u;  // "FNET"
/// The one protocol version every server and client speaks (v3: query
/// batches, Mutate and Similarity frames).
inline constexpr std::uint32_t kProtocolVersion = 3;
inline constexpr std::size_t kFrameHeaderSize = 16;
/// Default per-frame ceiling: oversized-frame (memory-exhaustion) defense.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 1u << 20;

enum class MsgType : std::uint8_t {
    Hello = 1,
    QueryBatch = 2,
    BatchReply = 3,
    Error = 4,
    Drain = 5,
    Mutate = 6,
    MutateReply = 7,
    Similarity = 8,
    SimilarityReply = 9,
};

/// Typed protocol failures. Each kills exactly one connection.
enum class ProtoError : std::uint16_t {
    None = 0,
    BadMagic = 1,       ///< garbage preamble
    BadCrc = 2,         ///< frame failed its CRC
    BadType = 3,        ///< unknown MsgType
    Oversized = 4,      ///< declared length exceeds maxFrameBytes
    BadBody = 5,        ///< body failed message-level validation
    WidthMismatch = 6,  ///< query key width != engine word width
    ReadTimeout = 7,    ///< peer stalled mid-frame (slowloris defense)
    Draining = 8,       ///< server refused new work while draining
    TooManyConnections = 9,
    Truncated = 10,     ///< peer disconnected mid-frame (torn frame at EOF)
    UnsupportedVersion = 11,  ///< unused since the protocol has one version;
                              ///< the code stays so later codes keep theirs
};

/// Number of distinct ProtoError codes (accounting-array sizing).
inline constexpr int kNumProtoErrors = 12;

const char* protoErrorName(ProtoError code) noexcept;

struct Frame {
    MsgType type = MsgType::Hello;
    std::string body;
};

struct DecodeResult {
    enum class Status {
        NeedMore,  ///< buffer holds a partial frame; read more bytes
        Ok,        ///< `frame` is valid; `consumed` bytes were eaten
        Bad,       ///< typed failure in `error` / `message`
    };
    Status status = Status::NeedMore;
    Frame frame;
    std::size_t consumed = 0;
    ProtoError error = ProtoError::None;
    std::string message;
};

/// Serialize one frame (header + body, CRC filled in).
std::string encodeFrame(MsgType type, std::string_view body);

/// Incremental decode of the first frame in `buffer`.
DecodeResult decodeFrame(std::string_view buffer, std::size_t maxFrameBytes);

// --- message bodies ---

struct HelloBody {
    std::uint32_t version = kProtocolVersion;
    std::uint32_t wordBits = 0;
    std::uint32_t maxBatch = 0;
    std::uint32_t maxFrameBytes = kDefaultMaxFrameBytes;
};

struct QueryBatchBody {
    std::uint64_t requestId = 0;
    /// Per-request deadline in microseconds relative to server receipt;
    /// 0 = none (the server may still apply its configured default).
    std::uint32_t deadlineMicros = 0;
    std::vector<tcam::TernaryWord> keys;
};

/// Per-query outcome carried in a BatchReply.
enum class QueryStatus : std::uint8_t {
    Hit = 0,
    Miss = 1,
    Shed = 2,              ///< refused by overload protection; retryable
    DeadlineExceeded = 3,  ///< expired before simulation; retry with more budget
};

const char* queryStatusName(QueryStatus status) noexcept;

struct BatchReplyBody {
    std::uint64_t requestId = 0;
    std::uint8_t admission = 0;  ///< serve::BatchAdmission as a byte
    std::vector<std::int64_t> rows;
    std::vector<QueryStatus> status;
};

struct ErrorBody {
    ProtoError code = ProtoError::None;
    std::string message;
};

/// One entry mutation inside a Mutate frame.
enum class MutateOp : std::uint8_t {
    Insert = 1,    ///< first-free-row insert; the reply carries the row
    InsertAt = 2,  ///< write `row` explicitly (overwrite allowed)
    Erase = 3,     ///< clear `row` (no word bytes on the wire)
};

const char* mutateOpName(MutateOp op) noexcept;

/// Per-op outcome carried in a MutateReply.
enum class MutateStatus : std::uint8_t {
    Ok = 0,
    TableFull = 1,   ///< Insert found no free row
    InvalidRow = 2,  ///< row outside [0, capacity)
    Rejected = 3,    ///< server is draining; retry elsewhere
};

const char* mutateStatusName(MutateStatus status) noexcept;

struct MutateOpSpec {
    MutateOp op = MutateOp::Insert;
    std::int64_t row = 0;    ///< target row; ignored for Insert
    tcam::TernaryWord word;  ///< empty for Erase
};

struct MutateBody {
    std::uint64_t requestId = 0;
    std::vector<MutateOpSpec> ops;
};

struct MutateReplyBody {
    std::uint64_t requestId = 0;
    std::vector<std::int64_t> rows;  ///< assigned/echoed row, -1 on failure
    std::vector<MutateStatus> status;
};

/// One batched similarity request. `param` is k for NearestK and
/// maxDistance for Threshold; `maxResults` caps each key's reply
/// (validated server-side against maxBatch).
struct SimilarityBody {
    std::uint64_t requestId = 0;
    sim::SimilarityKind kind = sim::SimilarityKind::NearestK;
    std::uint32_t param = 1;
    std::uint32_t maxResults = 64;
    std::vector<tcam::TernaryWord> keys;

    /// The engine-side options this request maps to.
    sim::SimilarityOptions toOptions() const;
};

struct SimilarityReplyBody {
    std::uint64_t requestId = 0;
    std::uint8_t admission = 0;  ///< serve::BatchAdmission as a byte
    /// Per-key hit lists, best-first by (distance, row).
    std::vector<sim::SimilarityHits> hits;
};

std::string encodeHello(const HelloBody& hello);
std::string encodeQueryBatch(const QueryBatchBody& batch);
std::string encodeBatchReply(const BatchReplyBody& reply);
std::string encodeError(const ErrorBody& error);
std::string encodeMutate(const MutateBody& mutate);
std::string encodeMutateReply(const MutateReplyBody& reply);
std::string encodeSimilarity(const SimilarityBody& sim);
std::string encodeSimilarityReply(const SimilarityReplyBody& reply);

/// Body decoders: nullopt (with `err` filled) on any validation failure —
/// short body, trailing junk, trit bytes outside {0,1,2}, count overflow,
/// an Error code outside [1, kNumProtoErrors).
std::optional<HelloBody> decodeHello(std::string_view body, std::string* err);
std::optional<QueryBatchBody> decodeQueryBatch(std::string_view body, std::uint32_t wordBits,
                                               std::uint32_t maxBatch, std::string* err);
std::optional<BatchReplyBody> decodeBatchReply(std::string_view body, std::string* err);
std::optional<ErrorBody> decodeError(std::string_view body, std::string* err);
std::optional<MutateBody> decodeMutate(std::string_view body, std::uint32_t wordBits,
                                       std::uint32_t maxBatch, std::string* err);
std::optional<MutateReplyBody> decodeMutateReply(std::string_view body, std::string* err);
std::optional<SimilarityBody> decodeSimilarity(std::string_view body, std::uint32_t wordBits,
                                               std::uint32_t maxBatch, std::string* err);
std::optional<SimilarityReplyBody> decodeSimilarityReply(std::string_view body,
                                                         std::string* err);

}  // namespace fetcam::net
