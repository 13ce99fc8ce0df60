#include "net/protocol.hpp"

#include <cstring>

#include "store/format.hpp"

namespace fetcam::net {

namespace {

void put8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put16(std::string& out, std::uint16_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put32(std::string& out, std::uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put64(std::string& out, std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Bounds-checked little reader over a message body.
class Reader {
public:
    explicit Reader(std::string_view data) : data_(data) {}

    template <typename T>
    bool get(T& out) {
        if (data_.size() - pos_ < sizeof(T)) return false;
        std::memcpy(&out, data_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return true;
    }

    bool take(std::string_view& out, std::size_t n) {
        if (data_.size() - pos_ < n) return false;
        out = data_.substr(pos_, n);
        pos_ += n;
        return true;
    }

    std::string_view rest() const { return data_.substr(pos_); }
    bool done() const { return pos_ == data_.size(); }

private:
    std::string_view data_;
    std::size_t pos_ = 0;
};

bool fail(std::string* err, const char* what) {
    if (err) *err = what;
    return false;
}

/// fail() for the body decoders, which return an optional.
std::nullopt_t reject(std::string* err, const char* what) {
    fail(err, what);
    return std::nullopt;
}

// --- the key codec: every key on the wire is wordBits trit-bytes (0/1/2) ---

void putKey(std::string& out, const tcam::TernaryWord& key) {
    for (std::size_t i = 0; i < key.size(); ++i) put8(out, static_cast<std::uint8_t>(key[i]));
}

bool getKey(Reader& r, std::uint32_t wordBits, tcam::TernaryWord& key, std::string* err) {
    std::string_view bytes;
    if (!r.take(bytes, wordBits)) return fail(err, "truncated key");
    key = tcam::TernaryWord(wordBits);
    for (std::uint32_t i = 0; i < wordBits; ++i) {
        const auto trit = static_cast<std::uint8_t>(bytes[i]);
        if (trit > 2) return fail(err, "trit byte outside {0,1,2}");
        key[i] = static_cast<tcam::Trit>(trit);
    }
    return true;
}

/// The key block that ends QueryBatch and Similarity bodies: `count` keys
/// in [1, maxBatch], and exactly count * wordBits bytes left in the body.
bool getKeys(Reader& r, std::uint32_t count, std::uint32_t wordBits, std::uint32_t maxBatch,
             std::vector<tcam::TernaryWord>& keys, std::string* err) {
    if (count == 0 || count > maxBatch) return fail(err, "key count outside [1, maxBatch]");
    if (r.rest().size() != static_cast<std::size_t>(count) * wordBits)
        return fail(err, "body length does not match count * wordBits");
    keys.resize(count);
    for (auto& key : keys)
        if (!getKey(r, wordBits, key, err)) return false;
    return true;
}

// --- the rows+status codec shared by BatchReply and MutateReply: count u32,
// then count * { row i64, status u8 } ---

template <typename Status>
void putRows(std::string& out, const std::vector<std::int64_t>& rows,
             const std::vector<Status>& status) {
    put32(out, static_cast<std::uint32_t>(rows.size()));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        put64(out, static_cast<std::uint64_t>(rows[i]));
        put8(out, static_cast<std::uint8_t>(status[i]));
    }
}

/// `lastStatus` is the highest valid status byte; the body must end after
/// the last row.
template <typename Status>
bool getRows(Reader& r, Status lastStatus, std::vector<std::int64_t>& rows,
             std::vector<Status>& status, std::string* err) {
    std::uint32_t count = 0;
    if (!r.get(count)) return fail(err, "truncated reply row count");
    if (r.rest().size() != static_cast<std::size_t>(count) * 9)
        return fail(err, "reply body length does not match its row count");
    rows.resize(count);
    status.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint64_t row = 0;
        std::uint8_t code = 0;
        r.get(row);
        r.get(code);
        if (code > static_cast<std::uint8_t>(lastStatus)) return fail(err, "unknown status byte");
        rows[i] = static_cast<std::int64_t>(row);
        status[i] = static_cast<Status>(code);
    }
    return true;
}

}  // namespace

const char* protoErrorName(ProtoError code) noexcept {
    switch (code) {
        case ProtoError::None: return "none";
        case ProtoError::BadMagic: return "bad_magic";
        case ProtoError::BadCrc: return "bad_crc";
        case ProtoError::BadType: return "bad_type";
        case ProtoError::Oversized: return "oversized";
        case ProtoError::BadBody: return "bad_body";
        case ProtoError::WidthMismatch: return "width_mismatch";
        case ProtoError::ReadTimeout: return "read_timeout";
        case ProtoError::Draining: return "draining";
        case ProtoError::TooManyConnections: return "too_many_connections";
        case ProtoError::Truncated: return "truncated";
        case ProtoError::UnsupportedVersion: return "unsupported_version";
    }
    return "unknown";
}

const char* mutateOpName(MutateOp op) noexcept {
    switch (op) {
        case MutateOp::Insert: return "insert";
        case MutateOp::InsertAt: return "insert_at";
        case MutateOp::Erase: return "erase";
    }
    return "unknown";
}

const char* mutateStatusName(MutateStatus status) noexcept {
    switch (status) {
        case MutateStatus::Ok: return "ok";
        case MutateStatus::TableFull: return "table_full";
        case MutateStatus::InvalidRow: return "invalid_row";
        case MutateStatus::Rejected: return "rejected";
    }
    return "unknown";
}

const char* queryStatusName(QueryStatus status) noexcept {
    switch (status) {
        case QueryStatus::Hit: return "hit";
        case QueryStatus::Miss: return "miss";
        case QueryStatus::Shed: return "shed";
        case QueryStatus::DeadlineExceeded: return "deadline_exceeded";
    }
    return "unknown";
}

std::string encodeFrame(MsgType type, std::string_view body) {
    std::string out;
    out.reserve(kFrameHeaderSize + body.size());
    put32(out, kFrameMagic);
    put8(out, static_cast<std::uint8_t>(type));
    put8(out, 0);   // flags
    put16(out, 0);  // reserved
    put32(out, static_cast<std::uint32_t>(body.size()));
    // CRC over type..length, then the body — same chaining scheme the store
    // records use, and the same crc32.
    std::uint32_t crc = store::crc32(out.data() + 4, 8);
    crc = store::crc32(body.data(), body.size(), crc);
    put32(out, crc);
    out.append(body);
    return out;
}

DecodeResult decodeFrame(std::string_view buffer, std::size_t maxFrameBytes) {
    DecodeResult r;
    if (buffer.size() < kFrameHeaderSize) {
        r.status = DecodeResult::Status::NeedMore;
        return r;
    }
    std::uint32_t magic;
    std::memcpy(&magic, buffer.data(), 4);
    if (magic != kFrameMagic) {
        r.status = DecodeResult::Status::Bad;
        r.error = ProtoError::BadMagic;
        r.message = "bad frame magic (garbage preamble)";
        return r;
    }
    const auto type = static_cast<std::uint8_t>(buffer[4]);
    std::uint32_t length;
    std::memcpy(&length, buffer.data() + 8, 4);
    if (length > maxFrameBytes) {
        r.status = DecodeResult::Status::Bad;
        r.error = ProtoError::Oversized;
        r.message = "declared frame body of " + std::to_string(length) +
                    " bytes exceeds the " + std::to_string(maxFrameBytes) + "-byte limit";
        return r;
    }
    if (buffer.size() < kFrameHeaderSize + length) {
        r.status = DecodeResult::Status::NeedMore;
        return r;
    }
    std::uint32_t crc;
    std::memcpy(&crc, buffer.data() + 12, 4);
    std::uint32_t check = store::crc32(buffer.data() + 4, 8);
    check = store::crc32(buffer.data() + kFrameHeaderSize, length, check);
    if (check != crc) {
        r.status = DecodeResult::Status::Bad;
        r.error = ProtoError::BadCrc;
        r.message = "frame CRC mismatch";
        return r;
    }
    if (type < static_cast<std::uint8_t>(MsgType::Hello) ||
        type > static_cast<std::uint8_t>(MsgType::SimilarityReply)) {
        r.status = DecodeResult::Status::Bad;
        r.error = ProtoError::BadType;
        r.message = "unknown message type " + std::to_string(type);
        return r;
    }
    r.status = DecodeResult::Status::Ok;
    r.frame.type = static_cast<MsgType>(type);
    r.frame.body.assign(buffer.data() + kFrameHeaderSize, length);
    r.consumed = kFrameHeaderSize + length;
    return r;
}

std::string encodeHello(const HelloBody& hello) {
    std::string body;
    put32(body, hello.version);
    put32(body, hello.wordBits);
    put32(body, hello.maxBatch);
    put32(body, hello.maxFrameBytes);
    return body;
}

std::optional<HelloBody> decodeHello(std::string_view body, std::string* err) {
    Reader r(body);
    HelloBody h;
    if (!r.get(h.version) || !r.get(h.wordBits) || !r.get(h.maxBatch) ||
        !r.get(h.maxFrameBytes) || !r.done())
        return reject(err, "malformed Hello body");
    return h;
}

std::string encodeQueryBatch(const QueryBatchBody& batch) {
    std::string body;
    put64(body, batch.requestId);
    put32(body, batch.deadlineMicros);
    put32(body, static_cast<std::uint32_t>(batch.keys.size()));
    for (const auto& key : batch.keys) putKey(body, key);
    return body;
}

std::optional<QueryBatchBody> decodeQueryBatch(std::string_view body, std::uint32_t wordBits,
                                               std::uint32_t maxBatch, std::string* err) {
    Reader r(body);
    QueryBatchBody b;
    std::uint32_t count = 0;
    if (!r.get(b.requestId) || !r.get(b.deadlineMicros) || !r.get(count))
        return reject(err, "malformed QueryBatch header");
    if (!getKeys(r, count, wordBits, maxBatch, b.keys, err)) return std::nullopt;
    return b;
}

std::string encodeBatchReply(const BatchReplyBody& reply) {
    std::string body;
    put64(body, reply.requestId);
    put8(body, reply.admission);
    putRows(body, reply.rows, reply.status);
    return body;
}

std::optional<BatchReplyBody> decodeBatchReply(std::string_view body, std::string* err) {
    Reader r(body);
    BatchReplyBody b;
    if (!r.get(b.requestId) || !r.get(b.admission))
        return reject(err, "malformed BatchReply header");
    if (!getRows(r, QueryStatus::DeadlineExceeded, b.rows, b.status, err)) return std::nullopt;
    return b;
}

std::string encodeMutate(const MutateBody& mutate) {
    std::string body;
    put64(body, mutate.requestId);
    put32(body, static_cast<std::uint32_t>(mutate.ops.size()));
    for (const auto& op : mutate.ops) {
        put8(body, static_cast<std::uint8_t>(op.op));
        put64(body, static_cast<std::uint64_t>(op.row));
        if (op.op != MutateOp::Erase) putKey(body, op.word);
    }
    return body;
}

std::optional<MutateBody> decodeMutate(std::string_view body, std::uint32_t wordBits,
                                       std::uint32_t maxBatch, std::string* err) {
    Reader r(body);
    MutateBody b;
    std::uint32_t count;
    if (!r.get(b.requestId) || !r.get(count)) return reject(err, "malformed Mutate header");
    if (count == 0 || count > maxBatch) return reject(err, "mutation count outside [1, maxBatch]");
    b.ops.resize(count);
    for (auto& spec : b.ops) {
        std::uint8_t op = 0;
        std::uint64_t row = 0;
        if (!r.get(op) || !r.get(row)) return reject(err, "truncated Mutate op");
        if (op < static_cast<std::uint8_t>(MutateOp::Insert) ||
            op > static_cast<std::uint8_t>(MutateOp::Erase))
            return reject(err, "unknown mutate op byte");
        spec.op = static_cast<MutateOp>(op);
        spec.row = static_cast<std::int64_t>(row);
        if (spec.op != MutateOp::Erase && !getKey(r, wordBits, spec.word, err))
            return std::nullopt;
    }
    if (!r.done()) return reject(err, "trailing bytes after Mutate ops");
    return b;
}

std::string encodeMutateReply(const MutateReplyBody& reply) {
    std::string body;
    put64(body, reply.requestId);
    putRows(body, reply.rows, reply.status);
    return body;
}

std::optional<MutateReplyBody> decodeMutateReply(std::string_view body, std::string* err) {
    Reader r(body);
    MutateReplyBody b;
    if (!r.get(b.requestId)) return reject(err, "malformed MutateReply header");
    if (!getRows(r, MutateStatus::Rejected, b.rows, b.status, err)) return std::nullopt;
    return b;
}

sim::SimilarityOptions SimilarityBody::toOptions() const {
    sim::SimilarityOptions options;
    options.kind = kind;
    options.maxResults = maxResults;
    if (kind == sim::SimilarityKind::NearestK)
        options.k = static_cast<int>(param);
    else
        options.maxDistance = param;
    return options;
}

std::string encodeSimilarity(const SimilarityBody& sim) {
    std::string body;
    put64(body, sim.requestId);
    put8(body, static_cast<std::uint8_t>(sim.kind));
    put32(body, sim.param);
    put32(body, sim.maxResults);
    put32(body, static_cast<std::uint32_t>(sim.keys.size()));
    for (const auto& key : sim.keys) putKey(body, key);
    return body;
}

std::optional<SimilarityBody> decodeSimilarity(std::string_view body, std::uint32_t wordBits,
                                               std::uint32_t maxBatch, std::string* err) {
    Reader r(body);
    SimilarityBody b;
    std::uint8_t kind = 0;
    std::uint32_t count = 0;
    if (!r.get(b.requestId) || !r.get(kind) || !r.get(b.param) || !r.get(b.maxResults) ||
        !r.get(count))
        return reject(err, "malformed Similarity header");
    if (kind != static_cast<std::uint8_t>(sim::SimilarityKind::NearestK) &&
        kind != static_cast<std::uint8_t>(sim::SimilarityKind::Threshold))
        return reject(err, "unknown similarity kind byte");
    b.kind = static_cast<sim::SimilarityKind>(kind);
    if (b.maxResults == 0 || b.maxResults > maxBatch)
        return reject(err, "similarity maxResults outside [1, maxBatch]");
    if (b.kind == sim::SimilarityKind::NearestK &&
        (b.param == 0 || b.param > b.maxResults))
        return reject(err, "similarity k outside [1, maxResults]");
    if (!getKeys(r, count, wordBits, maxBatch, b.keys, err)) return std::nullopt;
    return b;
}

std::string encodeSimilarityReply(const SimilarityReplyBody& reply) {
    std::string body;
    put64(body, reply.requestId);
    put8(body, reply.admission);
    put32(body, static_cast<std::uint32_t>(reply.hits.size()));
    for (const auto& hits : reply.hits) {
        put32(body, static_cast<std::uint32_t>(hits.size()));
        for (const auto& hit : hits) {
            put64(body, static_cast<std::uint64_t>(hit.row));
            put32(body, hit.distance);
        }
    }
    return body;
}

std::optional<SimilarityReplyBody> decodeSimilarityReply(std::string_view body,
                                                         std::string* err) {
    Reader r(body);
    SimilarityReplyBody b;
    std::uint32_t count = 0;
    if (!r.get(b.requestId) || !r.get(b.admission) || !r.get(count))
        return reject(err, "malformed SimilarityReply header");
    if (r.rest().size() < static_cast<std::size_t>(count) * 4)
        return reject(err, "SimilarityReply key count longer than the body");
    // Per-key hit lists are variable length, so the remaining size is
    // validated incrementally and the body must end exactly at the last hit.
    b.hits.reserve(count);
    for (std::uint32_t k = 0; k < count; ++k) {
        std::uint32_t hitCount = 0;
        if (!r.get(hitCount)) return reject(err, "truncated SimilarityReply hit count");
        if (r.rest().size() < static_cast<std::size_t>(hitCount) * 12)
            return reject(err, "SimilarityReply hit list longer than the body");
        sim::SimilarityHits hits;
        hits.reserve(hitCount);
        for (std::uint32_t h = 0; h < hitCount; ++h) {
            std::uint64_t row = 0;
            std::uint32_t distance = 0;
            r.get(row);
            r.get(distance);
            hits.push_back({static_cast<std::int64_t>(row), distance});
        }
        b.hits.push_back(std::move(hits));
    }
    if (!r.done()) return reject(err, "trailing bytes after SimilarityReply hits");
    return b;
}

std::string encodeError(const ErrorBody& error) {
    std::string body;
    put16(body, static_cast<std::uint16_t>(error.code));
    body.append(error.message);
    return body;
}

std::optional<ErrorBody> decodeError(std::string_view body, std::string* err) {
    Reader r(body);
    ErrorBody e;
    std::uint16_t code;
    if (!r.get(code)) return reject(err, "malformed Error body");
    if (code == 0 || code >= kNumProtoErrors) return reject(err, "unknown Error code");
    e.code = static_cast<ProtoError>(code);
    e.message = std::string(r.rest());
    return e;
}

}  // namespace fetcam::net
