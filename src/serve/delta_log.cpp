#include "serve/delta_log.hpp"

#include <cstring>

#include "recover/sim_error.hpp"

namespace fetcam::serve {

namespace {

constexpr std::size_t kDeltaKeySize = 1 + 1 + sizeof(std::int64_t);
constexpr char kInsert = 1;
constexpr char kErase = 2;

[[noreturn]] void corrupt(const char* what) {
    throw recover::SimError(recover::SimErrorReason::CorruptData, "serve::unpackDelta", what);
}

}  // namespace

store::Record packDelta(std::int64_t row, const tcam::TernaryWord* word) {
    store::Record r;
    r.key.reserve(kDeltaKeySize);
    r.key.push_back(static_cast<char>(kTableSchemaVersion & 0xFF));
    r.key.push_back(word ? kInsert : kErase);
    r.key.append(reinterpret_cast<const char*>(&row), sizeof row);
    if (word) tcam::appendTritBytes(r.payload, *word);
    return r;
}

DeltaRecord unpackDelta(const store::Record& record, int wordBits) {
    if (record.key.size() != kDeltaKeySize ||
        static_cast<std::uint8_t>(record.key[0]) != (kTableSchemaVersion & 0xFF))
        corrupt("table delta record failed to unpack");
    DeltaRecord d;
    std::memcpy(&d.row, record.key.data() + 2, sizeof d.row);
    if (d.row < 0) corrupt("table delta row is negative");
    if (record.key[1] == kErase) {
        if (!record.payload.empty()) corrupt("table delta erase carries a payload");
        return d;
    }
    if (record.key[1] != kInsert) corrupt("table delta op unknown");
    if (static_cast<int>(record.payload.size()) != wordBits)
        corrupt("table delta word width mismatch");
    d.word = tcam::parseTritBytes(record.payload);
    if (!d.word) corrupt("table delta trit out of range");
    return d;
}

}  // namespace fetcam::serve
