// Entry delta records: the second record family a store directory can hold,
// alongside the characterization log.
//
// A serving engine's entry table mutates while it runs (route churn, rule
// pushes); replaying only the *seed* table after a restart would silently
// roll those mutations back. The delta log records every applied mutation as
// a CRC-framed record in `table.fcs` (the same record_log container as
// `char.fcs`, with its own writer lock and its own schema version), so a
// warm restart replays the mutated table bit-identically. This codec is the
// only code that knows the record layout; QueryEngine owns the log itself.
//
// Record layout (kTableSchemaVersion 1):
//   key:     u8 version (kTableSchemaVersion, low byte)
//            u8 op      (1 = insert, 2 = erase)
//            i64 row    (native-endian, like every store integer)
//   payload: insert — one byte per trit (0/1/2), wordBits long
//            erase  — empty
//
// The key carries the version byte for the same reason the characterization
// keys do: the container-level schema gate already rejects foreign logs, and
// the in-record byte makes a record self-describing if it is ever carved out
// of a salvaged tail. Compaction rewrites the log as one insert per occupied
// row (erases and overwrites collapse away).
#pragma once

#include <cstdint>
#include <optional>

#include "store/record_log.hpp"
#include "tcam/ternary.hpp"

namespace fetcam::serve {

/// Layout version of the delta-record schema: bump whenever the key or
/// payload packing above changes shape.
inline constexpr std::uint32_t kTableSchemaVersion = 1;

/// One decoded mutation: `word` set = insert it at `row`, empty = erase `row`.
struct DeltaRecord {
    std::int64_t row = 0;
    std::optional<tcam::TernaryWord> word;
};

/// Serialize an insert of `*word` at `row`, or an erase when `word` is null.
store::Record packDelta(std::int64_t row, const tcam::TernaryWord* word);

/// Inverse of packDelta for a table of `wordBits`-wide words. Throws
/// SimError(CorruptData) when the record is not a valid delta of this schema
/// version (wrong key size, unknown op, version drift, negative row, trit
/// bytes outside {0,1,2}, payload/op mismatch, another word width) — the
/// caller never skips a record silently.
DeltaRecord unpackDelta(const store::Record& record, int wordBits);

}  // namespace fetcam::serve
