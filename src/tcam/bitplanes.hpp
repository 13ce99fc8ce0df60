// Bit-plane (bit-sliced) storage for ternary match: the software analogue of
// the hardware TCAM's column-parallel search.
//
// Rows pack *vertically*. A 2FeFET cell has two search lines per bit; a
// search drives the one for the key's value, and exactly the cells storing
// the other definite value discharge the match line. The set keeps that
// discharge set directly, one "kill" plane per (bit position b, search
// value k):
//
//   kill[2b + k]  bit r set  =>  row r stores a definite !k at position b
//
// so a stored X sets neither plane and a definite trit sets exactly one. A
// search visits only the key's definite bits and clears, per bit, the rows
// that bit kills:
//
//   survivors &= ~kill[2b + key[b]]
//
// Key X bits are skipped entirely. Planes are laid out bit-major within each
// 1024-row group (16 blocks of 64 rows, one engine chunk): a plane's 16
// words are contiguous, so one key bit clears a whole group in 16 straight
// AND-NOTs, and the group stops at the first key bit after which no row
// survives — the software form of a segmented match line's early
// termination. The few blocks still alive near the end finish one at a
// time, lowest first, and the priority winner is count-trailing-zeros of
// the first surviving word. A final partial group is stored at its own
// width, so small sets are not padded to 1024 rows.
//
// mismatchCounts() reuses the same planes: every definite key bit's kill
// plane is added, group by group, into vertical ripple-carry counters.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tcam/ternary.hpp"

namespace fetcam::tcam {

/// A search key as the kill planes it selects: plane 2b + k for every
/// definite position b holding k, ascending. Built once per key per batch
/// (TernaryPlanes::prepare); X positions are absent — they constrain nothing.
struct KeySlices {
    std::vector<std::uint16_t> plane;
};

/// Sentinel mismatch count for unoccupied rows.
inline constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

class TernaryPlanes {
public:
    /// Widest word the plane layout supports (KeySlices packs plane indices
    /// into 16 bits; realistic TCAM words are <= 512 bits).
    static constexpr int kMaxBits = 1 << 14;

    /// 64-row blocks per plane group: 1024 rows, one engine chunk.
    static constexpr int kGroupBlocks = 16;

    /// `rows` unoccupied `bits`-wide rows, allocated once; set() fills them.
    TernaryPlanes(int bits, std::int64_t rows);

    int bits() const { return bits_; }
    std::int64_t rows() const { return rows_; }

    /// Store `word` at `row` (row < rows(); word.size() == bits() — callers
    /// validate once per batch, this is the unchecked hot path).
    void set(std::int64_t row, const TernaryWord& word);

    /// Mark `row` unoccupied.
    void clear(std::int64_t row);

    bool occupied(std::int64_t row) const {
        return (occ_[static_cast<std::size_t>(row >> 6)] >> (row & 63)) & 1u;
    }

    /// The word stored at `row`, decoded exactly from the planes (kill[2b]
    /// -> One, kill[2b+1] -> Zero, neither -> X); nullopt when unoccupied.
    /// Introspection, not hot path.
    std::optional<TernaryWord> at(std::int64_t row) const;

    /// Deep copy with identical entries — the query engine's copy-on-write
    /// primitive. A clone and its source never share storage.
    std::unique_ptr<TernaryPlanes> clone() const {
        return std::make_unique<TernaryPlanes>(*this);
    }

    /// Decompose a key into the kill planes it selects; the caller has
    /// checked its width, and reuses the result across every scan.
    static KeySlices prepare(const TernaryWord& key);

    /// Lowest occupied row in [begin, end) matching `key`, or -1 — the
    /// chunk-local priority encoder. begin/end need not be 64-aligned.
    std::int64_t findFirst(std::int64_t begin, std::int64_t end, const KeySlices& key) const;

    /// Per-row mismatch counts (definite-and-differing positions) for all
    /// rows into out[0 .. rows()); unoccupied rows get kNoEntry.
    void mismatchCounts(const KeySlices& key, std::size_t* out) const;

private:
    /// Index in kill_ of `group`'s first word.
    std::size_t groupOffset(std::int64_t group) const {
        return static_cast<std::size_t>(group) * kGroupBlocks * 2 *
               static_cast<std::size_t>(bits_);
    }
    /// Words per plane in `group`: 16, or the block count of a final
    /// partial group.
    std::size_t groupStride(std::int64_t group) const {
        return static_cast<std::size_t>(
            std::min<std::int64_t>(kGroupBlocks, blocks_ - group * kGroupBlocks));
    }

    int bits_;
    std::int64_t rows_;
    std::int64_t blocks_;  ///< 64-row blocks allocated
    /// Per group, [plane][block in group], plus kGroupBlocks zero words of
    /// slack so a 16-lane pass over a partial group stays in bounds.
    std::vector<std::uint64_t> kill_;
    std::vector<std::uint64_t> occ_;  ///< [block], zero-padded to whole groups
};

}  // namespace fetcam::tcam
