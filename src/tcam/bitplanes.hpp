// Bit-plane (bit-sliced) storage for ternary match: the software analogue of
// the hardware TCAM's column-parallel search, and of the LUT-RAM match-vector
// decomposition (per key slice, AND a per-entry match vector).
//
// Instead of one TernaryWord per row (a heap vector of trits walked one trit
// at a time), rows pack *vertically*: for every key-bit position b the set
// keeps two 64-bit planes over a block of 64 rows —
//
//   value[b]  bit r set  =>  row r stores One at position b
//   care[b]   bit r set  =>  row r is definite (0/1, not X) at position b
//
// plus one occupancy plane per block (bit r set => row r holds an entry).
// A search then visits only the key's *definite* bits and performs, per
// 64-row block, one AND-NOT per bit:
//
//   match &= ~(care[b] & (value[b] ^ broadcast(key[b])))
//
// which clears exactly the rows that are definite at b and differ from the
// key — stored X rows keep matching (care bit 0), key X bits are skipped
// entirely. 64+ entries advance per machine word per operation, and the
// priority winner inside a block is count-trailing-zeros of the surviving
// vector. mismatchCounts() reuses the same planes with a bit-sliced
// ripple-carry accumulation (XOR+mask per bit, popcount-style vertical
// counters), which is what the Hamming / nearest-neighbour workloads ride.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "tcam/ternary.hpp"

namespace fetcam::tcam {

/// A search key decomposed into its definite bit positions with the stored
/// value broadcast across a 64-row word (~0 for One, 0 for Zero). Built once
/// per key per batch; X positions are absent — they constrain nothing.
struct KeySlices {
    std::vector<std::uint16_t> bit;        ///< definite positions, ascending
    std::vector<std::uint64_t> broadcast;  ///< aligned with `bit`
    static KeySlices of(const TernaryWord& key);
};

/// Sentinel mismatch count for unoccupied rows.
inline constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

class TernaryPlanes {
public:
    /// Widest word the plane layout supports (KeySlices packs positions into
    /// 16 bits; realistic TCAM words are <= 512 bits).
    static constexpr int kMaxBits = 1 << 14;

    /// Empty set of `bits`-wide rows; rows grow via ensureRows()/set().
    explicit TernaryPlanes(int bits, std::int64_t rows = 0);

    int bits() const { return bits_; }
    std::int64_t rows() const { return rows_; }

    /// Grow to at least `rows` rows (new rows unoccupied). Never shrinks.
    void ensureRows(std::int64_t rows);

    /// Store `word` at `row` (row < rows(); word.size() == bits() — callers
    /// validate once per batch, this is the unchecked hot path).
    void set(std::int64_t row, const TernaryWord& word);

    /// Mark `row` unoccupied.
    void clear(std::int64_t row);

    bool occupied(std::int64_t row) const {
        return (occ_[static_cast<std::size_t>(row >> 6)] >> (row & 63)) & 1u;
    }

    /// The word stored at `row`, decoded exactly from the planes (care 0 ->
    /// X, else the value bit); nullopt when unoccupied.
    std::optional<TernaryWord> get(std::int64_t row) const;

    /// Lowest occupied row in [begin, end) matching `key`, or -1 — the
    /// shard-local priority encoder. begin/end need not be 64-aligned.
    std::int64_t findFirstMatch(std::int64_t begin, std::int64_t end,
                                const KeySlices& key) const;

    /// Per-row mismatch counts (definite-and-differing positions) for all
    /// rows into out[0 .. rows()); unoccupied rows get kNoEntry. Bit-sliced:
    /// every definite key bit contributes one XOR+AND over a 64-row block,
    /// accumulated in vertical ripple-carry counter planes.
    void mismatchCounts(const KeySlices& key, std::size_t* out) const;

private:
    std::size_t planeIndex(std::int64_t block, int bit) const {
        return static_cast<std::size_t>(block) * static_cast<std::size_t>(bits_) +
               static_cast<std::size_t>(bit);
    }

    int bits_;
    std::int64_t rows_ = 0;
    std::int64_t blocks_ = 0;              ///< 64-row blocks allocated
    std::vector<std::uint64_t> value_;     ///< [block * bits_ + b]
    std::vector<std::uint64_t> care_;      ///< [block * bits_ + b]
    std::vector<std::uint64_t> occ_;       ///< [block]
};

}  // namespace fetcam::tcam
