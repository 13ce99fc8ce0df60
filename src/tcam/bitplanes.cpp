#include "tcam/bitplanes.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace fetcam::tcam {

namespace {

/// Bits [0, n) set, for n in [0, 64].
std::uint64_t lowBits(std::int64_t n) {
    return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

constexpr int kGroupBlocks = TernaryPlanes::kGroupBlocks;
static_assert(kGroupBlocks == 16, "row >> 10 and (row >> 6) & 15 address 1024-row groups");

/// Groups with this few blocks still live are finished one block at a time
/// rather than all 16 lanes at once.
constexpr int kNarrowBlocks = 2;

/// Vertical counters: cnt[c * kGroupBlocks + k] holds bit c of the running
/// mismatch count of each row in block k; with bits <= 2^14 a count fits in
/// 15 planes.
constexpr int kMaxCounterPlanes = 15;

/// Ripple-carry add of 16 lanes of `carry` into the counters from plane `c`
/// up (lanes past a partial group's width add ignored words).
void rippleAdd(std::uint64_t* cnt, std::uint64_t* carry, int c) {
    for (;; ++c) {
        std::uint64_t any = 0;
        for (int k = 0; k < kGroupBlocks; ++k) {
            const std::uint64_t overflow = cnt[c * kGroupBlocks + k] & carry[k];
            cnt[c * kGroupBlocks + k] ^= carry[k];
            carry[k] = overflow;
            any |= overflow;
        }
        if (!any) return;
    }
}

/// One full adder per bit: sum + a + b -> sum (bit 0) and carry (bit 1).
void fullAdd(std::uint64_t& sum, std::uint64_t& carry, std::uint64_t a, std::uint64_t b) {
    const std::uint64_t u = sum ^ a;
    carry = (sum & a) | (u & b);
    sum = u ^ b;
}

/// Harley–Seal step: add four planes' 16 lanes into the counters. Two full
/// adders fold them into counter plane 0, one folds the two carries into
/// plane 1, and only the plane-2 carry ripples.
void addFour(std::uint64_t* cnt, const std::uint64_t* a, const std::uint64_t* b,
             const std::uint64_t* c, const std::uint64_t* d) {
    std::uint64_t fours[kGroupBlocks];
    for (int k = 0; k < kGroupBlocks; ++k) {
        std::uint64_t twosA, twosB;
        fullAdd(cnt[k], twosA, a[k], b[k]);
        fullAdd(cnt[k], twosB, c[k], d[k]);
        fullAdd(cnt[kGroupBlocks + k], fours[k], twosA, twosB);
    }
    rippleAdd(cnt, fours, 2);
}

/// Transpose an 8x8 bit matrix held one row per byte (bit j of byte i is
/// element (i, j)).
std::uint64_t transpose8x8(std::uint64_t x) {
    std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
    return x ^ t ^ (t << 28);
}

/// Counter planes [from, min(from + 8, used)) of one block (planes
/// kGroupBlocks words apart) turned row-major: byte i of out[j] holds bits
/// from..from+7 of row 8j + i's count.
void countersToBytes(const std::uint64_t* planes, int from, int used, std::uint64_t* out) {
    const int to = std::min(from + 8, used);
    for (int j = 0; j < 8; ++j) {
        std::uint64_t m = 0;
        for (int c = from; c < to; ++c)
            m |= ((planes[c * kGroupBlocks] >> (8 * j)) & 0xFF) << (8 * (c - from));
        out[j] = transpose8x8(m);
    }
}

int liveBlocks(const std::uint64_t* m) {
    int live = 0;
    for (int k = 0; k < kGroupBlocks; ++k) live += m[k] != 0;
    return live;
}

}  // namespace

KeySlices TernaryPlanes::prepare(const TernaryWord& key) {
    KeySlices s;
    s.plane.reserve(key.definiteCount());
    for (std::size_t w = 0; w < key.wordCount(); ++w) {
        const std::uint64_t value = key.valueWord(w);
        for (std::uint64_t care = key.careWord(w); care; care &= care - 1) {
            const int i = std::countr_zero(care);
            s.plane.push_back(
                static_cast<std::uint16_t>(2 * (64 * w + i) + ((value >> i) & 1u)));
        }
    }
    return s;
}

TernaryPlanes::TernaryPlanes(int bits, std::int64_t rows)
    : bits_(bits), rows_(rows), blocks_((rows + 63) >> 6) {
    if (bits < 0 || bits > kMaxBits || rows < 0)
        throw std::invalid_argument("TernaryPlanes: geometry out of range");
    kill_.assign(static_cast<std::size_t>(blocks_) * 2 * static_cast<std::size_t>(bits_) +
                     kGroupBlocks,
                 0);
    occ_.assign(static_cast<std::size_t>((blocks_ + kGroupBlocks - 1) / kGroupBlocks) *
                    kGroupBlocks,
                0);
}

void TernaryPlanes::set(std::int64_t row, const TernaryWord& word) {
    const std::int64_t group = row >> 10;
    const std::size_t stride = groupStride(group);
    std::uint64_t* kill = kill_.data() + groupOffset(group) + ((row >> 6) & 15);
    const std::uint64_t rowBit = std::uint64_t{1} << (row & 63);
    for (std::size_t w = 0; w < word.wordCount(); ++w) {
        // Kept in locals and shifted down one trit per plane pair: the
        // planes are uint64_t too, so reading the word inside the loop
        // would reload it after every plane store, and a shift by the trit
        // index costs more than a shift by one.
        std::uint64_t killedByZero = word.valueWord(w);  // stored One
        std::uint64_t killedByOne = word.careWord(w) & ~killedByZero;
        const int n = std::min(64, bits_ - 64 * static_cast<int>(w));
        std::uint64_t* plane = kill + 2 * 64 * w * stride;
        // Branchless: clear the row's bit in both planes, then OR it back
        // into the one the trit selects.
        for (int i = 0; i < n; ++i, plane += 2 * stride) {
            plane[0] = (plane[0] & ~rowBit) | (rowBit & -(killedByZero & 1));
            plane[stride] = (plane[stride] & ~rowBit) | (rowBit & -(killedByOne & 1));
            killedByZero >>= 1;
            killedByOne >>= 1;
        }
    }
    occ_[static_cast<std::size_t>(row >> 6)] |= rowBit;
}

void TernaryPlanes::clear(std::int64_t row) {
    occ_[static_cast<std::size_t>(row >> 6)] &= ~(std::uint64_t{1} << (row & 63));
}

std::optional<TernaryWord> TernaryPlanes::at(std::int64_t row) const {
    if (!occupied(row)) return std::nullopt;
    const std::int64_t group = row >> 10;
    const std::size_t stride = groupStride(group);
    const std::uint64_t* kill = kill_.data() + groupOffset(group) + ((row >> 6) & 15);
    const int shift = static_cast<int>(row & 63);
    TernaryWord word(static_cast<std::size_t>(bits_));
    for (std::size_t w = 0; w < word.wordCount(); ++w) {
        std::uint64_t one = 0, zero = 0;
        const int n = std::min(64, bits_ - 64 * static_cast<int>(w));
        const std::uint64_t* plane = kill + 2 * 64 * w * stride;
        for (int i = 0; i < n; ++i, plane += 2 * stride) {
            one |= ((plane[0] >> shift) & 1u) << i;
            zero |= ((plane[stride] >> shift) & 1u) << i;
        }
        word.setWord(w, one, one | zero);
    }
    return word;
}

std::int64_t TernaryPlanes::findFirst(std::int64_t begin, std::int64_t end,
                                      const KeySlices& key) const {
    if (begin < 0) begin = 0;
    if (end > rows_) end = rows_;
    if (begin >= end) return -1;
    const std::uint16_t* planes = key.plane.data();
    const std::size_t nPlanes = key.plane.size();
    for (std::int64_t g = begin >> 10; g <= (end - 1) >> 10; ++g) {
        const std::int64_t base = g << 10;
        const std::uint64_t* kill = kill_.data() + groupOffset(g);
        const std::size_t stride = groupStride(g);
        // Survivors: the occupied rows in [begin, end). Lanes past a partial
        // group's width stay zero.
        std::uint64_t m[kGroupBlocks];
        std::copy_n(occ_.data() + g * kGroupBlocks, kGroupBlocks, m);
        if (begin > base || end < std::min(base + 1024, rows_)) {
            for (int k = 0; k < kGroupBlocks; ++k) {
                const std::int64_t row0 = base + 64 * k;
                m[k] &= lowBits(std::max<std::int64_t>(end - row0, 0)) &
                        ~lowBits(std::max<std::int64_t>(begin - row0, 0));
            }
        }
        // Clear all 16 blocks, two key bits per pass, until no row survives
        // or, counted every 16 key bits, only a few blocks do. Lanes past a
        // partial group's width read the next plane (or the slack) into dead
        // survivors.
        std::size_t j = 0;
        while (j < nPlanes) {
            const std::uint64_t* a = kill + planes[j] * stride;
            const std::uint64_t* b = kill + planes[std::min(j + 1, nPlanes - 1)] * stride;
            j += 2;
            std::uint64_t any = 0;
            for (int k = 0; k < kGroupBlocks; ++k) {
                m[k] &= ~(a[k] | b[k]);
                any |= m[k];
            }
            if (!any) break;
            if (j % 16 == 0 && liveBlocks(m) <= kNarrowBlocks) break;
        }
        // Finish the live blocks one at a time, lowest first: the first with
        // a survivor after every key bit holds the group's winner.
        for (std::size_t k = 0; k < stride; ++k) {
            std::uint64_t w = m[k];
            for (std::size_t i = j; i < nPlanes && w; ++i) w &= ~kill[planes[i] * stride + k];
            if (w) return base + 64 * static_cast<std::int64_t>(k) + std::countr_zero(w);
        }
    }
    return -1;
}

void TernaryPlanes::mismatchCounts(const KeySlices& key, std::size_t* out) const {
    const std::int64_t groups = (blocks_ + kGroupBlocks - 1) / kGroupBlocks;
    const std::uint16_t* planes = key.plane.data();
    const std::size_t nPlanes = key.plane.size();
    for (std::int64_t g = 0; g < groups; ++g) {
        const std::uint64_t* kill = kill_.data() + groupOffset(g);
        const std::size_t stride = groupStride(g);
        std::uint64_t cnt[kMaxCounterPlanes * kGroupBlocks] = {};
        std::size_t j = 0;
        for (; j + 4 <= nPlanes; j += 4)
            addFour(cnt, kill + planes[j] * stride, kill + planes[j + 1] * stride,
                    kill + planes[j + 2] * stride, kill + planes[j + 3] * stride);
        for (; j < nPlanes; ++j) {
            std::uint64_t carry[kGroupBlocks];
            std::copy_n(kill + planes[j] * stride, kGroupBlocks, carry);
            rippleAdd(cnt, carry, 0);
        }
        // used: one past the highest counter plane non-zero in a live lane.
        int used = kMaxCounterPlanes;
        while (used > 0 && std::all_of(cnt + (used - 1) * kGroupBlocks,
                                       cnt + (used - 1) * kGroupBlocks + stride,
                                       [](std::uint64_t w) { return w == 0; }))
            --used;
        for (std::size_t k = 0; k < stride; ++k) {
            const std::int64_t block = g * kGroupBlocks + static_cast<std::int64_t>(k);
            const std::uint64_t occ = occ_[static_cast<std::size_t>(block)];
            const std::int64_t row0 = block << 6;
            const int n = static_cast<int>(std::min<std::int64_t>(64, rows_ - row0));
            std::uint64_t low[8], high[8] = {};
            countersToBytes(cnt + k, 0, used, low);
            if (used > 8) countersToBytes(cnt + k, 8, used, high);
            // Eight rows per byte word: row 8q + i is byte i of low[q], high[q].
            for (int q = 0; 8 * q < n; ++q) {
                std::size_t* o = out + row0 + 8 * q;
                const int m = std::min(8, n - 8 * q);
                for (int i = 0; i < m; ++i) {
                    const std::size_t d = ((low[q] >> (8 * i)) & 0xFF) |
                                          ((high[q] >> (8 * i)) & 0xFF) << 8;
                    o[i] = (occ >> (8 * q + i)) & 1u ? d : kNoEntry;
                }
            }
        }
    }
}

}  // namespace fetcam::tcam
