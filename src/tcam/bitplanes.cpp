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

/// Ripple-carry add of a group's 16 words of a kill plane into the
/// counters (lanes past a partial group's width add ignored words); returns
/// how many counter planes the add reached.
int addCarries(std::uint64_t* cnt, const std::uint64_t* word) {
    std::uint64_t carry[kGroupBlocks];
    std::copy_n(word, kGroupBlocks, carry);
    for (int c = 0;; ++c) {
        std::uint64_t any = 0;
        for (int k = 0; k < kGroupBlocks; ++k) {
            const std::uint64_t overflow = cnt[c * kGroupBlocks + k] & carry[k];
            cnt[c * kGroupBlocks + k] ^= carry[k];
            carry[k] = overflow;
            any |= overflow;
        }
        if (!any) return c + 1;
    }
}

int liveBlocks(const std::uint64_t* m) {
    int live = 0;
    for (int k = 0; k < kGroupBlocks; ++k) live += m[k] != 0;
    return live;
}

}  // namespace

KeySlices KeySlices::of(const TernaryWord& key) {
    KeySlices s;
    s.plane.reserve(key.size());
    for (std::size_t b = 0; b < key.size(); ++b) {
        const Trit t = key[b];
        if (t == Trit::X) continue;
        s.plane.push_back(static_cast<std::uint16_t>(2 * b + (t == Trit::One)));
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
    // Branchless: clear the row's bit in both planes, then OR it back into
    // the one the trit selects (all-ones mask when it does, zero otherwise).
    for (int b = 0; b < bits_; ++b) {
        const Trit t = word[static_cast<std::size_t>(b)];
        std::uint64_t& killedByZero = kill[2 * static_cast<std::size_t>(b) * stride];
        std::uint64_t& killedByOne = kill[(2 * static_cast<std::size_t>(b) + 1) * stride];
        killedByZero = (killedByZero & ~rowBit) | (rowBit & -std::uint64_t{t == Trit::One});
        killedByOne = (killedByOne & ~rowBit) | (rowBit & -std::uint64_t{t == Trit::Zero});
    }
    occ_[static_cast<std::size_t>(row >> 6)] |= rowBit;
}

void TernaryPlanes::clear(std::int64_t row) {
    occ_[static_cast<std::size_t>(row >> 6)] &= ~(std::uint64_t{1} << (row & 63));
}

std::optional<TernaryWord> TernaryPlanes::get(std::int64_t row) const {
    if (!occupied(row)) return std::nullopt;
    const std::int64_t group = row >> 10;
    const std::size_t stride = groupStride(group);
    const std::uint64_t* kill = kill_.data() + groupOffset(group) + ((row >> 6) & 15);
    const int shift = static_cast<int>(row & 63);
    TernaryWord word(static_cast<std::size_t>(bits_));
    for (int b = 0; b < bits_; ++b) {
        const auto p = 2 * static_cast<std::size_t>(b);
        if ((kill[p * stride] >> shift) & 1u)
            word[static_cast<std::size_t>(b)] = Trit::One;
        else if ((kill[(p + 1) * stride] >> shift) & 1u)
            word[static_cast<std::size_t>(b)] = Trit::Zero;
    }
    return word;
}

std::int64_t TernaryPlanes::findFirstMatch(std::int64_t begin, std::int64_t end,
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
    for (std::int64_t g = 0; g < groups; ++g) {
        const std::uint64_t* kill = kill_.data() + groupOffset(g);
        const std::size_t stride = groupStride(g);
        std::uint64_t cnt[kMaxCounterPlanes * kGroupBlocks] = {};
        int used = 0;
        for (const std::uint16_t p : key.plane) {
            const std::uint64_t* plane = kill + p * stride;
            used = std::max(used, addCarries(cnt, plane));
        }
        for (std::size_t k = 0; k < stride; ++k) {
            const std::int64_t block = g * kGroupBlocks + static_cast<std::int64_t>(k);
            const std::uint64_t occ = occ_[static_cast<std::size_t>(block)];
            const std::int64_t row0 = block << 6;
            const int n = static_cast<int>(std::min<std::int64_t>(64, rows_ - row0));
            for (int r = 0; r < n; ++r) {
                if (!((occ >> r) & 1u)) {
                    out[row0 + r] = kNoEntry;
                    continue;
                }
                std::size_t d = 0;
                for (int c = 0; c < used; ++c)
                    d |= ((cnt[c * kGroupBlocks + k] >> r) & 1u) << c;
                out[row0 + r] = d;
            }
        }
    }
}

}  // namespace fetcam::tcam
