#include "tcam/bitplanes.hpp"

#include <bit>
#include <stdexcept>

namespace fetcam::tcam {

KeySlices KeySlices::of(const TernaryWord& key) {
    KeySlices s;
    s.bit.reserve(key.size());
    s.broadcast.reserve(key.size());
    for (std::size_t b = 0; b < key.size(); ++b) {
        const Trit t = key[b];
        if (t == Trit::X) continue;
        s.bit.push_back(static_cast<std::uint16_t>(b));
        s.broadcast.push_back(t == Trit::One ? ~std::uint64_t{0} : 0);
    }
    return s;
}

TernaryPlanes::TernaryPlanes(int bits, std::int64_t rows) : bits_(bits) {
    if (bits < 0 || bits > kMaxBits)
        throw std::invalid_argument("TernaryPlanes: bits out of range");
    ensureRows(rows);
}

void TernaryPlanes::ensureRows(std::int64_t rows) {
    if (rows <= rows_) return;
    const std::int64_t blocks = (rows + 63) >> 6;
    if (blocks > blocks_) {
        value_.resize(static_cast<std::size_t>(blocks) * static_cast<std::size_t>(bits_), 0);
        care_.resize(static_cast<std::size_t>(blocks) * static_cast<std::size_t>(bits_), 0);
        occ_.resize(static_cast<std::size_t>(blocks), 0);
        blocks_ = blocks;
    }
    rows_ = rows;
}

void TernaryPlanes::set(std::int64_t row, const TernaryWord& word) {
    const std::int64_t block = row >> 6;
    const std::uint64_t rowBit = std::uint64_t{1} << (row & 63);
    std::uint64_t* value = value_.data() + planeIndex(block, 0);
    std::uint64_t* care = care_.data() + planeIndex(block, 0);
    for (int b = 0; b < bits_; ++b) {
        const Trit t = word[static_cast<std::size_t>(b)];
        if (t == Trit::One)
            value[b] |= rowBit;
        else
            value[b] &= ~rowBit;
        if (t == Trit::X)
            care[b] &= ~rowBit;
        else
            care[b] |= rowBit;
    }
    occ_[static_cast<std::size_t>(block)] |= rowBit;
}

void TernaryPlanes::clear(std::int64_t row) {
    occ_[static_cast<std::size_t>(row >> 6)] &= ~(std::uint64_t{1} << (row & 63));
}

std::optional<TernaryWord> TernaryPlanes::get(std::int64_t row) const {
    if (!occupied(row)) return std::nullopt;
    const int shift = static_cast<int>(row & 63);
    const std::uint64_t* value = value_.data() + planeIndex(row >> 6, 0);
    const std::uint64_t* care = care_.data() + planeIndex(row >> 6, 0);
    TernaryWord word(static_cast<std::size_t>(bits_));
    for (int b = 0; b < bits_; ++b)
        if ((care[b] >> shift) & 1u)
            word[static_cast<std::size_t>(b)] =
                (value[b] >> shift) & 1u ? Trit::One : Trit::Zero;
    return word;
}

std::int64_t TernaryPlanes::findFirstMatch(std::int64_t begin, std::int64_t end,
                                           const KeySlices& key) const {
    if (begin < 0) begin = 0;
    if (end > rows_) end = rows_;
    if (begin >= end) return -1;
    const std::int64_t firstBlock = begin >> 6;
    const std::int64_t lastBlock = (end - 1) >> 6;
    const std::size_t nBits = key.bit.size();
    for (std::int64_t w = firstBlock; w <= lastBlock; ++w) {
        std::uint64_t m = occ_[static_cast<std::size_t>(w)];
        if (w == firstBlock) m &= ~std::uint64_t{0} << (begin & 63);
        if (w == lastBlock && (end & 63) != 0)
            m &= ~std::uint64_t{0} >> (64 - (end & 63));
        if (!m) continue;
        const std::uint64_t* value = value_.data() + planeIndex(w, 0);
        const std::uint64_t* care = care_.data() + planeIndex(w, 0);
        for (std::size_t j = 0; j < nBits; ++j) {
            const int b = key.bit[j];
            m &= ~(care[b] & (value[b] ^ key.broadcast[j]));
            if (!m) break;
        }
        if (m) return (w << 6) + std::countr_zero(m);
    }
    return -1;
}

void TernaryPlanes::mismatchCounts(const KeySlices& key, std::size_t* out) const {
    // Vertical counters: cnt[k] holds bit k of each row's running mismatch
    // count. Adding a mismatch mask is a ripple-carry add across the planes;
    // with bits <= 2^14 the count fits in 15 planes.
    constexpr int kMaxCounterPlanes = 15;
    const std::size_t nBits = key.bit.size();
    for (std::int64_t w = 0; w < blocks_; ++w) {
        std::uint64_t cnt[kMaxCounterPlanes] = {};
        int used = 0;
        const std::uint64_t* value = value_.data() + planeIndex(w, 0);
        const std::uint64_t* care = care_.data() + planeIndex(w, 0);
        for (std::size_t j = 0; j < nBits; ++j) {
            const int b = key.bit[j];
            std::uint64_t carry = care[b] & (value[b] ^ key.broadcast[j]);
            for (int k = 0; carry; ++k) {
                const std::uint64_t overflow = cnt[k] & carry;
                cnt[k] ^= carry;
                carry = overflow;
                if (k >= used) used = k + 1;
            }
        }
        const std::uint64_t occ = occ_[static_cast<std::size_t>(w)];
        const std::int64_t base = w << 6;
        const int n = static_cast<int>(std::min<std::int64_t>(64, rows_ - base));
        for (int r = 0; r < n; ++r) {
            if (!((occ >> r) & 1u)) {
                out[base + r] = kNoEntry;
                continue;
            }
            std::size_t d = 0;
            for (int k = 0; k < used; ++k) d |= ((cnt[k] >> r) & 1u) << k;
            out[base + r] = d;
        }
    }
}

}  // namespace fetcam::tcam
