#include "tcam/ternary.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace fetcam::tcam {

namespace {

constexpr std::uint64_t kByteLsbs = 0x0101010101010101ULL;

/// Bit 0 of each of the 8 bytes of `bytes`, byte k to bit k.
std::uint64_t gatherByteLsbs(std::uint64_t bytes) {
    return ((bytes & kByteLsbs) * 0x0102040810204080ULL) >> 56;
}

/// Inverse of gatherByteLsbs: bit k of the low byte of `bits` to byte k (0 or 1).
std::uint64_t spreadToBytes(std::uint64_t bits) {
    const std::uint64_t oneBitPerByte = ((bits & 0xFF) * kByteLsbs) & 0x8040201008040201ULL;
    return ((oneBitPerByte + 0x7F7F7F7F7F7F7F7FULL) & 0x8080808080808080ULL) >> 7;
}

static_assert(std::endian::native == std::endian::little,
              "the trit-byte codec reads and writes 8 trit-bytes as one little-endian word");

}  // namespace

TernaryWord::TernaryWord(std::size_t bits, Trit fill) {
    allocate(bits);
    if (fill == Trit::X) return;
    for (std::size_t w = 0; w < wordCount(); ++w)
        setWord(w, fill == Trit::One ? ~std::uint64_t{0} : 0, ~std::uint64_t{0});
}

TernaryWord::TernaryWord(const TernaryWord& other) {
    allocate(other.bits_);
    std::copy_n(other.data(), 2 * wordCount(), data());
}

TernaryWord::TernaryWord(TernaryWord&& other) noexcept { steal(other); }

TernaryWord& TernaryWord::operator=(const TernaryWord& other) {
    return *this = TernaryWord(other);
}

TernaryWord& TernaryWord::operator=(TernaryWord&& other) noexcept {
    if (this != &other) {
        release();
        steal(other);
    }
    return *this;
}

void TernaryWord::allocate(std::size_t bits) {
    if (bits > kInlineBits) heap_ = new std::uint64_t[2 * ((bits + 63) / 64)]();
    bits_ = bits;
}

void TernaryWord::steal(TernaryWord& other) {
    bits_ = other.bits_;
    if (onHeap())
        heap_ = other.heap_;
    else
        std::copy_n(other.inline_, 2 * wordCount(), inline_);
    other.bits_ = 0;
}

void TernaryWord::release() {
    if (onHeap()) delete[] heap_;
    bits_ = 0;
}

Trit TernaryWord::get(std::size_t i) const {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (!(careWord(i >> 6) & bit)) return Trit::X;
    return valueWord(i >> 6) & bit ? Trit::One : Trit::Zero;
}

void TernaryWord::set(std::size_t i, Trit t) {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    std::uint64_t& value = data()[i >> 6];
    std::uint64_t& care = data()[wordCount() + (i >> 6)];
    value = (value & ~bit) | (t == Trit::One ? bit : 0);
    care = (care & ~bit) | (t != Trit::X ? bit : 0);
}

void TernaryWord::setWord(std::size_t w, std::uint64_t value, std::uint64_t care) {
    const std::size_t tail = bits_ - 64 * w;
    if (tail < 64) care &= (std::uint64_t{1} << tail) - 1;
    std::uint64_t* d = data();
    d[w] = value & care;
    d[wordCount() + w] = care;
}

bool TernaryWord::operator==(const TernaryWord& other) const {
    return bits_ == other.bits_ && std::equal(data(), data() + 2 * wordCount(), other.data());
}

TernaryWord TernaryWord::fromString(const std::string& s) {
    TernaryWord w(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        switch (s[i]) {
            case '0': w.set(i, Trit::Zero); break;
            case '1': w.set(i, Trit::One); break;
            case 'x':
            case 'X':
            case '*': break;
            default:
                throw std::invalid_argument("TernaryWord::fromString: bad char '" +
                                            std::string(1, s[i]) + "'");
        }
    }
    return w;
}

TernaryWord TernaryWord::fromBits(unsigned long long value, std::size_t bits) {
    TernaryWord w(bits);
    for (std::size_t i = 0; i < bits; ++i) {
        const std::size_t shift = bits - 1 - i;
        const bool bit = shift < 64 && ((value >> shift) & 1ULL);
        w.set(i, bit ? Trit::One : Trit::Zero);
    }
    return w;
}

std::string TernaryWord::toString() const {
    std::string s(bits_, '?');
    for (std::size_t i = 0; i < bits_; ++i) {
        switch (get(i)) {
            case Trit::Zero: s[i] = '0'; break;
            case Trit::One: s[i] = '1'; break;
            case Trit::X: s[i] = 'X'; break;
        }
    }
    return s;
}

bool TernaryWord::matches(const TernaryWord& key) const {
    if (key.size() != size())
        throw std::invalid_argument("TernaryWord::matches: width mismatch");
    for (std::size_t w = 0; w < wordCount(); ++w)
        if (careWord(w) & key.careWord(w) & (valueWord(w) ^ key.valueWord(w))) return false;
    return true;
}

std::size_t TernaryWord::mismatchCount(const TernaryWord& key) const {
    if (key.size() != size())
        throw std::invalid_argument("TernaryWord::mismatchCount: width mismatch");
    std::size_t n = 0;
    for (std::size_t w = 0; w < wordCount(); ++w)
        n += static_cast<std::size_t>(
            std::popcount(careWord(w) & key.careWord(w) & (valueWord(w) ^ key.valueWord(w))));
    return n;
}

std::size_t TernaryWord::wildcardCount() const {
    std::size_t definite = 0;
    for (std::size_t w = 0; w < wordCount(); ++w)
        definite += static_cast<std::size_t>(std::popcount(careWord(w)));
    return bits_ - definite;
}

void appendTritBytes(std::string& out, const TernaryWord& word) {
    const std::size_t at = out.size();
    out.resize(at + word.size());
    // 8 trits per step: byte k = value bit k | X bit k << 1. Bits past
    // size() read as X, and the last step copies only the bytes in range.
    for (std::size_t i = 0; i < word.size(); i += 8) {
        const std::uint64_t value = word.valueWord(i / 64) >> (i % 64);
        const std::uint64_t x = ~word.careWord(i / 64) >> (i % 64);
        const std::uint64_t bytes = spreadToBytes(value) | spreadToBytes(x) << 1;
        std::memcpy(out.data() + at + i, &bytes, std::min<std::size_t>(8, word.size() - i));
    }
}

std::optional<TernaryWord> parseTritBytes(std::string_view bytes) {
    TernaryWord word(bytes.size());
    std::uint64_t bad = 0, value = 0, x = 0;
    // 8 trit-bytes per step. A byte is valid when no bit above bit 1 is set
    // and bits 0 and 1 are not both set (3). A short last step reads zero
    // bytes past the end, which setWord drops.
    for (std::size_t i = 0; i < bytes.size(); i += 8) {
        std::uint64_t chunk = 0;
        if (bytes.size() - i >= 8)
            std::memcpy(&chunk, bytes.data() + i, 8);
        else
            std::memcpy(&chunk, bytes.data() + i, bytes.size() - i);
        bad |= (chunk & 0xFCFCFCFCFCFCFCFCULL) | (chunk & (chunk >> 1) & kByteLsbs);
        value |= gatherByteLsbs(chunk) << (i % 64);
        x |= gatherByteLsbs(chunk >> 1) << (i % 64);
        if ((i + 8) % 64 == 0 || i + 8 >= bytes.size()) {
            word.setWord(i / 64, value, ~x);
            value = x = 0;
        }
    }
    if (bad) return std::nullopt;
    return word;
}

std::int64_t referenceFindFirst(const std::vector<std::optional<TernaryWord>>& rows,
                                const TernaryWord& key, std::int64_t begin, std::int64_t end) {
    end = std::min(end, static_cast<std::int64_t>(rows.size()));
    for (std::int64_t r = begin; r < end; ++r) {
        const auto& slot = rows[static_cast<std::size_t>(r)];
        if (slot && slot->matches(key)) return r;
    }
    return -1;
}

}  // namespace fetcam::tcam
