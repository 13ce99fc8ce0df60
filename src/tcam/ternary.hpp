// Ternary data types: the values a TCAM stores and searches.
//
// A TernaryWord is packed into two bit arrays of 64-bit words: `care` (the
// trit is definite) and `value` (the trit is One), trit i at bit i % 64 of
// word i / 64. An X stores value 0 and the bits past size() stay zero, so
// every operation works a word at a time (AND/XOR/popcount) and `==`
// compares raw words. Words up to 128 trits live inline; wider ones take
// one heap block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fetcam::tcam {

/// A ternary digit: 0, 1, or don't-care.
enum class Trit : unsigned char { Zero = 0, One = 1, X = 2 };

/// One trit matches a search key trit unless both are definite and differ.
/// (A stored X matches anything; an X in the key matches every row — the
/// standard TCAM masked-search semantics.)
constexpr bool tritMatches(Trit stored, Trit key) {
    if (stored == Trit::X || key == Trit::X) return true;
    return stored == key;
}

/// Fixed-width ternary word.
class TernaryWord {
public:
    /// What `w[i]` returns on a mutable word: reads as a Trit, assigns one.
    class TritRef {
    public:
        operator Trit() const { return word_.get(i_); }
        TritRef& operator=(Trit t) {
            word_.set(i_, t);
            return *this;
        }
        TritRef& operator=(const TritRef& other) { return *this = static_cast<Trit>(other); }

    private:
        friend class TernaryWord;
        TritRef(TernaryWord& word, std::size_t i) : word_(word), i_(i) {}
        TernaryWord& word_;
        std::size_t i_;
    };

    TernaryWord() = default;
    explicit TernaryWord(std::size_t bits, Trit fill = Trit::X);
    TernaryWord(const TernaryWord& other);
    TernaryWord(TernaryWord&& other) noexcept;
    TernaryWord& operator=(const TernaryWord& other);
    TernaryWord& operator=(TernaryWord&& other) noexcept;
    ~TernaryWord() { release(); }

    /// Parse from a string of '0', '1', 'x'/'X'/'*'. Throws on other chars.
    static TernaryWord fromString(const std::string& s);

    /// All-definite word from the low `bits` of an integer (MSB first).
    static TernaryWord fromBits(unsigned long long value, std::size_t bits);

    std::string toString() const;

    std::size_t size() const { return bits_; }
    bool empty() const { return bits_ == 0; }
    TritRef operator[](std::size_t i) { return {*this, i}; }
    Trit operator[](std::size_t i) const { return get(i); }

    bool operator==(const TernaryWord& other) const;

    /// 64-bit words per bit array: ceil(size() / 64).
    std::size_t wordCount() const { return (bits_ + 63) / 64; }
    /// Word w of `value` (bit i: trit 64w + i is One).
    std::uint64_t valueWord(std::size_t w) const { return data()[w]; }
    /// Word w of `care` (bit i: trit 64w + i is definite).
    std::uint64_t careWord(std::size_t w) const { return data()[wordCount() + w]; }
    /// Store trits [64w, 64w + 64) at once; value bits outside `care` and
    /// bits past size() are dropped.
    void setWord(std::size_t w, std::uint64_t value, std::uint64_t care);

    /// Word-level match: every trit position matches. Throws on width
    /// mismatch.
    bool matches(const TernaryWord& key) const;

    /// Number of definite-and-differing positions (drives ML discharge rate).
    /// Throws on width mismatch.
    std::size_t mismatchCount(const TernaryWord& key) const;

    /// Number of don't-care positions.
    std::size_t wildcardCount() const;

    /// Number of definite (0/1) positions — the prefix length for LPM rules.
    std::size_t definiteCount() const { return size() - wildcardCount(); }

private:
    static constexpr std::size_t kInlineBits = 128;

    bool onHeap() const { return bits_ > kInlineBits; }
    const std::uint64_t* data() const { return onHeap() ? heap_ : inline_; }
    std::uint64_t* data() { return onHeap() ? heap_ : inline_; }
    /// Constructors only (inline storage starts zeroed): size the word to
    /// `bits` trits, all X.
    void allocate(std::size_t bits);
    /// Take `other`'s storage, leaving it empty; storage is unset.
    void steal(TernaryWord& other);
    void release();
    Trit get(std::size_t i) const;
    void set(std::size_t i, Trit t);

    std::size_t bits_ = 0;
    /// value words, then care words: wordCount() each.
    union {
        std::uint64_t inline_[2 * kInlineBits / 64] = {};
        std::uint64_t* heap_;
    };
};

/// The trit-byte form the wire protocol and the entry delta log share: one
/// byte per trit, byte i = word[i]'s Trit value (0, 1 or 2), appended to
/// `out`.
void appendTritBytes(std::string& out, const TernaryWord& word);

/// Inverse of appendTritBytes: a bytes.size()-trit word, or nullopt when a
/// byte lies outside {0, 1, 2}. Each caller reports the rejection its own way.
std::optional<TernaryWord> parseTritBytes(std::string_view bytes);

/// The reference priority scan: lowest occupied row in
/// [begin, min(end, rows.size())) whose word matches `key`, or -1. Row at a
/// time through TernaryWord::matches (throws on a width mismatch) over the
/// same optional-word table sim::naiveSimilarity reads — the oracle the
/// bit-plane kernel and the query engine are tested and benchmarked against.
std::int64_t referenceFindFirst(const std::vector<std::optional<TernaryWord>>& rows,
                                const TernaryWord& key, std::int64_t begin = 0,
                                std::int64_t end = std::numeric_limits<std::int64_t>::max());

}  // namespace fetcam::tcam
