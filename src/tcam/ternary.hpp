// Ternary data types: the values a TCAM stores and searches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
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
    TernaryWord() = default;
    explicit TernaryWord(std::size_t bits, Trit fill = Trit::X) : trits_(bits, fill) {}

    /// Parse from a string of '0', '1', 'x'/'X'/'*'. Throws on other chars.
    static TernaryWord fromString(const std::string& s);

    /// All-definite word from the low `bits` of an integer (MSB first).
    static TernaryWord fromBits(unsigned long long value, std::size_t bits);

    std::string toString() const;

    std::size_t size() const { return trits_.size(); }
    bool empty() const { return trits_.empty(); }
    Trit& operator[](std::size_t i) { return trits_[i]; }
    Trit operator[](std::size_t i) const { return trits_[i]; }

    bool operator==(const TernaryWord&) const = default;

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
    std::vector<Trit> trits_;
};

/// The reference priority scan: lowest occupied row in
/// [begin, min(end, rows.size())) whose word matches `key`, or -1. Row at a
/// time through TernaryWord::matches (throws on a width mismatch) over the
/// same optional-word table sim::naiveSimilarity reads — the oracle the
/// bit-plane kernel and the query engine are tested and benchmarked against.
std::int64_t referenceFindFirst(const std::vector<std::optional<TernaryWord>>& rows,
                                const TernaryWord& key, std::int64_t begin = 0,
                                std::int64_t end = std::numeric_limits<std::int64_t>::max());

}  // namespace fetcam::tcam
