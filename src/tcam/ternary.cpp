#include "tcam/ternary.hpp"

#include <algorithm>
#include <stdexcept>

namespace fetcam::tcam {

TernaryWord TernaryWord::fromString(const std::string& s) {
    TernaryWord w(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        switch (s[i]) {
            case '0': w.trits_[i] = Trit::Zero; break;
            case '1': w.trits_[i] = Trit::One; break;
            case 'x':
            case 'X':
            case '*': w.trits_[i] = Trit::X; break;
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
        const bool bit = (value >> (bits - 1 - i)) & 1ULL;
        w.trits_[i] = bit ? Trit::One : Trit::Zero;
    }
    return w;
}

std::string TernaryWord::toString() const {
    std::string s(trits_.size(), '?');
    for (std::size_t i = 0; i < trits_.size(); ++i) {
        switch (trits_[i]) {
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
    for (std::size_t i = 0; i < trits_.size(); ++i)
        if (!tritMatches(trits_[i], key.trits_[i])) return false;
    return true;
}

std::size_t TernaryWord::mismatchCount(const TernaryWord& key) const {
    if (key.size() != size())
        throw std::invalid_argument("TernaryWord::mismatchCount: width mismatch");
    std::size_t n = 0;
    for (std::size_t i = 0; i < trits_.size(); ++i)
        if (!tritMatches(trits_[i], key.trits_[i])) ++n;
    return n;
}

std::size_t TernaryWord::wildcardCount() const {
    std::size_t n = 0;
    for (const Trit t : trits_)
        if (t == Trit::X) ++n;
    return n;
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
