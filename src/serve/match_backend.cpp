#include "serve/match_backend.hpp"

#include <sstream>

#include "recover/sim_error.hpp"

namespace fetcam::serve {

const char* backendName(MatchBackendKind kind) noexcept {
    switch (kind) {
        case MatchBackendKind::Scalar: return "scalar";
        case MatchBackendKind::BitPlane: return "bitplane";
        case MatchBackendKind::Checked: return "checked";
    }
    return "?";
}

MatchBackendKind parseBackendKind(const std::string& name) {
    if (name == "scalar") return MatchBackendKind::Scalar;
    if (name == "bitplane") return MatchBackendKind::BitPlane;
    if (name == "checked") return MatchBackendKind::Checked;
    throw recover::SimError(recover::SimErrorReason::InvalidSpec, "parseBackendKind",
                            "unknown match backend '" + name +
                                "' (expected scalar|bitplane|checked)");
}

namespace {

/// The original row-at-a-time scan, kept verbatim as the oracle every other
/// backend is checked against.
class ScalarBackend final : public MatchBackend {
public:
    ScalarBackend(std::int64_t rows, int bits)
        : MatchBackend(rows, bits), entries_(static_cast<std::size_t>(rows)) {}

    MatchBackendKind kind() const noexcept override { return MatchBackendKind::Scalar; }

    void set(std::int64_t row, const tcam::TernaryWord& word) override {
        entries_[static_cast<std::size_t>(row)] = word;
    }

    void clear(std::int64_t row) override {
        entries_[static_cast<std::size_t>(row)].reset();
    }

    std::optional<tcam::TernaryWord> at(std::int64_t row) const override {
        return entries_[static_cast<std::size_t>(row)];
    }

    bool occupied(std::int64_t row) const override {
        return entries_[static_cast<std::size_t>(row)].has_value();
    }

    std::unique_ptr<MatchBackend> clone() const override {
        return std::make_unique<ScalarBackend>(*this);
    }

    PreparedKey prepare(const tcam::TernaryWord& key) const override {
        return {&key, {}};  // the scalar scan needs no slices
    }

    std::int64_t findFirst(std::int64_t begin, std::int64_t end,
                           const PreparedKey& key) const override {
        for (std::int64_t r = begin; r < end; ++r) {
            const auto& slot = entries_[static_cast<std::size_t>(r)];
            if (slot && slot->matchesUnchecked(*key.word)) return r;
        }
        return -1;
    }

    void mismatchCounts(const PreparedKey& key, std::size_t* out) const override {
        for (std::size_t r = 0; r < entries_.size(); ++r) {
            const auto& slot = entries_[r];
            out[r] = slot ? slot->mismatchCountUnchecked(*key.word) : tcam::kNoEntry;
        }
    }

private:
    std::vector<std::optional<tcam::TernaryWord>> entries_;
};

/// Bit-plane backend: the planes are the only copy of every entry. They
/// answer every search, and at() decodes a row's trits back out of them.
class BitPlaneBackend final : public MatchBackend {
public:
    BitPlaneBackend(std::int64_t rows, int bits) : MatchBackend(rows, bits), planes_(bits, rows) {}

    MatchBackendKind kind() const noexcept override { return MatchBackendKind::BitPlane; }

    void set(std::int64_t row, const tcam::TernaryWord& word) override { planes_.set(row, word); }

    void clear(std::int64_t row) override { planes_.clear(row); }

    std::optional<tcam::TernaryWord> at(std::int64_t row) const override {
        return planes_.get(row);
    }

    bool occupied(std::int64_t row) const override { return planes_.occupied(row); }

    std::unique_ptr<MatchBackend> clone() const override {
        return std::make_unique<BitPlaneBackend>(*this);
    }

    PreparedKey prepare(const tcam::TernaryWord& key) const override {
        return {&key, tcam::KeySlices::of(key)};
    }

    std::int64_t findFirst(std::int64_t begin, std::int64_t end,
                           const PreparedKey& key) const override {
        return planes_.findFirstMatch(begin, end, key.slices);
    }

    void mismatchCounts(const PreparedKey& key, std::size_t* out) const override {
        planes_.mismatchCounts(key.slices, out);
    }

private:
    tcam::TernaryPlanes planes_;
};

/// Paranoid mode: every query runs on both backends and any divergence is a
/// hard, typed error. This is how the differential fuzz drives both paths
/// through one call site, and a deployable safety net for new backends.
class CheckedBackend final : public MatchBackend {
public:
    CheckedBackend(std::int64_t rows, int bits)
        : MatchBackend(rows, bits), scalar_(rows, bits), planes_(rows, bits) {}

    MatchBackendKind kind() const noexcept override { return MatchBackendKind::Checked; }

    void set(std::int64_t row, const tcam::TernaryWord& word) override {
        scalar_.set(row, word);
        planes_.set(row, word);
    }

    void clear(std::int64_t row) override {
        scalar_.clear(row);
        planes_.clear(row);
    }

    std::optional<tcam::TernaryWord> at(std::int64_t row) const override {
        return planes_.at(row);
    }

    bool occupied(std::int64_t row) const override { return planes_.occupied(row); }

    std::unique_ptr<MatchBackend> clone() const override {
        return std::make_unique<CheckedBackend>(*this);
    }

    PreparedKey prepare(const tcam::TernaryWord& key) const override {
        return planes_.prepare(key);  // superset of what the scalar path needs
    }

    std::int64_t findFirst(std::int64_t begin, std::int64_t end,
                           const PreparedKey& key) const override {
        const std::int64_t fast = planes_.findFirst(begin, end, key);
        const std::int64_t oracle = scalar_.findFirst(begin, end, key);
        if (fast != oracle) {
            std::ostringstream os;
            os << "bit-plane result diverged from scalar oracle: key "
               << key.word->toString() << " rows [" << begin << ", " << end
               << ") -> bitplane " << fast << ", scalar " << oracle;
            throw recover::SimError(recover::SimErrorReason::CorruptData,
                                    "MatchBackend::findFirst", os.str());
        }
        return fast;
    }

    void mismatchCounts(const PreparedKey& key, std::size_t* out) const override {
        planes_.mismatchCounts(key, out);
        std::vector<std::size_t> oracle(static_cast<std::size_t>(rows()));
        scalar_.mismatchCounts(key, oracle.data());
        for (std::size_t r = 0; r < oracle.size(); ++r) {
            if (out[r] != oracle[r]) {
                std::ostringstream os;
                os << "bit-plane mismatch count diverged from scalar oracle at row "
                   << r << ": bitplane " << out[r] << ", scalar " << oracle[r];
                throw recover::SimError(recover::SimErrorReason::CorruptData,
                                        "MatchBackend::mismatchCounts", os.str());
            }
        }
    }

private:
    ScalarBackend scalar_;
    BitPlaneBackend planes_;
};

}  // namespace

std::unique_ptr<MatchBackend> makeMatchBackend(MatchBackendKind kind, std::int64_t rows,
                                               int bits) {
    if (rows < 0 || bits < 0 || bits > tcam::TernaryPlanes::kMaxBits)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "makeMatchBackend",
                                "backend geometry out of range");
    switch (kind) {
        case MatchBackendKind::Scalar:
            return std::make_unique<ScalarBackend>(rows, bits);
        case MatchBackendKind::BitPlane:
            return std::make_unique<BitPlaneBackend>(rows, bits);
        case MatchBackendKind::Checked:
            return std::make_unique<CheckedBackend>(rows, bits);
    }
    throw recover::SimError(recover::SimErrorReason::InvalidSpec, "makeMatchBackend",
                            "unknown backend kind");
}

}  // namespace fetcam::serve
