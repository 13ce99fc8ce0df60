// Multi-field packet classification on a TCAM: rules are ternary patterns
// over concatenated header fields; the first matching rule (priority order)
// decides the action.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tcam/ternary.hpp"

namespace fetcam::apps {

/// A simplified 5-tuple-style header flattened to bits:
/// srcIp(32) | dstIp(32) | srcPort(16) | dstPort(16) | protocol(8) = 104 bits.
struct PacketHeader {
    std::uint32_t srcIp = 0;
    std::uint32_t dstIp = 0;
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint8_t protocol = 0;

    static constexpr int kBits = 104;
    tcam::TernaryWord toWord() const;
};

struct ClassifierRule {
    tcam::TernaryWord pattern;  ///< width PacketHeader::kBits
    int action = 0;
    std::string name;
};

/// Helpers to assemble rule patterns field by field.
class RuleBuilder {
public:
    RuleBuilder();
    RuleBuilder& srcPrefix(std::uint32_t addr, int len);
    RuleBuilder& dstPrefix(std::uint32_t addr, int len);
    RuleBuilder& dstPort(std::uint16_t port);   ///< exact
    RuleBuilder& protocol(std::uint8_t proto);  ///< exact
    ClassifierRule build(int action, std::string name = {}) const;

private:
    void setField(int offset, std::uint64_t value, int definiteBits, int fieldBits);
    tcam::TernaryWord pattern_;
};

class PacketClassifier {
public:
    /// Append a rule (lowest index = highest priority).
    void addRule(ClassifierRule rule);

    /// First matching rule's action, TCAM priority semantics.
    std::optional<int> classify(const PacketHeader& header) const;

    /// Index of the first matching rule (for tests / diagnostics).
    std::optional<std::size_t> matchIndex(const PacketHeader& header) const;

    std::size_t size() const { return rules_.size(); }
    const std::vector<ClassifierRule>& rules() const { return rules_; }

private:
    std::vector<ClassifierRule> rules_;
};

}  // namespace fetcam::apps
