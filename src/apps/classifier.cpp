#include "apps/classifier.hpp"

#include <stdexcept>

namespace fetcam::apps {

namespace {

void writeBits(tcam::TernaryWord& w, int offset, std::uint64_t value, int definiteBits,
               int fieldBits) {
    for (int i = 0; i < definiteBits; ++i) {
        const bool bit = (value >> (fieldBits - 1 - i)) & 1ULL;
        w[static_cast<std::size_t>(offset + i)] = bit ? tcam::Trit::One : tcam::Trit::Zero;
    }
}

}  // namespace

tcam::TernaryWord PacketHeader::toWord() const {
    tcam::TernaryWord w(kBits, tcam::Trit::Zero);
    writeBits(w, 0, srcIp, 32, 32);
    writeBits(w, 32, dstIp, 32, 32);
    writeBits(w, 64, srcPort, 16, 16);
    writeBits(w, 80, dstPort, 16, 16);
    writeBits(w, 96, protocol, 8, 8);
    return w;
}

RuleBuilder::RuleBuilder() : pattern_(PacketHeader::kBits, tcam::Trit::X) {}

void RuleBuilder::setField(int offset, std::uint64_t value, int definiteBits, int fieldBits) {
    if (definiteBits < 0 || definiteBits > fieldBits)
        throw std::invalid_argument("RuleBuilder: bad field width");
    writeBits(pattern_, offset, value, definiteBits, fieldBits);
}

RuleBuilder& RuleBuilder::srcPrefix(std::uint32_t addr, int len) {
    setField(0, addr, len, 32);
    return *this;
}
RuleBuilder& RuleBuilder::dstPrefix(std::uint32_t addr, int len) {
    setField(32, addr, len, 32);
    return *this;
}
RuleBuilder& RuleBuilder::dstPort(std::uint16_t port) {
    setField(80, port, 16, 16);
    return *this;
}
RuleBuilder& RuleBuilder::protocol(std::uint8_t proto) {
    setField(96, proto, 8, 8);
    return *this;
}

ClassifierRule RuleBuilder::build(int action, std::string name) const {
    return ClassifierRule{pattern_, action, std::move(name)};
}

void PacketClassifier::addRule(ClassifierRule rule) {
    if (static_cast<int>(rule.pattern.size()) != PacketHeader::kBits)
        throw std::invalid_argument("PacketClassifier::addRule: bad pattern width");
    rules_.push_back(std::move(rule));
}

std::optional<int> PacketClassifier::classify(const PacketHeader& header) const {
    if (const auto idx = matchIndex(header)) return rules_[*idx].action;
    return std::nullopt;
}

std::optional<std::size_t> PacketClassifier::matchIndex(const PacketHeader& header) const {
    const auto key = header.toWord();
    for (std::size_t i = 0; i < rules_.size(); ++i)
        if (rules_[i].pattern.matches(key)) return i;
    return std::nullopt;
}

}  // namespace fetcam::apps
