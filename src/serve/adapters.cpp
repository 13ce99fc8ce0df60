#include "serve/adapters.hpp"

#include <algorithm>

namespace fetcam::serve {

EngineOptions appEngineOptions(EngineOptions base, int wordBits, std::int64_t capacity) {
    base.shard.wordBits = wordBits;
    base.capacity = std::max<std::int64_t>(capacity, 1);
    return base;
}

LpmService::LpmService(const apps::RoutingTable& table, EngineOptions base,
                       std::shared_ptr<CharacterizationCache> cache)
    : engine_(appEngineOptions(std::move(base), apps::RoutingTable::kWordBits,
                               static_cast<std::int64_t>(table.size())),
              std::move(cache)) {
    // routes() is kept longest-prefix-first, so row index = TCAM priority and
    // the engine's lowest-row winner is the longest match.
    std::int64_t row = 0;
    nextHops_.reserve(table.size());
    for (const auto& route : table.routes()) {
        engine_.insertAt(row++, route.pattern());
        nextHops_.push_back(route.nextHop);
    }
}

std::vector<std::optional<int>> LpmService::lookupBatch(
    const std::vector<std::uint32_t>& addresses, int jobs) {
    std::vector<tcam::TernaryWord> keys;
    keys.reserve(addresses.size());
    for (const auto addr : addresses)
        keys.push_back(tcam::TernaryWord::fromBits(addr, apps::RoutingTable::kWordBits));
    const auto batch = engine_.searchBatch(keys, jobs);

    std::vector<std::optional<int>> out(addresses.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        if (batch.rows[i] >= 0) out[i] = nextHops_[static_cast<std::size_t>(batch.rows[i])];
    return out;
}

TlbService::TlbService(const apps::Tlb& tlb, EngineOptions base,
                       std::shared_ptr<CharacterizationCache> cache)
    : engine_(appEngineOptions(std::move(base), apps::Tlb::kVpnBits,
                               static_cast<std::int64_t>(tlb.capacity())),
              std::move(cache)) {
    // FIFO order: Tlb::translate takes the first matching entry, so row
    // index = insertion order reproduces its pick exactly.
    std::int64_t row = 0;
    entries_ = tlb.entries();
    for (const auto& entry : entries_) engine_.insertAt(row++, entry.tag());
}

std::vector<std::optional<std::uint64_t>> TlbService::translateBatch(
    const std::vector<std::uint64_t>& vaddrs, int jobs) {
    std::vector<tcam::TernaryWord> keys;
    keys.reserve(vaddrs.size());
    for (const auto vaddr : vaddrs) {
        const std::uint64_t pageVpn = (vaddr >> 12) & ((1ULL << apps::Tlb::kVpnBits) - 1);
        keys.push_back(tcam::TernaryWord::fromBits(pageVpn, apps::Tlb::kVpnBits));
    }
    const auto batch = engine_.searchBatch(keys, jobs);

    std::vector<std::optional<std::uint64_t>> out(vaddrs.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (batch.rows[i] < 0) continue;
        const auto& e = entries_[static_cast<std::size_t>(batch.rows[i])];
        // Same physical-address math as Tlb::translate: frame base plus the
        // superpage-aware in-page offset.
        const std::uint64_t offsetMask = apps::pageBytes(e.size) - 1;
        out[i] = (e.pfn * apps::pageBytes(apps::PageSize::Page4K) & ~offsetMask) +
                 (vaddrs[i] & offsetMask);
    }
    return out;
}

ClassifierService::ClassifierService(const apps::PacketClassifier& classifier,
                                     EngineOptions base,
                                     std::shared_ptr<CharacterizationCache> cache)
    : engine_(appEngineOptions(std::move(base), apps::PacketHeader::kBits,
                               static_cast<std::int64_t>(classifier.size())),
              std::move(cache)) {
    std::int64_t row = 0;
    actions_.reserve(classifier.size());
    for (const auto& rule : classifier.rules()) {
        engine_.insertAt(row++, rule.pattern);
        actions_.push_back(rule.action);
    }
}

std::vector<std::optional<int>> ClassifierService::classifyBatch(
    const std::vector<apps::PacketHeader>& headers, int jobs) {
    std::vector<tcam::TernaryWord> keys;
    keys.reserve(headers.size());
    for (const auto& header : headers) keys.push_back(header.toWord());
    const auto batch = engine_.searchBatch(keys, jobs);

    std::vector<std::optional<int>> out(headers.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        if (batch.rows[i] >= 0) out[i] = actions_[static_cast<std::size_t>(batch.rows[i])];
    return out;
}

}  // namespace fetcam::serve
