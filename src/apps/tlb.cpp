#include "apps/tlb.hpp"

#include <stdexcept>

namespace fetcam::apps {

tcam::TernaryWord TlbEntry::tag() const {
    tcam::TernaryWord w(Tlb::kVpnBits);
    const int wild = wildcardBits(size);
    for (int i = 0; i < Tlb::kVpnBits; ++i) {
        const int bitPos = Tlb::kVpnBits - 1 - i;  // MSB first
        if (bitPos < wild) {
            w[static_cast<std::size_t>(i)] = tcam::Trit::X;
        } else {
            const bool bit = (vpn >> bitPos) & 1ULL;
            w[static_cast<std::size_t>(i)] = bit ? tcam::Trit::One : tcam::Trit::Zero;
        }
    }
    return w;
}

Tlb::Tlb(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("Tlb: capacity must be > 0");
}

void Tlb::insert(std::uint64_t vpn, PageSize size, std::uint64_t pfn) {
    const int wild = wildcardBits(size);
    if (wild > 0 && (vpn & ((1ULL << wild) - 1)) != 0)
        throw std::invalid_argument("Tlb::insert: vpn not aligned to page size");
    if (vpn >> kVpnBits)
        throw std::invalid_argument("Tlb::insert: vpn exceeds 36 bits");
    if (entries_.size() == capacity_) entries_.erase(entries_.begin());  // FIFO evict
    entries_.push_back({vpn, size, pfn});
}

std::optional<std::uint64_t> Tlb::translate(std::uint64_t vaddr) const {
    const std::uint64_t pageVpn = (vaddr >> 12) & ((1ULL << kVpnBits) - 1);
    const auto key = tcam::TernaryWord::fromBits(pageVpn, kVpnBits);
    for (const auto& e : entries_) {
        if (!e.tag().matches(key)) continue;
        ++hits_;
        // Physical address: frame base + in-page offset (superpage-aware).
        const std::uint64_t offsetMask = pageBytes(e.size) - 1;
        return (e.pfn * pageBytes(PageSize::Page4K) & ~offsetMask) + (vaddr & offsetMask);
    }
    ++misses_;
    return std::nullopt;
}

double Tlb::hitRate() const {
    const auto total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

}  // namespace fetcam::apps
