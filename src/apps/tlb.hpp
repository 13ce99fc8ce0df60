// Fully-associative TLB on a TCAM: virtual-page-number tags with wildcarded
// low bits for superpages (4 KiB / 2 MiB / 1 GiB), FIFO replacement.
//
// The tag side is exactly a ternary match problem — the classic hardware
// reason fully-associative TLBs are built from CAM cells — and superpages
// are what make it *ternary*.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tcam/ternary.hpp"

namespace fetcam::apps {

enum class PageSize { Page4K, Page2M, Page1G };

/// Low VPN bits wildcarded for each page size (x86-64-style 48-bit VA).
constexpr int wildcardBits(PageSize s) {
    switch (s) {
        case PageSize::Page4K: return 0;
        case PageSize::Page2M: return 9;   // 2M = 4K << 9
        case PageSize::Page1G: return 18;  // 1G = 4K << 18
    }
    return 0;
}

constexpr std::uint64_t pageBytes(PageSize s) {
    switch (s) {
        case PageSize::Page4K: return 1ULL << 12;
        case PageSize::Page2M: return 1ULL << 21;
        case PageSize::Page1G: return 1ULL << 30;
    }
    return 0;
}

struct TlbEntry {
    std::uint64_t vpn = 0;  ///< virtual page number (VA >> 12)
    PageSize size = PageSize::Page4K;
    std::uint64_t pfn = 0;  ///< physical frame number

    tcam::TernaryWord tag() const;  ///< kVpnBits-wide ternary tag
};

class Tlb {
public:
    static constexpr int kVaBits = 48;
    static constexpr int kVpnBits = 36;  // 48 - 12

    explicit Tlb(std::size_t capacity);

    /// Install a translation; evicts FIFO when full. The VPN's wildcarded
    /// bits must be zero (page-aligned), else std::invalid_argument.
    void insert(std::uint64_t vpn, PageSize size, std::uint64_t pfn);

    /// Translate a virtual address; nullopt on TLB miss.
    std::optional<std::uint64_t> translate(std::uint64_t vaddr) const;

    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }
    const std::vector<TlbEntry>& entries() const { return entries_; }

    // Statistics.
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double hitRate() const;

private:
    std::size_t capacity_;
    std::vector<TlbEntry> entries_;  // FIFO order: front is oldest
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
};

}  // namespace fetcam::apps
