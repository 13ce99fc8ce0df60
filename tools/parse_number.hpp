// Checked numeric flag values for the network serving pair (fetcam_serve,
// fetcam_load): the whole text must be one number of the flag's type, so
// `--listen abc` or `--max-batch 1k` is refused instead of read as 0 or 1.
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <system_error>
#include <type_traits>

#include "recover/sim_error.hpp"

namespace fetcam::tools {

/// Stores `text` in `out` as a T (an integer or floating-point type). Empty,
/// non-numeric, out-of-range, non-finite or trailing text throws
/// SimError(InvalidSpec) naming `tool` and the flag `opt`, leaving `out` as
/// it was.
template <class T>
void parseNumber(const std::string& text, T& out, const char* tool, const std::string& opt) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    bool ok = !text.empty() && ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
    if (!ok)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, tool,
                                opt + " expects a number, got '" + text + "'");
    out = value;
}

}  // namespace fetcam::tools
