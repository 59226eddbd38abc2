// Pool-compression vocabulary kept for perfbench/driver.cpp, its only
// caller: the driver reports ImmResult::pool_compression_used and
// to_string(resolve_pool_compression(kAuto)) in its config. The
// compressed pool backing is gone; every build keeps the raw pool, so
// both values always read "none".
#pragma once

#include <string_view>

namespace eimm {

enum class PoolCompression { kAuto, kNone };

/// Every request resolves to kNone: pools are never compressed.
[[nodiscard]] constexpr PoolCompression resolve_pool_compression(
    PoolCompression /*requested*/) noexcept {
  return PoolCompression::kNone;
}

[[nodiscard]] constexpr std::string_view to_string(
    PoolCompression mode) noexcept {
  return mode == PoolCompression::kAuto ? "auto" : "none";
}

}  // namespace eimm
