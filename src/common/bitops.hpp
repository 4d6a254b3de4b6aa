// Small bit-manipulation helpers shared by the networking and trie modules.
#pragma once

#include <bit>
#include <cstdint>

#include "common/error.hpp"

namespace vr {

/// Ceiling division for non-negative integers; ceil_div(0, b) == 0.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return b == 0 ? 0 : (a + b - 1) / b;
}

/// Mask with the top `len` bits of a 32-bit word set (len in [0,32]).
constexpr std::uint32_t prefix_mask(unsigned len) noexcept {
  return len == 0 ? 0u : ~std::uint32_t{0} << (32u - len);
}

/// Extracts bit `index` (0 = most significant) of a 32-bit word.
constexpr bool bit_at(std::uint32_t word, unsigned index) noexcept {
  return ((word >> (31u - index)) & 1u) != 0;
}

/// Number of bits needed to address `count` distinct items (>=1 for count>1,
/// 0 for count<=1).
constexpr unsigned address_bits(std::uint64_t count) noexcept {
  if (count <= 1) return 0;
  return static_cast<unsigned>(std::bit_width(count - 1));
}

}  // namespace vr
