// Strict command-line values for the examples: a value is read whole, so
// trailing characters (`12x`), a non-number (`abc`) or an empty string is
// refused rather than read as its numeric prefix or as 0.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <type_traits>

namespace vr::examples {

/// All of `text` as a T: an integer in T's range, or a finite
/// floating-point number. nullopt for anything else.
template <typename T>
std::optional<T> parse_value(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

}  // namespace vr::examples
