#include "netbase/prefix.hpp"

#include <charconv>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace vr::net {

Prefix::Prefix(Ipv4 address, unsigned length) noexcept
    : address_(address.value() & prefix_mask(length)), length_(length) {
  VR_REQUIRE(length <= 32, "prefix length must be in [0,32]");
}

bool Prefix::contains(Ipv4 addr) const noexcept {
  return (addr.value() & prefix_mask(length_)) == address_.value();
}

bool Prefix::covers(const Prefix& other) const noexcept {
  return length_ <= other.length_ && contains(other.address_);
}

std::string Prefix::to_string() const {
  return address_.to_string() + "/" + std::to_string(length_);
}

std::optional<Prefix> Prefix::parse(std::string_view text) noexcept {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv4::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  const std::string_view len_text = text.substr(slash + 1);
  unsigned length = 0;
  const auto [next, ec] = std::from_chars(
      len_text.data(), len_text.data() + len_text.size(), length);
  if (ec != std::errc{} || next != len_text.data() + len_text.size() ||
      length > 32) {
    return std::nullopt;
  }
  // Require the address to already be canonical so that parsing round-trips.
  if ((addr->value() & ~prefix_mask(length)) != 0) return std::nullopt;
  return Prefix(*addr, length);
}

}  // namespace vr::net
