// IPv4 prefix (CIDR block) value type and longest-prefix-match semantics.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/bitops.hpp"
#include "netbase/ipv4.hpp"

namespace vr::net {

/// Next-hop information (NHI): an output-port / adjacency identifier. The
/// paper stores NHI in 8-bit leaf entries; we allow 16 bits in software and
/// let the memory-encoding layer narrow it.
using NextHop = std::uint16_t;

/// Sentinel meaning "no route" (the trie root's default when no default
/// route is present).
inline constexpr NextHop kNoRoute = 0xffff;

/// An IPv4 CIDR prefix. The address is stored canonicalized: bits below the
/// prefix length are forced to zero, so equal prefixes compare equal.
class Prefix {
 public:
  constexpr Prefix() noexcept = default;

  /// Canonicalizes: host bits of `address` are cleared. length in [0,32].
  Prefix(Ipv4 address, unsigned length) noexcept;

  [[nodiscard]] constexpr Ipv4 address() const noexcept { return address_; }
  [[nodiscard]] constexpr unsigned length() const noexcept { return length_; }

  /// True if `addr` is covered by this prefix.
  [[nodiscard]] bool contains(Ipv4 addr) const noexcept;

  /// True if this prefix covers `other` entirely (i.e. is shorter or equal
  /// and matches on its own length).
  [[nodiscard]] bool covers(const Prefix& other) const noexcept;

  /// Bit `i` (0 = most significant) of the prefix address; only bits
  /// < length() are meaningful. Inline: every binary-trie walk reads one
  /// per level.
  [[nodiscard]] constexpr bool bit(unsigned i) const noexcept {
    return bit_at(address_.value(), i);
  }

  /// "a.b.c.d/len" text form.
  [[nodiscard]] std::string to_string() const;

  /// Parses "a.b.c.d/len"; nullopt on error.
  static std::optional<Prefix> parse(std::string_view text) noexcept;

  friend constexpr auto operator<=>(const Prefix&,
                                    const Prefix&) noexcept = default;

 private:
  Ipv4 address_;
  unsigned length_ = 0;
};

/// A routing-table entry: prefix plus its next hop.
struct Route {
  Prefix prefix;
  NextHop next_hop = kNoRoute;

  friend constexpr auto operator<=>(const Route&, const Route&) noexcept =
      default;
};

}  // namespace vr::net
