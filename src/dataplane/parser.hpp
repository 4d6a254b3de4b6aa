// Ingress parser stage of the complete router data plane (paper Sec. VI-A
// lists "parsing, lookup, editing, scheduling" as the remaining stages of
// a full router around the Layer-3 lookup this library models).
//
// The parser consumes raw header bytes, validates version/IHL, checksum
// and TTL, and emits the lookup request. Malformed packets are counted
// and dropped (a router must not forward them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "netbase/packet.hpp"
#include "netbase/traffic.hpp"

namespace vr::dataplane {

/// A parsed, validated packet ready for lookup.
struct ParsedPacket {
  net::VnId vnid = 0;
  net::Ipv4Header header;
  std::uint16_t payload_bytes = 0;
};

/// Drop accounting of the parser.
struct ParserStats {
  std::uint64_t accepted = 0;
  std::uint64_t malformed = 0;      ///< bad version/IHL/short header
  std::uint64_t bad_checksum = 0;
  std::uint64_t ttl_expired = 0;    ///< TTL 0 or 1 on arrival: not forwardable
  std::uint64_t bad_vnid = 0;       ///< VNID names no VN of this router

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return malformed + bad_checksum + ttl_expired + bad_vnid;
  }
};

/// Stateless single-cycle parser; statistics accumulate per instance.
class Parser {
 public:
  /// A parser for a router of `vn_count` virtual networks. A frame tagged
  /// with a VNID at or above `vn_count` is dropped as bad_vnid before its
  /// header is read, so no later stage indexes a per-VN array with it.
  explicit Parser(std::size_t vn_count) noexcept : vn_count_(vn_count) {}

  /// Parses and validates one frame's header bytes for virtual network
  /// `vnid`. Returns nullopt on any validation failure (recorded in
  /// stats()).
  [[nodiscard]] std::optional<ParsedPacket> parse(
      net::VnId vnid, std::span<const std::uint8_t> bytes);

  /// Same, from an in-memory header (used by generators that skip the
  /// serialize/parse round trip; applies the same validation).
  [[nodiscard]] std::optional<ParsedPacket> accept(
      net::VnId vnid, const net::Ipv4Header& header,
      std::uint16_t payload_bytes);

  [[nodiscard]] const ParserStats& stats() const noexcept { return stats_; }

 private:
  /// Whether `vnid` names a VN of this router; counts a bad_vnid drop when
  /// it does not.
  [[nodiscard]] bool known_vn(net::VnId vnid) noexcept;

  [[nodiscard]] std::optional<ParsedPacket> accept_validated(
      net::VnId vnid, const net::Ipv4Header& header,
      std::uint16_t payload_bytes);

  std::size_t vn_count_;
  ParserStats stats_;
};

}  // namespace vr::dataplane
