// Byte-level IPv4 packets: header serialization, Internet checksum, and
// the RFC 1624 incremental checksum update used by the header-editing
// stage of the full router data plane (paper Sec. VI-A names "parsing,
// lookup, editing, scheduling" as the complete-router stages).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netbase/ipv4.hpp"

namespace vr::net {

/// Minimal IPv4 header (no options, IHL = 5).
struct Ipv4Header {
  static constexpr std::size_t kSize = 20;

  std::uint8_t dscp = 0;          ///< DiffServ code point (QoS class)
  std::uint16_t total_length = kSize;
  std::uint16_t identification = 0;
  /// Flags and fragment offset (wire bytes 6-7), kept as one word so the
  /// checksum covers them; fragmentation itself is not modelled.
  std::uint16_t flags_fragment = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 17;     ///< UDP by default
  std::uint16_t checksum = 0;     ///< as stored on the wire
  Ipv4 source;
  Ipv4 destination;

  /// Serializes to 20 network-order bytes with the given checksum field.
  [[nodiscard]] std::array<std::uint8_t, kSize> serialize() const;

  /// Computes the correct header checksum for the current fields
  /// (independently of the `checksum` member).
  [[nodiscard]] std::uint16_t compute_checksum() const;

  /// Serializes with a freshly computed checksum.
  [[nodiscard]] std::array<std::uint8_t, kSize> serialize_with_checksum()
      const;

  /// Parses 20+ bytes; nullopt if the version/IHL are unsupported or the
  /// buffer is short. Does NOT verify the checksum (see verify_checksum).
  static std::optional<Ipv4Header> parse(
      std::span<const std::uint8_t> bytes);

  /// True if the stored checksum matches the header fields.
  [[nodiscard]] bool verify_checksum() const {
    return checksum == compute_checksum();
  }

  /// Decrements TTL and applies the RFC 1624 incremental checksum update
  /// (the hardware-friendly editing operation: no full recompute).
  /// Returns false (and leaves the header untouched) if TTL is already 0.
  bool decrement_ttl();
};

/// Internet checksum (RFC 1071) over a byte span, as used by IPv4.
[[nodiscard]] std::uint16_t internet_checksum(
    std::span<const std::uint8_t> bytes);

/// A wire packet: header plus an opaque payload length (contents are not
/// modelled; the data plane only needs sizes).
struct WirePacket {
  Ipv4Header header;
  std::uint16_t payload_bytes = 20;  ///< 40 B minimum packet total

  [[nodiscard]] std::size_t total_bytes() const noexcept {
    return Ipv4Header::kSize + payload_bytes;
  }
};

}  // namespace vr::net
