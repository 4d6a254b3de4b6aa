#include "dataplane/parser.hpp"

namespace vr::dataplane {

bool Parser::known_vn(net::VnId vnid) noexcept {
  if (vnid < vn_count_) return true;
  ++stats_.bad_vnid;
  return false;
}

std::optional<ParsedPacket> Parser::parse(
    net::VnId vnid, std::span<const std::uint8_t> bytes) {
  if (!known_vn(vnid)) return std::nullopt;
  const auto header = net::Ipv4Header::parse(bytes);
  if (!header) {
    ++stats_.malformed;
    return std::nullopt;
  }
  if (!header->verify_checksum()) {
    ++stats_.bad_checksum;
    return std::nullopt;
  }
  // narrow-ok: Ipv4Header::parse rejects total_length < kSize, so the
  // difference is a non-negative value below 2^16
  const auto payload = static_cast<std::uint16_t>(
      header->total_length - net::Ipv4Header::kSize);
  return accept_validated(vnid, *header, payload);
}

std::optional<ParsedPacket> Parser::accept(net::VnId vnid,
                                           const net::Ipv4Header& header,
                                           std::uint16_t payload_bytes) {
  if (!known_vn(vnid)) return std::nullopt;
  if (!header.verify_checksum()) {
    ++stats_.bad_checksum;
    return std::nullopt;
  }
  return accept_validated(vnid, header, payload_bytes);
}

std::optional<ParsedPacket> Parser::accept_validated(
    net::VnId vnid, const net::Ipv4Header& header,
    std::uint16_t payload_bytes) {
  // A router decrements TTL before forwarding; packets arriving with
  // TTL <= 1 cannot be forwarded.
  if (header.ttl <= 1) {
    ++stats_.ttl_expired;
    return std::nullopt;
  }
  ++stats_.accepted;
  ParsedPacket out;
  out.vnid = vnid;
  out.header = header;
  out.payload_bytes = payload_bytes;
  return out;
}

}  // namespace vr::dataplane
