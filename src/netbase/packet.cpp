#include "netbase/packet.hpp"

namespace vr::net {

namespace {

void put_u16(std::uint8_t* out, std::uint16_t value) {
  out[0] = static_cast<std::uint8_t>(value >> 8);
  out[1] = static_cast<std::uint8_t>(value & 0xff);
}

void put_u32(std::uint8_t* out, std::uint32_t value) {
  out[0] = static_cast<std::uint8_t>(value >> 24);
  out[1] = static_cast<std::uint8_t>(value >> 16);
  out[2] = static_cast<std::uint8_t>(value >> 8);
  out[3] = static_cast<std::uint8_t>(value & 0xff);
}

std::uint16_t get_u16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>((in[0] << 8) | in[1]);
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return (std::uint32_t{in[0]} << 24) | (std::uint32_t{in[1]} << 16) |
         (std::uint32_t{in[2]} << 8) | std::uint32_t{in[3]};
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < bytes.size(); i += 2) {
    sum += get_u16(bytes.data() + i);
  }
  if (i < bytes.size()) {
    sum += static_cast<std::uint32_t>(bytes[i]) << 8;
  }
  while ((sum >> 16) != 0) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::array<std::uint8_t, Ipv4Header::kSize> Ipv4Header::serialize() const {
  std::array<std::uint8_t, kSize> out{};
  out[0] = 0x45;  // version 4, IHL 5
  out[1] = dscp;
  put_u16(&out[2], total_length);
  put_u16(&out[4], identification);
  put_u16(&out[6], flags_fragment);
  out[8] = ttl;
  out[9] = protocol;
  put_u16(&out[10], checksum);
  put_u32(&out[12], source.value());
  put_u32(&out[16], destination.value());
  return out;
}

std::uint16_t Ipv4Header::compute_checksum() const {
  Ipv4Header zeroed = *this;
  zeroed.checksum = 0;
  const auto bytes = zeroed.serialize();
  return internet_checksum(bytes);
}

std::array<std::uint8_t, Ipv4Header::kSize>
Ipv4Header::serialize_with_checksum() const {
  Ipv4Header filled = *this;
  filled.checksum = filled.compute_checksum();
  return filled.serialize();
}

std::optional<Ipv4Header> Ipv4Header::parse(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kSize) return std::nullopt;
  if (bytes[0] != 0x45) return std::nullopt;  // only version 4, IHL 5
  Ipv4Header header;
  header.dscp = bytes[1];
  header.total_length = get_u16(bytes.data() + 2);
  header.identification = get_u16(bytes.data() + 4);
  header.flags_fragment = get_u16(bytes.data() + 6);
  header.ttl = bytes[8];
  header.protocol = bytes[9];
  header.checksum = get_u16(bytes.data() + 10);
  header.source = Ipv4(get_u32(bytes.data() + 12));
  header.destination = Ipv4(get_u32(bytes.data() + 16));
  if (header.total_length < kSize) return std::nullopt;
  return header;
}

bool Ipv4Header::decrement_ttl() {
  if (ttl == 0) return false;
  // RFC 1624 incremental update: HC' = ~(~HC + ~m + m'), where the changed
  // 16-bit field is the (TTL, protocol) word.
  const std::uint16_t old_word =
      static_cast<std::uint16_t>((ttl << 8) | protocol);
  --ttl;
  const std::uint16_t new_word =
      static_cast<std::uint16_t>((ttl << 8) | protocol);
  std::uint32_t sum = static_cast<std::uint16_t>(~checksum & 0xffff);
  sum += static_cast<std::uint16_t>(~old_word & 0xffff);
  sum += new_word;
  while ((sum >> 16) != 0) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  checksum = static_cast<std::uint16_t>(~sum & 0xffff);
  return true;
}

}  // namespace vr::net
