#include "dataplane/frame_gen.hpp"

#include "common/error.hpp"

namespace vr::dataplane {

FrameGenerator::FrameGenerator(FrameGenConfig config,
                               std::vector<const net::RoutingTable*> tables)
    : config_(std::move(config)),
      traffic_(config_.traffic, std::move(tables)) {
  VR_REQUIRE(config_.corrupt_fraction >= 0.0 &&
                 config_.corrupt_fraction <= 1.0,
             "corrupt_fraction must be in [0,1]");
  VR_REQUIRE(config_.expiring_ttl_fraction >= 0.0 &&
                 config_.expiring_ttl_fraction <= 1.0,
             "expiring_ttl_fraction must be in [0,1]");
  VR_REQUIRE(!config_.payload_sizes.empty() &&
                 config_.payload_sizes.size() ==
                     config_.payload_weights.size(),
             "payload size/weight lists must be non-empty and equal");
  // total_length is a 16-bit wire field holding header + payload; a
  // payload above 65515 would silently wrap it and every downstream
  // consumer (parser, scheduler byte accounting, activity counters)
  // would see a tiny frame instead of a jumbo one.
  for (const std::uint16_t size : config_.payload_sizes) {
    VR_REQUIRE(size <= kMaxPayloadBytes,
               "payload size overflows the 16-bit total_length field");
  }
}

std::uint64_t FrameGenerator::derive_seed(std::uint64_t scenario_seed,
                                          std::uint64_t salt) noexcept {
  SplitMix64 sm(scenario_seed);
  return SplitMix64(sm.next() ^ salt).next();
}

std::vector<IngressFrame> FrameGenerator::generate(std::uint64_t seed) const {
  // Expand the caller's seed into independent sub-streams with SplitMix64
  // (the library's documented seeding discipline) instead of the ad-hoc
  // XOR this used: XORing a structured seed (e.g. scenario.seed + vn) with
  // a small constant produces correlated header streams across VNs.
  SplitMix64 sm(seed);
  const std::uint64_t traffic_seed = sm.next();
  const std::uint64_t header_seed = sm.next();
  const auto timed = traffic_.generate(traffic_seed);
  Rng rng(header_seed);
  std::vector<IngressFrame> frames;
  frames.reserve(timed.size());
  std::uint16_t next_id = 0;
  for (const net::TimedPacket& tp : timed) {
    IngressFrame frame;
    frame.cycle = tp.cycle;
    frame.vnid = tp.packet.vnid;
    frame.payload_bytes = config_.payload_sizes[rng.next_weighted(
        config_.payload_weights.data(), config_.payload_weights.size())];

    net::Ipv4Header& header = frame.header;
    header.destination = tp.packet.addr;
    header.source =
        // narrow-ok: deliberate truncation to the low 32 bits of the
        // u64 stream (uniform over the IPv4 space)
        net::Ipv4(static_cast<std::uint32_t>(rng.next_u64()));
    // narrow-ok: next_below(4) << 3 is at most 24
    header.dscp = static_cast<std::uint8_t>(rng.next_below(4) << 3);
    header.identification = next_id++;
    // narrow-ok: ctor requires payload <= kMaxPayloadBytes, so the sum
    // fits the 16-bit wire field
    header.total_length = static_cast<std::uint16_t>(
        net::Ipv4Header::kSize + frame.payload_bytes);
    // narrow-ok: both branches are bounded by 64
    header.ttl = static_cast<std::uint8_t>(
        rng.next_bool(config_.expiring_ttl_fraction) ? rng.next_below(2)
                                                     : rng.next_in(2, 64));
    header.checksum = header.compute_checksum();
    if (rng.next_bool(config_.corrupt_fraction)) {
      // narrow-ok: uint16 ^ uint16 after integer promotion, < 2^16
      header.checksum = static_cast<std::uint16_t>(header.checksum ^ 0x5555);
    }
    frames.push_back(frame);
  }
  return frames;
}

std::uint64_t drain_bound_cycles(const std::vector<IngressFrame>& frames,
                                 double bytes_per_cycle) {
  std::uint64_t bytes = 0;
  for (const IngressFrame& frame : frames) {
    bytes += net::Ipv4Header::kSize + frame.payload_bytes;
  }
  return 10000 + 200 * frames.size() +
         static_cast<std::uint64_t>(static_cast<double>(bytes) /
                                    bytes_per_cycle);
}

}  // namespace vr::dataplane
