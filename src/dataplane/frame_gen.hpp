// Ingress frame generation for the full-router data plane: byte-accurate
// IPv4 headers with valid checksums (and a configurable fraction of
// corrupted ones to exercise the parser's drop paths), IMIX-like payload
// sizes, per-VN traffic shares and duty cycling.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "netbase/packet.hpp"
#include "netbase/traffic.hpp"

namespace vr::dataplane {

/// One frame arriving at the router.
struct IngressFrame {
  std::uint64_t cycle = 0;
  net::VnId vnid = 0;
  net::Ipv4Header header;
  std::uint16_t payload_bytes = 0;
};

/// Largest payload that still fits the 16-bit IPv4 total_length field
/// next to the 20-byte header. FrameGenerator rejects configs above it.
inline constexpr std::uint16_t kMaxPayloadBytes = 0xffff -
                                                  net::Ipv4Header::kSize;

/// Progress bound of a data-plane run: cycles after the last arrival by which
/// `frames` must have drained. 10,000 plus 200 per frame plus every
/// frame's serialization time at `bytes_per_cycle`; a drained run never
/// comes close, so reaching it means the data plane deadlocked.
[[nodiscard]] std::uint64_t drain_bound_cycles(
    const std::vector<IngressFrame>& frames, double bytes_per_cycle);

struct FrameGenConfig {
  net::TrafficConfig traffic;
  /// Probability of a corrupted checksum (parser must drop).
  double corrupt_fraction = 0.0;
  /// Probability of an arriving TTL <= 1 (parser must drop).
  double expiring_ttl_fraction = 0.0;
  /// IMIX-ish payload sizes (bytes, <= kMaxPayloadBytes each) and their
  /// weights.
  std::vector<std::uint16_t> payload_sizes = {20, 556, 1480};
  std::vector<double> payload_weights = {7.0, 4.0, 1.0};
};

class FrameGenerator {
 public:
  /// `tables[v]` sources VN v's destination addresses (all lookups hit).
  FrameGenerator(FrameGenConfig config,
                 std::vector<const net::RoutingTable*> tables);

  [[nodiscard]] std::vector<IngressFrame> generate(std::uint64_t seed) const;

  /// Derives an independent frame-stream seed from a scenario seed and a
  /// stream salt (e.g. a run index) via SplitMix64 — the library's seeding
  /// discipline. Replaces ad-hoc `scenario.seed + k` arithmetic, whose
  /// nearby seeds produce correlated xoshiro streams.
  [[nodiscard]] static std::uint64_t derive_seed(std::uint64_t scenario_seed,
                                                 std::uint64_t salt) noexcept;

  [[nodiscard]] const FrameGenConfig& config() const noexcept {
    return config_;
  }

 private:
  FrameGenConfig config_;
  net::TrafficGenerator traffic_;
};

}  // namespace vr::dataplane
