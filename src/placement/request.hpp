// VN request stream for the placement controller: a seeded, reproducible
// sequence of virtual-network arrivals (prefix-table size, offered load,
// SLA class, optional departure time). The stream is the experiment input
// of the competitive-ratio study — same seed, same requests, bit-identical
// controller output — so everything here is integer-quantized and driven
// by vr::Rng only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace vr::placement {

/// Service class of a VN, in increasing strictness. Gold tenants demand a
/// dedicated engine (never the time-shared merged trie) and a floor on the
/// operating clock; silver demands only the clock floor; bronze takes
/// whatever fits.
enum class SlaClass : std::uint8_t { kBronze = 0, kSilver = 1, kGold = 2 };

[[nodiscard]] constexpr const char* to_string(SlaClass sla) noexcept {
  switch (sla) {
    case SlaClass::kBronze:
      return "bronze";
    case SlaClass::kSilver:
      return "silver";
    case SlaClass::kGold:
      return "gold";
  }
  return "?";
}

/// Utilizations are quantized to multiples of 1/kMuQuantum so that sums
/// over co-located VNs stay exact integers (no float drift in the fleet's
/// shape index) and the oracle's memoization key space stays small.
inline constexpr std::uint32_t kMuQuantum = 32;

/// One VN arrival. Ticks are the request sequence numbers (one arrival per
/// tick); departure_tick == 0 means the VN never leaves.
struct VnRequest {
  std::uint64_t id = 0;
  std::uint64_t arrival_tick = 0;
  std::uint64_t departure_tick = 0;
  std::size_t prefix_count = 0;  ///< requested FIB size (routes)
  std::uint32_t mu_q = 1;        ///< offered load, in 1/kMuQuantum units
  SlaClass sla = SlaClass::kBronze;

  [[nodiscard]] double utilization() const noexcept {
    return static_cast<double>(mu_q) / static_cast<double>(kMuQuantum);
  }
};

/// Table-size classes: class c draws prefix counts around
/// kBasePrefixCount * 2^c, with small classes geometrically more
/// common (weight 2^(classes-1-c)) — edge tenants dominate.
inline constexpr std::size_t kBasePrefixCount = 400;
/// Offered load µ is uniform over {1, ..., kMuLevels}/kMuQuantum.
inline constexpr std::uint32_t kMuLevels = 12;
static_assert(kMuLevels >= 1 && kMuLevels <= kMuQuantum,
              "kMuLevels must be in [1, kMuQuantum]");
/// Shares of gold and silver requests; the rest are bronze.
inline constexpr double kGoldFraction = 0.10;
inline constexpr double kSilverFraction = 0.30;

struct RequestStreamConfig {
  std::uint64_t seed = 1;
  /// Mean VN lifetime in ticks (uniform over [1, 2*mean]); 0 = VNs are
  /// permanent and the run is pure accumulation.
  std::uint64_t mean_holding_ticks = 0;
};

/// Generates VnRequests one at a time (no O(run) allocation for the
/// million-request benches). Deterministic: the n-th request depends only
/// on (config, n).
class RequestStream {
 public:
  explicit RequestStream(RequestStreamConfig config);

  [[nodiscard]] VnRequest next();

  [[nodiscard]] const RequestStreamConfig& config() const noexcept {
    return config_;
  }

 private:
  RequestStreamConfig config_;
  Rng rng_;
  std::vector<double> size_weights_;
  std::uint64_t next_id_ = 0;
};

/// Materializes the first `count` requests of a stream (test convenience).
[[nodiscard]] std::vector<VnRequest> generate_requests(
    const RequestStreamConfig& config, std::size_t count);

}  // namespace vr::placement
