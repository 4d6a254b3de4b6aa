#include "placement/request.hpp"

namespace vr::placement {

/// Number of table-size classes (see kBasePrefixCount).
constexpr std::size_t kSizeClasses = 4;

RequestStream::RequestStream(RequestStreamConfig config)
    : config_(config), rng_(SplitMix64(config.seed ^ 0x9e3779b97f4a7c15ULL)
                                .next()) {
  size_weights_.reserve(kSizeClasses);
  for (std::size_t c = 0; c < kSizeClasses; ++c) {
    size_weights_.push_back(static_cast<double>(
        std::uint64_t{1} << (kSizeClasses - 1 - c)));
  }
}

VnRequest RequestStream::next() {
  VnRequest request;
  request.id = next_id_;
  request.arrival_tick = next_id_;
  ++next_id_;

  const std::size_t size_class =
      rng_.next_weighted(size_weights_.data(), size_weights_.size());
  const std::size_t base = kBasePrefixCount << size_class;
  // Jitter keeps prefix counts off the oracle's bucket boundaries, so the
  // bucket_for rounding path is exercised on every request.
  request.prefix_count = base + rng_.next_below(base / 2 + 1);

  request.mu_q = static_cast<std::uint32_t>(rng_.next_in(1, kMuLevels));

  const double sla_draw = rng_.next_double();
  if (sla_draw < kGoldFraction) {
    request.sla = SlaClass::kGold;
  } else if (sla_draw < kGoldFraction + kSilverFraction) {
    request.sla = SlaClass::kSilver;
  } else {
    request.sla = SlaClass::kBronze;
  }

  if (config_.mean_holding_ticks > 0) {
    // Uniform over [1, 2*mean]: integer-only, mean ≈ mean_holding_ticks,
    // and reproducible on every platform (no transcendental sampling).
    const std::uint64_t holding =
        rng_.next_in(1, 2 * config_.mean_holding_ticks);
    request.departure_tick = request.arrival_tick + holding;
  }
  return request;
}

std::vector<VnRequest> generate_requests(const RequestStreamConfig& config,
                                         std::size_t count) {
  RequestStream stream(config);
  std::vector<VnRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) requests.push_back(stream.next());
  return requests;
}

}  // namespace vr::placement
