#include "netbase/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace vr::net {

const char* to_string(TraceShape shape) noexcept {
  switch (shape) {
    case TraceShape::kUniform: return "uniform";
    case TraceShape::kBursty: return "bursty";
    case TraceShape::kDiurnal: return "diurnal";
    case TraceShape::kSkewed: return "skewed";
  }
  return "?";
}

TrafficConfig make_shaped_config(TraceShape shape, std::uint64_t cycles,
                                 double load, std::size_t vn_count) {
  TrafficConfig config;
  config.cycles = cycles;
  config.load = load;
  switch (shape) {
    case TraceShape::kUniform:
      break;
    case TraceShape::kBursty:
      // 25% burst duty at 4x the in-burst intensity keeps the mean load
      // equal to the uniform shape (clamped to the 1-packet/cycle line
      // rate — saturation during bursts is part of the shape).
      config.load = std::min(1.0, 4.0 * load);
      config.burst_mean_on_cycles = 200.0;
      config.burst_mean_off_cycles = 600.0;
      break;
    case TraceShape::kDiurnal:
      // Full swing from `load` at the peak to 0.2·load in the trough;
      // mean factor 0.6. Compensate so the mean matches uniform.
      config.load = std::min(1.0, load / 0.6);
      config.diurnal_period = 5000;
      config.diurnal_depth = 0.8;
      break;
    case TraceShape::kSkewed: {
      // Geometric 2^-i shares: VN 0 carries half the traffic.
      config.vn_weights.resize(vn_count);
      double weight = 1.0;
      for (std::size_t v = 0; v < vn_count; ++v, weight *= 0.5) {
        config.vn_weights[v] = weight;
      }
      break;
    }
  }
  return config;
}

std::vector<double> nominal_utilization(const TrafficConfig& config,
                                        std::size_t vn_count) {
  VR_REQUIRE(vn_count >= 1, "need at least one VN");
  const bool bursty = config.burst_mean_on_cycles > 0.0 &&
                      config.burst_mean_off_cycles > 0.0;
  const double burst_duty =
      bursty ? config.burst_mean_on_cycles /
                   (config.burst_mean_on_cycles + config.burst_mean_off_cycles)
             : 1.0;
  const double diurnal_mean =
      (config.diurnal_period > 0 && config.diurnal_depth > 0.0)
          ? 1.0 - config.diurnal_depth / 2.0
          : 1.0;
  const double base =
      config.load * config.duty_on_fraction * burst_duty * diurnal_mean;
  std::vector<double> mu(vn_count, 0.0);
  if (!config.vn_phase_offsets.empty()) {
    // Phased: every VN offers independently at `load` during its own
    // window of duty_on_fraction of the period.
    for (double& u : mu) u = std::min(1.0, base);
    return mu;
  }
  double total = 0.0;
  if (config.vn_weights.empty()) {
    mu.assign(vn_count, std::min(1.0, base / static_cast<double>(vn_count)));
    return mu;
  }
  VR_REQUIRE(config.vn_weights.size() == vn_count,
             "vn_weights size must match vn_count");
  for (const double w : config.vn_weights) total += w;
  VR_REQUIRE(total > 0.0, "vn weights must not all be zero");
  for (std::size_t v = 0; v < vn_count; ++v) {
    mu[v] = std::min(1.0, base * config.vn_weights[v] / total);
  }
  return mu;
}

TrafficGenerator::TrafficGenerator(TrafficConfig config,
                                   std::vector<const RoutingTable*> tables)
    : config_(std::move(config)), tables_(std::move(tables)) {
  VR_REQUIRE(!tables_.empty(), "need at least one virtual network table");
  for (const RoutingTable* table : tables_) {
    VR_REQUIRE(table != nullptr, "null routing table");
    VR_REQUIRE(!table->empty(), "empty routing table cannot source traffic");
  }
  VR_REQUIRE(config_.load >= 0.0 && config_.load <= 1.0,
             "load must be in [0,1]");
  VR_REQUIRE(config_.duty_on_fraction >= 0.0 && config_.duty_on_fraction <= 1.0,
             "duty_on_fraction must be in [0,1]");
  VR_REQUIRE(config_.duty_period > 0, "duty_period must be positive");
  if (!config_.vn_phase_offsets.empty()) {
    VR_REQUIRE(config_.vn_phase_offsets.size() == tables_.size(),
               "vn_phase_offsets size must match the number of tables");
    for (const double offset : config_.vn_phase_offsets) {
      VR_REQUIRE(offset >= 0.0 && offset < 1.0,
                 "phase offsets must be in [0,1)");
    }
  }
  VR_REQUIRE(config_.burst_mean_on_cycles >= 0.0 &&
                 config_.burst_mean_off_cycles >= 0.0,
             "burst run-length means must be non-negative");
  VR_REQUIRE((config_.burst_mean_on_cycles > 0.0) ==
                 (config_.burst_mean_off_cycles > 0.0),
             "burst on/off means must both be set or both be zero");
  VR_REQUIRE(config_.diurnal_depth >= 0.0 && config_.diurnal_depth <= 1.0,
             "diurnal_depth must be in [0,1]");
  if (config_.diurnal_depth > 0.0) {
    VR_REQUIRE(config_.diurnal_period > 0,
               "diurnal modulation needs a positive period");
  }

  if (config_.vn_weights.empty()) {
    weights_.assign(tables_.size(), 1.0 / static_cast<double>(tables_.size()));
  } else {
    VR_REQUIRE(config_.vn_weights.size() == tables_.size(),
               "vn_weights size must match the number of tables");
    double total = 0.0;
    for (double w : config_.vn_weights) {
      VR_REQUIRE(w >= 0.0, "vn weights must be non-negative");
      total += w;
    }
    VR_REQUIRE(total > 0.0, "vn weights must not all be zero");
    weights_.reserve(config_.vn_weights.size());
    for (double w : config_.vn_weights) weights_.push_back(w / total);
  }
}

Packet TrafficGenerator::sample_packet(Rng& rng, VnId vn) const {
  const RoutingTable& table = *tables_[vn];
  const auto routes = table.routes();
  const Route& route = routes[rng.next_below(routes.size())];
  const unsigned host_bits = 32u - route.prefix.length();
  std::uint32_t addr = route.prefix.address().value();
  if (host_bits > 0) {
    const std::uint64_t space = std::uint64_t{1} << host_bits;
    addr |= static_cast<std::uint32_t>(rng.next_below(space));
  }
  return Packet{Ipv4(addr), vn};
}

std::vector<TimedPacket> TrafficGenerator::generate(
    std::uint64_t seed) const {
  Rng rng(seed);
  std::vector<TimedPacket> trace;
  trace.reserve(static_cast<std::size_t>(
      static_cast<double>(config_.cycles) * config_.load *
          config_.duty_on_fraction +
      16.0));
  const auto on_cycles = static_cast<std::uint64_t>(
      std::llround(config_.duty_on_fraction *
                   static_cast<double>(config_.duty_period)));
  const bool phased = !config_.vn_phase_offsets.empty();

  // The burst process draws from its own derived stream so that disabling
  // it (the default) leaves the arrival stream byte-identical.
  const bool bursty = config_.burst_mean_on_cycles > 0.0;
  Rng burst_rng(SplitMix64(seed ^ 0x6275727374ULL).next());
  bool burst_on = true;
  const double p_burst_off =
      bursty ? 1.0 / config_.burst_mean_on_cycles : 0.0;
  const double p_burst_on =
      bursty ? 1.0 / config_.burst_mean_off_cycles : 0.0;
  const bool diurnal =
      config_.diurnal_period > 0 && config_.diurnal_depth > 0.0;
  constexpr double kTau = 6.283185307179586;

  for (std::uint64_t cycle = 0; cycle < config_.cycles; ++cycle) {
    if (bursty) {
      burst_on = burst_on ? !burst_rng.next_bool(p_burst_off)
                          : burst_rng.next_bool(p_burst_on);
      if (!burst_on) continue;
    }
    // Deterministic diurnal swing: scale == 1.0 when disabled, so the
    // Bernoulli draw below is bit-identical to the unmodulated build.
    double load_scale = 1.0;
    if (diurnal) {
      const double diurnal_phase =
          static_cast<double>(cycle % config_.diurnal_period) /
          static_cast<double>(config_.diurnal_period);
      load_scale = 1.0 - config_.diurnal_depth *
                             (1.0 - std::cos(kTau * diurnal_phase)) / 2.0;
    }
    const std::uint64_t phase = cycle % config_.duty_period;
    if (!phased) {
      if (phase >= on_cycles) continue;
      if (!rng.next_bool(config_.load * load_scale)) continue;
      const auto vn = static_cast<VnId>(
          rng.next_weighted(weights_.data(), weights_.size()));
      trace.push_back(TimedPacket{cycle, sample_packet(rng, vn)});
      continue;
    }
    // Staggered windows: a VN is on when the cycle's phase falls in its
    // own (wrapping) window. Each ON tenant offers traffic INDEPENDENTLY
    // at `load` packets/cycle, so coinciding peaks genuinely overload a
    // single time-shared engine (several packets may share a cycle; the
    // router's injection queue absorbs them).
    for (std::size_t v = 0; v < weights_.size(); ++v) {
      const auto start = static_cast<std::uint64_t>(std::llround(
          config_.vn_phase_offsets[v] *
          static_cast<double>(config_.duty_period)));
      const std::uint64_t rel =
          (phase + config_.duty_period - start % config_.duty_period) %
          config_.duty_period;
      if (rel >= on_cycles) continue;
      if (!rng.next_bool(config_.load * load_scale)) continue;
      trace.push_back(TimedPacket{
          cycle, sample_packet(rng, static_cast<VnId>(v))});
    }
  }
  return trace;
}

}  // namespace vr::net
