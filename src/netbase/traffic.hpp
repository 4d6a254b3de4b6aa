// Packet-trace generation with per-virtual-network utilization and duty
// cycle — the workload model of the paper's Assumptions 1 and 3 plus the
// Sec. IV clock-gating discussion (idle periods consume no dynamic power).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "netbase/routing_table.hpp"

namespace vr::net {

/// Virtual-network identifier (VNID). The paper indexes leaf vectors by
/// VNID in the merged scheme.
using VnId = std::uint16_t;

/// A lookup request: destination address tagged with its virtual network.
struct Packet {
  Ipv4 addr;
  VnId vnid = 0;

  friend bool operator==(const Packet&, const Packet&) = default;
};

/// A packet bound to the cycle at which it arrives at the lookup engine.
struct TimedPacket {
  std::uint64_t cycle = 0;
  Packet packet;

  friend bool operator==(const TimedPacket&, const TimedPacket&) = default;
};

/// Configuration of the arrival process.
struct TrafficConfig {
  /// Number of clock cycles to generate for.
  std::uint64_t cycles = 100000;

  /// Probability that a new packet arrives in an "on" cycle (aggregate
  /// offered load, 1.0 = one packet per cycle, the pipeline's capacity).
  double load = 1.0;

  /// Duty cycle: arrivals only occur during the first
  /// `duty_on_fraction * duty_period` cycles of every period. 1.0 = always
  /// on. Models the low-duty edge-network behaviour of Sec. I.
  double duty_on_fraction = 1.0;
  std::uint64_t duty_period = 1000;

  /// Relative traffic share per virtual network (the paper's µ_i, up to
  /// normalization). Empty means uniform (Assumption 1).
  std::vector<double> vn_weights;

  /// Per-VN duty-phase offsets as fractions of duty_period. When set
  /// (size = VN count), each VN is only "on" during
  /// [offset, offset + duty_on_fraction) of the period (wrapping), and a
  /// cycle's packet is drawn among the currently-on VNs — the staggered
  /// edge-network peaks that make time-sharing (the merged scheme) work.
  /// Empty = one global duty window (the default behaviour).
  std::vector<double> vn_phase_offsets;

  /// Markov-modulated on/off burstiness: when both means are positive an
  /// independent two-state process gates all arrivals; on/off run lengths
  /// are geometric with the given means, so the long-run on fraction is
  /// mean_on / (mean_on + mean_off). Zero disables the process — and, by
  /// contract, draws no randoms, so default traces are byte-identical to
  /// pre-burst builds. The burst process uses its own derived stream; the
  /// arrival stream is untouched either way.
  double burst_mean_on_cycles = 0.0;
  double burst_mean_off_cycles = 0.0;

  /// Diurnal load modulation: when period > 0 and depth > 0 the per-cycle
  /// load is scaled by 1 - depth·(1 - cos(2π·cycle/period))/2 — full load
  /// at each period start, (1-depth)·load in the trough, mean factor
  /// 1 - depth/2. Deterministic: no extra randoms.
  std::uint64_t diurnal_period = 0;
  double diurnal_depth = 0.0;
};

/// Canonical trace shapes of the activity-vs-µ validation experiment
/// (EXPERIMENTS.md): the µ-model compresses each VN's behaviour into one
/// utilization scalar; these shapes stress exactly what that compression
/// loses.
enum class TraceShape : std::uint8_t {
  kUniform,  ///< stationary uniform load — the µ-model's home turf
  kBursty,   ///< Markov on/off bursts at the same mean load
  kDiurnal,  ///< slow sinusoidal load swing
  kSkewed,   ///< geometric per-VN share skew (VN 0 dominates)
};

[[nodiscard]] const char* to_string(TraceShape shape) noexcept;

/// Builds the canonical TrafficConfig for a shape: every shape offers the
/// same nominal aggregate load so the µ-model sees the same scalar, and
/// only the arrival structure differs.
[[nodiscard]] TrafficConfig make_shaped_config(TraceShape shape,
                                               std::uint64_t cycles,
                                               double load,
                                               std::size_t vn_count);

/// The per-VN mean offered load (packets/cycle) a config promises — the
/// nominal µ_i a capacity planner would feed the analytical model: duty,
/// burst duty and mean diurnal factor applied to each VN's share. Actual
/// traces fluctuate around it; the activity backend measures the
/// difference.
[[nodiscard]] std::vector<double> nominal_utilization(
    const TrafficConfig& config, std::size_t vn_count);

/// Generates traces whose destination addresses are sampled from the routes
/// of the owning virtual network (so every lookup matches), with host bits
/// randomized.
class TrafficGenerator {
 public:
  /// `tables[v]` is the routing table of virtual network v. At least one
  /// table, none empty.
  TrafficGenerator(TrafficConfig config,
                   std::vector<const RoutingTable*> tables);

  /// Produces a deterministic trace for the given seed.
  [[nodiscard]] std::vector<TimedPacket> generate(std::uint64_t seed) const;

  /// Draws one in-table destination address for virtual network `vn`.
  [[nodiscard]] Packet sample_packet(Rng& rng, VnId vn) const;

  [[nodiscard]] const TrafficConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t vn_count() const noexcept {
    return tables_.size();
  }

 private:
  TrafficConfig config_;
  std::vector<const RoutingTable*> tables_;
  std::vector<double> weights_;  // normalized per-VN probabilities
};

}  // namespace vr::net
