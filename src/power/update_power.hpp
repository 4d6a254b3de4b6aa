// Update-rate power and throughput model.
//
// Table III's BRAM coefficients were measured at a 1 % write rate
// (Sec. V-B, "low update rate"). This model quantifies what happens when
// the control plane pushes more updates: each update writes a number of
// node words (trie::UpdateCost), every write occupies a pipeline slot that
// a lookup cannot use, and BRAM dynamic power shifts with the write rate.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "fpga/bram.hpp"
#include "trie/updatable_trie.hpp"

namespace vr::power {

/// Steady-state write statistics of an update stream against a deployment.
struct UpdateLoad {
  double updates_per_second = 0.0;
  /// Average node words written per update (from trie::UpdateCost).
  double words_per_update = 0.0;

  /// Writes per second hitting the memories.
  [[nodiscard]] double writes_per_second() const noexcept {
    return updates_per_second * words_per_update;
  }
  /// Fraction of clock cycles consumed by writes (one write port: each
  /// write occupies one cycle of one stage; normalized to the engine's
  /// issue slots).
  [[nodiscard]] double write_slot_fraction(units::Megahertz freq)
      const noexcept {
    if (freq <= units::Megahertz{0.0}) return 0.0;
    return writes_per_second() / (freq.value() * 1e6);
  }
};

/// BRAM power adjusted from the Table III baseline to an actual write
/// rate: P' = P * (1 + sensitivity * (rate - baseline)).
[[nodiscard]] units::Watts adjusted_bram_power_w(units::Watts table3_power,
                                                 double write_rate);

/// Effective lookup capacity after update writes steal issue slots:
/// capacity = (1 - write_slot_fraction) * line_rate.
[[nodiscard]] units::Gbps effective_lookup_gbps(units::Megahertz freq,
                                                const UpdateLoad& load);

/// Mean words per update measured by replaying `updates` on a copy of the
/// deployment trie.
[[nodiscard]] UpdateLoad measure_update_load(
    const net::RoutingTable& base,
    const std::vector<net::RouteUpdate>& updates, double updates_per_second);

}  // namespace vr::power
