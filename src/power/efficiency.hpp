// Power-efficiency metric (Sec. VI-B): milliwatts per Gbps of lookup
// capacity — "the lower the mW/Gbps number is, the better".
#pragma once

#include "common/units.hpp"

namespace vr::power {

/// mW per Gbps of total power over aggregate throughput. A deployment with
/// no capacity has no meaningful efficiency; it reports zero.
[[nodiscard]] constexpr units::MwPerGbps mw_per_gbps(
    units::Watts power, units::Gbps throughput) noexcept {
  return throughput <= units::Gbps{0.0}
             ? units::MwPerGbps{0.0}
             : units::to_milliwatts(power) / throughput;
}

}  // namespace vr::power
