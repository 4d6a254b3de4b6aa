// Achievable-clock model.
//
// The paper observes (Sec. VI-B) that the merged scheme's operating
// frequency "decreases significantly" as virtual networks are added,
// because wide per-stage memories congest routing; the separate scheme is
// only mildly affected (its pipelines are small and identical). We model
// post-place-and-route Fmax as the base grade Fmax divided by a congestion
// factor driven by (a) the widest single-stage BRAM footprint and (b) the
// overall device BRAM utilization. Both the analytical model and the PnR
// simulator evaluate the same frequency (the paper's model likewise uses
// the implementation's operating frequency — its coefficients are ·f).
#pragma once

#include "common/units.hpp"
#include "fpga/bram.hpp"
#include "fpga/device.hpp"

namespace vr::fpga {

/// Resource summary of a placed design, as needed by the clock model.
struct DesignResources {
  /// Widest single-stage footprint across all pipelines, in 36 Kb
  /// equivalents.
  double max_stage_blocks36eq = 0.0;
  /// Total BRAM halves used across the design.
  std::uint64_t bram_halves = 0;
  /// Number of parallel pipelines (1 for NV per device, K for VS, 1 for VM).
  std::size_t pipelines = 1;
};

/// Post-PnR achievable clock for a design on a device/grade.
[[nodiscard]] units::Megahertz achievable_fmax_mhz(
    const DeviceSpec& spec, SpeedGrade grade,
    const DesignResources& resources);

}  // namespace vr::fpga
