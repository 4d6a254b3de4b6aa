#include "fpga/freq_model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vr::fpga {

// Calibration constants (DESIGN.md Sec. 4). They put VM(α=20 %, K=15) near
// half the base clock while leaving single-pipeline designs at base.
/// Penalty per additional 36 Kb-equivalent block in the widest stage.
constexpr double kGammaStageBlocks = 0.065;
/// Penalty proportional to device BRAM utilization in [0,1].
constexpr double kGammaDeviceUtil = 0.25;
/// Penalty per additional parallel pipeline beyond the first (placement
/// spread of the separate scheme; mild).
constexpr double kGammaPipelines = 0.004;

units::Megahertz achievable_fmax_mhz(const DeviceSpec& spec, SpeedGrade grade,
                                     const DesignResources& resources) {
  VR_REQUIRE(resources.pipelines >= 1, "a design has at least one pipeline");
  const units::Megahertz base = spec.base_fmax_mhz(grade);
  const double halves_total =
      static_cast<double>(device_bram_halves(spec));
  const double util =
      halves_total == 0.0
          ? 0.0
          : std::min(1.0, static_cast<double>(resources.bram_halves) /
                              halves_total);
  const double stage_excess =
      std::max(0.0, resources.max_stage_blocks36eq - 1.0);
  const double congestion =
      1.0 + kGammaStageBlocks * stage_excess + kGammaDeviceUtil * util +
      kGammaPipelines * static_cast<double>(resources.pipelines - 1);
  return base / congestion;
}

}  // namespace vr::fpga
