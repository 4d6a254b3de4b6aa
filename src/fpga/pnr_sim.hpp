// Post place-and-route power simulator — the stand-in for the Xilinx
// XPower Analyzer runs the paper validates its model against.
//
// The simulator places a design (a set of lookup pipelines with per-stage
// memories) on a device, checks capacity, determines the achievable clock,
// and computes power bottom-up from the published per-resource coefficients
// (xpe_tables.hpp) PLUS the second-order effects a synthesis/PnR toolflow
// introduces and the analytical model deliberately omits — the paper
// attributes its residual ±3 % error exactly to these "various hardware
// optimizations" (Sec. VI-A):
//
//   * clock-tree & control amortization across replicated pipelines
//     (reduces per-stage logic power as identical engines are packed),
//   * tool-side power optimization of large replicated designs (trims
//     effective leakage slightly as more of the fabric is structured),
//   * routing congestion around BRAM-heavy stages (adds signal power in
//     the merged scheme),
//   * leakage dependence on occupied area (the ±5 % band of Sec. V-A),
//   * deterministic placement variation (a small per-design wobble seeded
//     from the design itself, so repeated runs are bit-identical).
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "fpga/bram.hpp"
#include "fpga/device.hpp"
#include "fpga/freq_model.hpp"

namespace vr::fpga {

/// One lookup pipeline to be placed.
struct PipelinePlacement {
  /// Memory demand per stage, bits. Size = pipeline depth N.
  std::vector<std::uint64_t> stage_bits;
  /// Fraction of cycles this pipeline processes a packet; idle cycles are
  /// clock-gated (Sec. IV: dynamic power ~ 0 off duty). For the separate
  /// scheme this is the VN's utilization µ_i.
  double activity = 1.0;
};

/// A design to place and analyze.
struct PnrDesign {
  SpeedGrade grade = SpeedGrade::kMinus2;
  BramPolicy bram_policy = BramPolicy::kMixed;
  std::vector<PipelinePlacement> pipelines;
  /// Clock to run at; 0 = run at the achievable Fmax.
  units::Megahertz requested_freq_mhz{0.0};
};

/// Second-order effect calibration. The defaults keep every effect inside
/// the paper's reported ±3 % model-error envelope.
struct PnrEffects {
  /// Max fractional logic-power saving from clock-tree sharing across P
  /// identical pipelines: saving = share_max * (1 - 1/P).
  double share_max = 0.035;
  /// Max fractional leakage trim from tool optimization of replicated
  /// designs: trim = static_opt_max * (1 - 1/P).
  double static_opt_max = 0.022;
  /// Extra signal power per BRAM-heavy stage: overhead = congestion_max *
  /// min(1, (max_stage_blocks36eq - 1) / congestion_norm), applied to BRAM
  /// power.
  double congestion_max = 0.025;
  double congestion_norm = 8.0;
  /// Leakage area dependence: static *= 1 + static_area_slope*(util - 0.5),
  /// util = occupied-area fraction. Slope 0.02 spans ±1 %.
  double static_area_slope = 0.02;
  /// Amplitude of the deterministic placement wobble on dynamic power.
  double placement_noise = 0.004;
  /// Extra leakage from the spread-out routing of BRAM-heavy (merged)
  /// designs: static *= 1 + static_congestion_max * min(1,
  /// (max_stage_blocks36eq - 1)/congestion_norm). This is why the paper's
  /// merged-scheme error exceeds NV/VS (Sec. VI-A: "in the merged approach,
  /// we use more BRAM per pipeline stage ... which causes our predictions
  /// to deviate").
  double static_congestion_max = 0.032;
};

/// Power and resource report of a placed design.
struct PnrReport {
  units::Megahertz clock_mhz;
  units::Watts static_w;
  units::Watts logic_w;
  units::Watts bram_w;
  [[nodiscard]] units::Watts total_w() const noexcept {
    return static_w + logic_w + bram_w;
  }

  DesignResources resources;
  std::uint64_t luts_used = 0;
  std::uint64_t flip_flops_used = 0;
  double bram_utilization = 0.0;   ///< of device BRAM halves
  double logic_utilization = 0.0;  ///< of device LUTs
  double area_utilization = 0.0;   ///< blended, drives the leakage band
};

/// The simulator. Stateless apart from its calibration; all runs are
/// deterministic.
class PnrSimulator {
 public:
  explicit PnrSimulator(DeviceSpec spec, PnrEffects effects = {});

  /// Places and analyzes. Throws vr::CapacityError when the design exceeds
  /// the device's BRAM or logic (the caller checks I/O pins, which depend
  /// on the virtualization scheme's interface count).
  [[nodiscard]] PnrReport analyze(const PnrDesign& design) const;

  [[nodiscard]] const DeviceSpec& device() const noexcept { return spec_; }
  [[nodiscard]] const PnrEffects& effects() const noexcept {
    return effects_;
  }

 private:
  DeviceSpec spec_;
  PnrEffects effects_;
};

}  // namespace vr::fpga
