#include "fpga/pnr_sim.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace vr::fpga {

namespace {

/// Deterministic 64-bit fingerprint of a design (drives placement wobble).
std::uint64_t design_fingerprint(const PnrDesign& design) {
  SplitMix64 mix(0x9d39247e33776d41ULL);
  std::uint64_t h = mix.next() ^ static_cast<std::uint64_t>(design.grade);
  auto fold = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  fold(static_cast<std::uint64_t>(design.bram_policy));
  fold(design.pipelines.size());
  for (const PipelinePlacement& p : design.pipelines) {
    fold(p.stage_bits.size());
    for (const std::uint64_t bits : p.stage_bits) fold(bits);
    fold(static_cast<std::uint64_t>(p.activity * 1e6));
  }
  return h;
}

}  // namespace

PnrSimulator::PnrSimulator(DeviceSpec spec, PnrEffects effects)
    : spec_(std::move(spec)), effects_(effects) {}

PnrReport PnrSimulator::analyze(const PnrDesign& design) const {
  VR_REQUIRE(!design.pipelines.empty(), "design has no pipelines");
  for (const PipelinePlacement& p : design.pipelines) {
    VR_REQUIRE(!p.stage_bits.empty(), "pipeline has no stages");
    VR_REQUIRE(p.activity >= 0.0 && p.activity <= 1.0,
               "pipeline activity must be in [0,1]");
  }

  PnrReport report;
  const auto pipeline_count = design.pipelines.size();

  // ---- Placement: BRAM and logic accounting ------------------------------
  std::vector<StageBramPlan> plans;
  plans.reserve(pipeline_count);
  std::uint64_t total_halves = 0;
  std::size_t total_stages = 0;
  for (const PipelinePlacement& p : design.pipelines) {
    StageBramPlan plan = plan_stage_bram(p.stage_bits, design.bram_policy);
    total_halves += plan.total.halves();
    total_stages += p.stage_bits.size();
    report.resources.max_stage_blocks36eq = std::max(
        report.resources.max_stage_blocks36eq, plan.max_stage_blocks36eq);
    plans.push_back(std::move(plan));
  }
  report.resources.bram_halves = total_halves;
  report.resources.pipelines = pipeline_count;

  const std::uint64_t device_halves = device_bram_halves(spec_);
  if (total_halves > device_halves) {
    throw CapacityError("design needs " + std::to_string(total_halves) +
                        " BRAM halves; device " + spec_.name + " has " +
                        std::to_string(device_halves));
  }

  const auto pe = XpeTables::pe_footprint();
  report.luts_used = pe.total_luts() * total_stages;
  report.flip_flops_used = pe.slice_registers * total_stages;
  if (report.luts_used > spec_.luts) {
    throw CapacityError("design needs " + std::to_string(report.luts_used) +
                        " LUTs; device " + spec_.name + " has " +
                        std::to_string(spec_.luts));
  }
  if (report.flip_flops_used > spec_.flip_flops) {
    throw CapacityError("design needs " +
                        std::to_string(report.flip_flops_used) +
                        " flip-flops; device has " +
                        std::to_string(spec_.flip_flops));
  }

  report.bram_utilization = static_cast<double>(total_halves) /
                            static_cast<double>(device_halves);
  report.logic_utilization = static_cast<double>(report.luts_used) /
                             static_cast<double>(spec_.luts);
  report.area_utilization =
      0.5 * (report.bram_utilization + report.logic_utilization);

  // ---- Timing closure -----------------------------------------------------
  const units::Megahertz fmax =
      achievable_fmax_mhz(spec_, design.grade, report.resources);
  report.clock_mhz = design.requested_freq_mhz > units::Megahertz{0.0}
                         ? std::min(design.requested_freq_mhz, fmax)
                         : fmax;

  // ---- Power --------------------------------------------------------------
  // Dynamic power from the coefficient tables, clock-gated by activity.
  units::Watts logic_w;
  units::Watts bram_w;
  for (std::size_t i = 0; i < pipeline_count; ++i) {
    const PipelinePlacement& p = design.pipelines[i];
    logic_w += XpeTables::logic_power_w(design.grade, p.stage_bits.size(),
                                        report.clock_mhz) *
               p.activity;
    bram_w += plans[i].total.power_w(design.grade, report.clock_mhz) *
              p.activity;
  }

  // Second-order: clock-tree/control amortization across P pipelines.
  const auto p_count = static_cast<double>(pipeline_count);
  const double share =
      effects_.share_max * (1.0 - 1.0 / p_count);
  logic_w *= 1.0 - share;

  // Second-order: routing congestion around BRAM-heavy stages adds signal
  // power proportional to the widest stage.
  const double congestion =
      effects_.congestion_max *
      std::min(1.0, std::max(0.0, report.resources.max_stage_blocks36eq -
                                      1.0) /
                        effects_.congestion_norm);
  bram_w *= 1.0 + congestion;

  // Second-order: deterministic placement wobble on dynamic power.
  const std::uint64_t fp = design_fingerprint(design);
  const double wobble =
      effects_.placement_noise *
      (static_cast<double>(fp >> 11) * 0x1.0p-53 * 2.0 - 1.0);
  logic_w *= 1.0 + wobble;
  bram_w *= 1.0 + wobble;

  // Leakage: area-dependent band, the replicated-design optimization, and
  // the routing-spread penalty of BRAM-heavy stages (merged designs).
  units::Watts static_w = spec_.static_power_w(design.grade);
  static_w *= 1.0 + effects_.static_area_slope *
                        (report.area_utilization - 0.5);
  static_w *= 1.0 - effects_.static_opt_max * (1.0 - 1.0 / p_count);
  static_w *=
      1.0 + effects_.static_congestion_max *
                std::min(1.0,
                         std::max(0.0,
                                  report.resources.max_stage_blocks36eq -
                                      1.0) /
                             effects_.congestion_norm);

  report.logic_w = logic_w;
  report.bram_w = bram_w;
  report.static_w = static_w;
  return report;
}

}  // namespace vr::fpga
