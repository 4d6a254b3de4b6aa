#include "power/analytical_model.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "fpga/xpe_tables.hpp"

namespace vr::power {

AnalyticalModel::AnalyticalModel(fpga::DeviceSpec device)
    : device_(std::move(device)) {}

std::vector<double> AnalyticalModel::resolve_utilization(
    const OperatingPoint& op, std::size_t vn_count) const {
  if (op.utilization.empty()) {
    return std::vector<double>(vn_count,
                               1.0 / static_cast<double>(vn_count));
  }
  VR_REQUIRE(op.utilization.size() == vn_count,
             "utilization vector size must equal the VN count");
  for (const double u : op.utilization) {
    VR_REQUIRE(u >= 0.0 && u <= 1.0, "utilization must be in [0,1]");
  }
  return op.utilization;
}

units::Watts AnalyticalModel::stage_memory_power_w(
    units::Bits bits, const OperatingPoint& op) const {
  const fpga::BramAllocation alloc =
      fpga::allocate_bram(bits.value(), op.bram_policy);
  return alloc.power_w(op.grade, op.freq_mhz);
}

units::Watts AnalyticalModel::stage_logic_power_w(
    const OperatingPoint& op) const {
  return fpga::XpeTables::logic_power_w(op.grade, 1, op.freq_mhz);
}

void AnalyticalModel::engine_dynamic_w(const EngineSpec& engine, double u,
                                       const OperatingPoint& op,
                                       units::Watts* logic_w,
                                       units::Watts* memory_w) const {
  VR_REQUIRE(!engine.stage_bits.empty(), "engine has no stages");
  units::Watts logic;
  units::Watts memory;
  for (const std::uint64_t bits : engine.stage_bits) {
    logic += stage_logic_power_w(op);
    memory += stage_memory_power_w(units::Bits{bits}, op);
  }
  *logic_w += logic * u;
  *memory_w += memory * u;
}

PowerBreakdown AnalyticalModel::estimate_nv(
    std::span<const EngineSpec> engines, const OperatingPoint& op) const {
  VR_REQUIRE(!engines.empty(), "NV estimate needs at least one engine");
  const auto mu = resolve_utilization(op, engines.size());
  PowerBreakdown out;
  out.devices = engines.size();
  out.freq_mhz = op.freq_mhz;
  // Eq. 2: each VN pays a full device's leakage.
  out.static_w = static_cast<double>(engines.size()) *
                 device_.static_power_w(op.grade);
  for (std::size_t i = 0; i < engines.size(); ++i) {
    engine_dynamic_w(engines[i], mu[i], op, &out.logic_w, &out.memory_w);
  }
  return out;
}

PowerBreakdown AnalyticalModel::estimate_vs(
    std::span<const EngineSpec> engines, const OperatingPoint& op) const {
  VR_REQUIRE(!engines.empty(), "VS estimate needs at least one engine");
  const auto mu = resolve_utilization(op, engines.size());
  PowerBreakdown out;
  out.devices = 1;
  out.freq_mhz = op.freq_mhz;
  // Eq. 4: leakage paid once; dynamic identical to NV.
  out.static_w = device_.static_power_w(op.grade);
  for (std::size_t i = 0; i < engines.size(); ++i) {
    engine_dynamic_w(engines[i], mu[i], op, &out.logic_w, &out.memory_w);
  }
  return out;
}

PowerBreakdown AnalyticalModel::estimate_vm(const EngineSpec& merged_engine,
                                            std::size_t vn_count,
                                            const OperatingPoint& op) const {
  VR_REQUIRE(vn_count >= 1, "VM estimate needs at least one VN");
  const auto mu = resolve_utilization(op, vn_count);
  const double aggregate =
      std::min(1.0, std::accumulate(mu.begin(), mu.end(), 0.0));
  PowerBreakdown out;
  out.devices = 1;
  out.freq_mhz = op.freq_mhz;
  // Eq. 6: leakage paid once; the single engine's dynamic power carries the
  // aggregate utilization (Σµ = 1 under Assumption 1 — the engine is busy
  // whenever any VN offers a packet).
  out.static_w = device_.static_power_w(op.grade);
  engine_dynamic_w(merged_engine, aggregate, op, &out.logic_w,
                   &out.memory_w);
  return out;
}

std::vector<units::Watts> AnalyticalModel::per_vn_dynamic_w(
    const ModelContext& ctx) const {
  VR_REQUIRE(ctx.vn_count >= 1, "model context needs at least one VN");
  const std::vector<double> mu = resolve_utilization(ctx.op, ctx.vn_count);
  // One pass through an engine: every stage, full power. Logic and memory
  // go into one sum, stage by stage.
  const auto pass_w = [&](const EngineSpec& engine) {
    units::Watts w;
    for (const std::uint64_t bits : engine.stage_bits) {
      w += stage_logic_power_w(ctx.op);
      w += stage_memory_power_w(units::Bits{bits}, ctx.op);
    }
    return w;
  };
  std::vector<units::Watts> out(ctx.vn_count);
  if (ctx.scheme == Scheme::kMerged) {
    VR_REQUIRE(ctx.merged_engine != nullptr,
               "merged scheme needs a merged engine spec");
    // Eq. 6: one engine at the aggregate utilization; each VN's share of
    // the time-shared engine is its share of the offered load.
    const units::Watts per_pass = pass_w(*ctx.merged_engine);
    const double offered = std::accumulate(mu.begin(), mu.end(), 0.0);
    const double served = std::min(1.0, offered);
    for (std::size_t i = 0; i < ctx.vn_count; ++i) {
      const double share = offered <= 0.0 ? 0.0 : mu[i] / offered;
      out[i] = per_pass * (served * share);
    }
    return out;
  }
  // Eqs. 2/4 (NV and VS share the dynamic term): VN i's dedicated engine
  // at µ_i.
  VR_REQUIRE(ctx.engines.size() == ctx.vn_count,
             "separate schemes need one engine spec per VN");
  for (std::size_t i = 0; i < ctx.vn_count; ++i) {
    out[i] = pass_w(ctx.engines[i]) * mu[i];
  }
  return out;
}

}  // namespace vr::power
