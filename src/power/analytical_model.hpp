// The paper's analytical Layer-3 power models (Sec. IV, Eqs. 1–6).
//
// Power decomposes into leakage P_L, per-stage logic power P(L_{i,j}) and
// per-stage memory power P(M_{i,j}); dynamic terms are weighted by the
// virtual networks' utilizations µ_i (clock gating makes an idle engine's
// dynamic power zero, Sec. IV):
//
//   NV (Eq. 2):  P = Σ_i ( P_L + µ_i Σ_j (P(L_{i,j}) + P(M_{i,j})) )
//   VS (Eq. 4):  P = P_L + Σ_i µ_i Σ_j (P(L_{i,j}) + P(M_{i,j}))
//   VM (Eq. 6):  P = P_L + Σ_j (P(L_{0,j}) + P(M_merged,j))
//
// with the merged per-stage memory given by the overlap model (DESIGN.md
// Sec. 3). P(M) follows Table III: block-granular coefficients times the
// operating frequency; P(L) is the Sec. V-C per-stage coefficient.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "fpga/bram.hpp"
#include "fpga/device.hpp"
#include "power/scheme.hpp"

namespace vr::power {

/// One lookup pipeline's memory image: bits per stage (the M_{i,j} row).
struct EngineSpec {
  std::vector<std::uint64_t> stage_bits;

  [[nodiscard]] std::size_t stage_count() const noexcept {
    return stage_bits.size();
  }
};

/// Operating conditions shared by the scheme estimators.
struct OperatingPoint {
  fpga::SpeedGrade grade = fpga::SpeedGrade::kMinus2;
  fpga::BramPolicy bram_policy = fpga::BramPolicy::kMixed;
  /// Clock every engine runs at.
  units::Megahertz freq_mhz{400.0};
  /// Per-VN utilizations µ_i (dimensionless fractions). Empty = uniform 1/K
  /// (Assumption 1). Must sum to <= engines' capacity; the estimators only
  /// use the values.
  std::vector<double> utilization;
};

/// Component breakdown of an estimate.
struct PowerBreakdown {
  units::Watts static_w;
  units::Watts logic_w;
  units::Watts memory_w;
  std::size_t devices = 0;
  units::Megahertz freq_mhz;

  [[nodiscard]] constexpr units::Watts total_w() const noexcept {
    return static_w + logic_w + memory_w;
  }
  [[nodiscard]] constexpr units::Watts dynamic_w() const noexcept {
    return logic_w + memory_w;
  }
};

struct ActivityCounters;

/// Everything a dynamic-power estimate may consult. The analytical model
/// uses the engine specs and the operating point's µ vector; ActivityModel
/// additionally requires `activity` (and charges what it counted).
struct ModelContext {
  Scheme scheme = Scheme::kSeparate;
  /// Per-VN engines (NV/VS); must have one entry per VN. Ignored by the
  /// merged scheme.
  std::span<const EngineSpec> engines;
  /// Merged engine (VM only).
  const EngineSpec* merged_engine = nullptr;
  std::size_t vn_count = 0;
  OperatingPoint op;
  /// Measured dataplane events; required by ActivityModel, ignored by
  /// AnalyticalModel.
  const ActivityCounters* activity = nullptr;
};

/// The analytical model, bound to a device.
class AnalyticalModel {
 public:
  explicit AnalyticalModel(fpga::DeviceSpec device);

  /// Eq. 2 — non-virtualized: engines.size() devices, one engine each.
  [[nodiscard]] PowerBreakdown estimate_nv(
      std::span<const EngineSpec> engines, const OperatingPoint& op) const;

  /// Eq. 4 — virtualized-separate: one device hosting all engines.
  [[nodiscard]] PowerBreakdown estimate_vs(
      std::span<const EngineSpec> engines, const OperatingPoint& op) const;

  /// Eq. 6 — virtualized-merged: one device, one merged engine whose
  /// stage_bits already include the K-wide NHI leaves. The merged engine
  /// serves the aggregate stream, so its dynamic power is weighted by
  /// Σ µ_i (1 under Assumption 1).
  [[nodiscard]] PowerBreakdown estimate_vm(const EngineSpec& merged_engine,
                                           std::size_t vn_count,
                                           const OperatingPoint& op) const;

  /// The dynamic (logic + memory) term of Eqs. 2/4/6 attributed to each
  /// VN: P_i = µ_i · Σ_j (P(L) + P(M_{i,j})) under NV/VS, and under VM the
  /// merged engine at min(1, Σµ) split by each VN's share of the offered
  /// load. Leakage is scheme bookkeeping, not a per-VN quantity.
  [[nodiscard]] std::vector<units::Watts> per_vn_dynamic_w(
      const ModelContext& ctx) const;

  /// P(M_{i,j}) for one stage of `bits` bits — Table III applied through
  /// the allocator. Exposed for tests and the Table III bench.
  [[nodiscard]] units::Watts stage_memory_power_w(
      units::Bits bits, const OperatingPoint& op) const;

  /// P(L_{i,j}) for one stage — the Sec. V-C linear coefficient.
  [[nodiscard]] units::Watts stage_logic_power_w(
      const OperatingPoint& op) const;

  [[nodiscard]] const fpga::DeviceSpec& device() const noexcept {
    return device_;
  }

 private:
  /// Resolves µ_i: explicit vector or uniform 1/K.
  [[nodiscard]] std::vector<double> resolve_utilization(
      const OperatingPoint& op, std::size_t vn_count) const;

  /// Accumulates one engine's dynamic power at utilization u into
  /// *logic_w / *memory_w.
  void engine_dynamic_w(const EngineSpec& engine, double u,
                        const OperatingPoint& op, units::Watts* logic_w,
                        units::Watts* memory_w) const;

  fpga::DeviceSpec device_;
};

}  // namespace vr::power
