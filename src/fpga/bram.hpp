// BRAM allocation: maps a per-stage memory requirement in bits onto 18 Kb /
// 36 Kb physical blocks. "Despite how small the amount of memory required,
// a BRAM block has to be assigned" (Sec. V-B) — power is block-granular,
// which is why the Table III model uses ceilings.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "fpga/device.hpp"
#include "fpga/xpe_tables.hpp"

namespace vr::fpga {

/// Block-granularity policy for a design.
enum class BramPolicy {
  k18Only,  ///< every requirement rounded up to 18 Kb blocks (Table III row 18Kb)
  k36Only,  ///< every requirement rounded up to 36 Kb blocks (Table III row 36Kb)
  kMixed,   ///< 36 Kb blocks for bulk, one 18 Kb block when the tail fits
};

[[nodiscard]] const char* to_string(BramPolicy policy) noexcept;

/// Blocks assigned to one memory (one pipeline stage).
struct BramAllocation {
  std::uint64_t blocks18 = 0;
  std::uint64_t blocks36 = 0;

  /// Physical footprint in 18 Kb halves (a 36 Kb block = 2 halves). The
  /// device's total BRAM is tracked in halves.
  [[nodiscard]] std::uint64_t halves() const noexcept {
    return blocks18 + 2 * blocks36;
  }
  /// Equivalent 36 Kb block count (for per-stage congestion metrics).
  [[nodiscard]] double blocks36_equivalent() const noexcept {
    return static_cast<double>(blocks36) +
           static_cast<double>(blocks18) / 2.0;
  }
  /// Dynamic power of this allocation at `freq_mhz` (Table III).
  [[nodiscard]] units::Watts power_w(SpeedGrade grade,
                                     units::Megahertz freq_mhz)
      const noexcept {
    return XpeTables::bram_power_w(BramKind::k18, grade, blocks18, freq_mhz) +
           XpeTables::bram_power_w(BramKind::k36, grade, blocks36, freq_mhz);
  }

  BramAllocation& operator+=(const BramAllocation& other) noexcept {
    blocks18 += other.blocks18;
    blocks36 += other.blocks36;
    return *this;
  }
};

/// Allocates blocks for a single memory of `bits` bits under a policy.
/// bits == 0 yields an empty allocation (an unused stage maps to LUTs).
[[nodiscard]] BramAllocation allocate_bram(std::uint64_t bits,
                                           BramPolicy policy) noexcept;

/// Allocates one memory per stage and reports the total plus the largest
/// single-stage footprint.
struct StageBramPlan {
  std::vector<BramAllocation> per_stage;
  BramAllocation total;
  double max_stage_blocks36eq = 0.0;
};

[[nodiscard]] StageBramPlan plan_stage_bram(
    const std::vector<std::uint64_t>& stage_bits, BramPolicy policy);

/// Number of 18 Kb halves available on a device.
[[nodiscard]] std::uint64_t device_bram_halves(const DeviceSpec& spec) noexcept;

}  // namespace vr::fpga
