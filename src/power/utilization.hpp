// Per-VN utilization (µ_i) generators — Assumption 1 (uniform 1/K) and
// the relaxations the paper mentions ("more complex distributions can be
// modeled by appropriately changing the µ_i values", Sec. IV-A).
//
// Utilizations are dimensionless fractions in [0,1]; they intentionally
// stay plain doubles under the unit-type system (common/units.hpp) — the
// unit lint only polices quantities that carry a physical dimension.
#pragma once

#include <cstddef>
#include <vector>

namespace vr::power {

/// Zipf-skewed shares: µ_i ∝ 1/(i+1)^s, normalized to total_load. s = 0
/// degenerates to uniform; s ≈ 1 models a dominant tenant.
[[nodiscard]] std::vector<double> zipf_utilization(std::size_t vn_count,
                                                   double skew,
                                                   double total_load = 1.0);

}  // namespace vr::power
