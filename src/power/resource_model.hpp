// The paper's resource-consumption models (Sec. IV, Eqs. 1/3/5): devices,
// logic, memory and I/O demand of each scheme — the inputs to Fig. 4 and to
// the capacity/scalability limits of Sec. IV-B/IV-C (the separate scheme
// exhausts I/O pins at K = 15; the merged scheme exhausts BRAM as α drops).
#pragma once

#include <cstdint>
#include <span>

#include "common/units.hpp"
#include "fpga/bram.hpp"
#include "fpga/device.hpp"
#include "power/scheme.hpp"
#include "trie/memory_layout.hpp"

namespace vr::power {

/// Aggregate resource demand of a deployment.
struct SchemeResources {
  Scheme scheme = Scheme::kNonVirtualized;
  std::size_t devices = 0;
  std::size_t engines = 0;          ///< total lookup pipelines
  std::size_t stages_per_engine = 0;
  units::Bits pointer_bits;         ///< Σ internal-node memory
  units::Bits nhi_bits;             ///< Σ leaf/NHI memory
  std::uint64_t luts = 0;
  std::uint64_t flip_flops = 0;
  std::uint32_t io_pins = 0;        ///< on the most loaded device
  fpga::StageBramPlan bram_per_device;  ///< plan of one (the) shared device;
                                        ///< for NV this is one device's plan
};

/// Fit report against a device.
struct FitReport {
  bool fits = true;
  bool bram_ok = true;
  bool luts_ok = true;
  bool flip_flops_ok = true;
  bool io_ok = true;
};

/// Eq. 1 / Eq. 3 — NV and VS consume identical engine resources; they
/// differ in how many devices carry them and in the I/O interface count.
/// `per_vn_memory` is the stage-memory image of one VN's pipeline
/// (Assumption 2: all VNs equal). `vn_count` = K.
[[nodiscard]] SchemeResources replicated_resources(
    Scheme scheme, const trie::StageMemory& per_vn_memory,
    std::size_t vn_count, fpga::BramPolicy policy,
    const fpga::IoBudget& io = {});

/// Eq. 5 — merged: one engine whose stage memory is the merged image
/// (already K-aware in its leaf widths).
[[nodiscard]] SchemeResources merged_resources(
    const trie::StageMemory& merged_memory, std::size_t vn_count,
    fpga::BramPolicy policy, const fpga::IoBudget& io = {});

/// Checks a deployment against a device's limits.
[[nodiscard]] FitReport check_fit(const SchemeResources& resources,
                                  const fpga::DeviceSpec& device);

/// Largest K of a scheme that fits the device, scanning upward with a
/// caller-provided resource builder. Returns 0 if even K=1 does not fit.
template <typename ResourceFn>
[[nodiscard]] std::size_t max_vn_count(const fpga::DeviceSpec& device,
                                       std::size_t scan_limit,
                                       ResourceFn&& build) {
  std::size_t best = 0;
  for (std::size_t k = 1; k <= scan_limit; ++k) {
    const SchemeResources r = build(k);
    if (!check_fit(r, device).fits) break;
    best = k;
  }
  return best;
}

}  // namespace vr::power
