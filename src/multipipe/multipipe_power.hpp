// Power model of the depth-bounded multi-pipeline architecture ([7]/[8]):
// each lookup clocks the direct-index stage plus the stages of ONE short
// pipeline, so with balanced traffic the per-lookup logic energy drops
// from N stages to (1 + depth) stages, while P parallel pipelines multiply
// aggregate throughput.
#pragma once

#include "common/units.hpp"
#include "fpga/bram.hpp"
#include "fpga/device.hpp"
#include "fpga/freq_model.hpp"
#include "multipipe/partition.hpp"
#include "trie/memory_layout.hpp"

namespace vr::multipipe {

struct MultipipeReport {
  units::Watts static_w;
  units::Watts logic_w;
  units::Watts memory_w;
  units::Megahertz freq_mhz;
  units::Gbps throughput_gbps;
  std::size_t pipeline_depth = 0;
  double balance_factor = 1.0;

  [[nodiscard]] units::Watts total_w() const noexcept {
    return static_w + logic_w + memory_w;
  }
  [[nodiscard]] units::MwPerGbps mw_per_gbps() const noexcept {
    return throughput_gbps <= units::Gbps{0.0}
               ? units::MwPerGbps{0.0}
               : units::to_milliwatts(total_w()) / throughput_gbps;
  }
};

struct MultipipeModelOptions {
  fpga::SpeedGrade grade = fpga::SpeedGrade::kMinus2;
  fpga::BramPolicy bram_policy = fpga::BramPolicy::kMixed;
  /// Aggregate offered load in lookups per cycle per pipeline slot (1.0 =
  /// every pipeline saturated — the throughput-normalized comparison).
  double load = 1.0;
};

/// Evaluates a partitioned deployment on a device. Runs at the achievable
/// clock of the placed design (index + P pipelines).
[[nodiscard]] MultipipeReport evaluate_multipipe(
    const PartitionedTrie& partition, const fpga::DeviceSpec& device,
    const MultipipeModelOptions& options = {});

}  // namespace vr::multipipe
