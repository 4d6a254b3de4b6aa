// PowerEstimator — the library's headline API: applies the paper's
// analytical models (Sec. IV) to a Scenario and reports power, resources,
// throughput and efficiency.
#pragma once

#include "core/scenario.hpp"
#include "core/workload.hpp"
#include "fpga/device.hpp"
#include "power/analytical_model.hpp"
#include "power/resource_model.hpp"

namespace vr::core {

/// A complete analytical estimate for one scenario.
struct Estimate {
  power::PowerBreakdown power;
  power::SchemeResources resources;
  power::FitReport fit;
  units::Megahertz freq_mhz;      ///< operating clock used
  units::Gbps throughput_gbps;    ///< aggregate lookup capacity
  units::MwPerGbps mw_per_gbps;   ///< Sec. VI-B efficiency metric
  double alpha_used = 1.0;
};

class PowerEstimator {
 public:
  explicit PowerEstimator(fpga::DeviceSpec device);

  /// Realizes the scenario's workload and estimates it.
  [[nodiscard]] Estimate estimate(const Scenario& scenario) const;

  /// Estimates a scenario against an already-realized workload (lets
  /// sweeps reuse the expensive table builds).
  [[nodiscard]] Estimate estimate(const Scenario& scenario,
                                  const Workload& workload) const;

  /// The operating clock a scenario runs at: the post-PnR achievable Fmax
  /// of its most congested device (Sec. VI-B — merged designs slow down as
  /// K grows), capped by scenario.freq_mhz when set. Shared with the
  /// experiment runner so model-vs-experiment error isolates power effects.
  [[nodiscard]] units::Megahertz operating_frequency_mhz(
      const Scenario& scenario, const Workload& workload) const;

  [[nodiscard]] const fpga::DeviceSpec& device() const noexcept {
    return device_;
  }

 private:
  fpga::DeviceSpec device_;
  power::AnalyticalModel model_;
};

}  // namespace vr::core
