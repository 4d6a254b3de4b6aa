// ExperimentRunner — drives the place-and-route power simulator over a
// Scenario, producing the "experimental" numbers the paper validates its
// model against (post-PnR XPower analysis, Sec. VI-A).
#pragma once

#include "core/scenario.hpp"
#include "core/workload.hpp"
#include "fpga/pnr_sim.hpp"
#include "power/analytical_model.hpp"

namespace vr::core {

/// Result of a simulated post-PnR power analysis.
struct ExperimentResult {
  power::PowerBreakdown power;   ///< memory_w carries the BRAM component
  units::Megahertz freq_mhz;
  units::Gbps throughput_gbps;
  units::MwPerGbps mw_per_gbps;
  fpga::PnrReport device_report;  ///< report of the (most loaded) device
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(fpga::DeviceSpec device,
                            fpga::PnrEffects effects = {});

  /// Realizes the workload and runs the experiment.
  [[nodiscard]] ExperimentResult run(const Scenario& scenario) const;

  /// Runs against an already-realized workload.
  [[nodiscard]] ExperimentResult run(const Scenario& scenario,
                                     const Workload& workload) const;

  [[nodiscard]] const fpga::PnrSimulator& simulator() const noexcept {
    return sim_;
  }

 private:
  /// Builds the PnR design(s) of the deployment's devices. NV yields K
  /// identical single-pipeline devices; VS one K-pipeline device; VM one
  /// single-pipeline device.
  [[nodiscard]] fpga::PnrDesign device_design(const Scenario& scenario,
                                              const Workload& workload,
                                              std::size_t device_index) const;

  fpga::PnrSimulator sim_;
};

}  // namespace vr::core
