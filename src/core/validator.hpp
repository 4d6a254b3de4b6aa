// ModelValidator — reproduces the paper's Sec. VI-A validation: for each
// scenario, run the analytical model and the (simulated) post-PnR analysis
// and report the percentage error
//     (P_model − P_experimental) / P_experimental × 100,
// which the paper bounds at ±3 %.
#pragma once

#include <vector>

#include "core/estimator.hpp"
#include "core/experiment.hpp"

namespace vr::core {

struct ValidationPoint {
  Scenario scenario;
  Estimate model;
  ExperimentResult experiment;
  double error_total_pct = 0.0;
  double error_static_pct = 0.0;
  double error_dynamic_pct = 0.0;
};

class ModelValidator {
 public:
  ModelValidator(fpga::DeviceSpec device, fpga::PnrEffects effects = {});

  /// Validates one scenario (realizing its workload once for both sides).
  [[nodiscard]] ValidationPoint validate(const Scenario& scenario) const;

  /// Validates against an already-realized workload (lets sweeps reuse the
  /// expensive table builds, e.g. via WorkloadCache).
  [[nodiscard]] ValidationPoint validate(const Scenario& scenario,
                                         const Workload& workload) const;

  /// Validates a grid of scenarios. `threads` fans the grid out over a
  /// SweepRunner (1 = serial, 0 = default_sweep_threads()); the result
  /// order always matches `scenarios`.
  [[nodiscard]] std::vector<ValidationPoint> validate_all(
      const std::vector<Scenario>& scenarios, std::size_t threads = 1) const;

  [[nodiscard]] const PowerEstimator& estimator() const noexcept {
    return estimator_;
  }
  [[nodiscard]] const ExperimentRunner& runner() const noexcept {
    return runner_;
  }

 private:
  PowerEstimator estimator_;
  ExperimentRunner runner_;
};

}  // namespace vr::core
