#include "core/validator.hpp"

#include "common/stats.hpp"
#include "core/sweep.hpp"

namespace vr::core {

ModelValidator::ModelValidator(fpga::DeviceSpec device,
                               fpga::PnrEffects effects)
    : estimator_(device), runner_(std::move(device), effects) {}

ValidationPoint ModelValidator::validate(const Scenario& scenario) const {
  const Workload workload = realize_workload(scenario);
  return validate(scenario, workload);
}

ValidationPoint ModelValidator::validate(const Scenario& scenario,
                                         const Workload& workload) const {
  ValidationPoint point;
  point.scenario = scenario;
  point.model = estimator_.estimate(scenario, workload);
  point.experiment = runner_.run(scenario, workload);
  point.error_total_pct =
      percentage_error(point.model.power.total_w().value(),
                       point.experiment.power.total_w().value());
  point.error_static_pct =
      percentage_error(point.model.power.static_w.value(),
                       point.experiment.power.static_w.value());
  point.error_dynamic_pct =
      percentage_error(point.model.power.dynamic_w().value(),
                       point.experiment.power.dynamic_w().value());
  return point;
}

std::vector<ValidationPoint> ModelValidator::validate_all(
    const std::vector<Scenario>& scenarios, std::size_t threads) const {
  const SweepRunner runner(threads);
  return runner.map(scenarios.size(), [&](std::size_t i) {
    return validate(scenarios[i]);
  });
}

}  // namespace vr::core
