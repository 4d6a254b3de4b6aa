#include "core/estimator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "power/efficiency.hpp"

namespace vr::core {

PowerEstimator::PowerEstimator(fpga::DeviceSpec device,
                               fpga::FreqModelParams freq_params)
    : device_(std::move(device)),
      freq_params_(freq_params),
      model_(device_) {}

Estimate PowerEstimator::estimate(const Scenario& scenario) const {
  const Workload workload = realize_workload(scenario);
  return estimate(scenario, workload);
}

units::Megahertz PowerEstimator::operating_frequency_mhz(
    const Scenario& scenario, const Workload& workload) const {
  // Resources of the most congested single device of the deployment.
  fpga::DesignResources resources;
  const bool merged = scenario.scheme == power::Scheme::kMerged;
  const power::EngineSpec& engine =
      merged ? workload.merged_engine : workload.per_vn_engine;
  VR_REQUIRE(!engine.stage_bits.empty(), "workload engine is empty");
  const std::size_t engines_on_device = power::engines_per_device(
      scenario.scheme, scenario.vn_count);

  std::vector<std::uint64_t> device_stage_bits;
  device_stage_bits.reserve(engine.stage_bits.size() * engines_on_device);
  const bool heterogeneous = !merged &&
                             !workload.heterogeneous_engines.empty() &&
                             scenario.scheme == power::Scheme::kSeparate;
  for (std::size_t e = 0; e < engines_on_device; ++e) {
    const power::EngineSpec& placed =
        heterogeneous ? workload.heterogeneous_engines[e] : engine;
    device_stage_bits.insert(device_stage_bits.end(),
                             placed.stage_bits.begin(),
                             placed.stage_bits.end());
  }
  const fpga::StageBramPlan plan =
      fpga::plan_stage_bram(device_stage_bits, scenario.bram_policy);
  resources.max_stage_blocks36eq = plan.max_stage_blocks36eq;
  resources.bram_halves = plan.total.halves();
  resources.pipelines = engines_on_device;

  const units::Megahertz fmax = fpga::achievable_fmax_mhz(
      device_, scenario.grade, resources, freq_params_);
  return scenario.freq_mhz > units::Megahertz{0.0}
             ? std::min(scenario.freq_mhz, fmax)
             : fmax;
}

Estimate PowerEstimator::estimate(const Scenario& scenario,
                                  const Workload& workload) const {
  Estimate out;
  out.alpha_used = workload.alpha_used;
  out.freq_mhz = operating_frequency_mhz(scenario, workload);

  power::OperatingPoint op;
  op.grade = scenario.grade;
  op.bram_policy = scenario.bram_policy;
  op.freq_mhz = out.freq_mhz;
  op.utilization = scenario.utilization;

  switch (scenario.scheme) {
    case power::Scheme::kNonVirtualized:
    case power::Scheme::kSeparate: {
      // Assumption 2 relaxation: per-VN engines when the workload built
      // heterogeneous tables.
      const std::vector<power::EngineSpec> engines =
          workload.heterogeneous_engines.empty()
              ? std::vector<power::EngineSpec>(scenario.vn_count,
                                               workload.per_vn_engine)
              : workload.heterogeneous_engines;
      out.power = scenario.scheme == power::Scheme::kNonVirtualized
                      ? model_.estimate_nv(engines, op)
                      : model_.estimate_vs(engines, op);
      out.resources = power::replicated_resources(
          scenario.scheme, workload.per_vn_memory, scenario.vn_count,
          scenario.bram_policy);
      break;
    }
    case power::Scheme::kMerged:
      out.power = model_.estimate_vm(workload.merged_engine,
                                     scenario.vn_count, op);
      out.resources = power::merged_resources(
          workload.merged_memory, scenario.vn_count, scenario.bram_policy);
      break;
  }

  out.fit = power::check_fit(out.resources, device_);
  out.throughput_gbps = power::aggregate_throughput_gbps(
      scenario.scheme, scenario.vn_count, out.freq_mhz);
  out.mw_per_gbps = power::mw_per_gbps(out.power.total_w(),
                                       out.throughput_gbps);
  return out;
}

}  // namespace vr::core
