#include "core/experiment.hpp"

#include <numeric>

#include "common/error.hpp"
#include "power/efficiency.hpp"
#include "power/resource_model.hpp"

namespace vr::core {

ExperimentRunner::ExperimentRunner(fpga::DeviceSpec device,
                                   fpga::PnrEffects effects)
    : sim_(std::move(device), effects) {}

ExperimentResult ExperimentRunner::run(const Scenario& scenario) const {
  const Workload workload = realize_workload(scenario);
  return run(scenario, workload);
}

fpga::PnrDesign ExperimentRunner::device_design(
    const Scenario& scenario, const Workload& workload,
    std::size_t device_index) const {
  fpga::PnrDesign design;
  design.grade = scenario.grade;
  design.bram_policy = scenario.bram_policy;
  design.requested_freq_mhz = scenario.freq_mhz;

  std::vector<double> mu = scenario.utilization;
  if (mu.empty()) {
    mu.assign(scenario.vn_count,
              1.0 / static_cast<double>(scenario.vn_count));
  }
  VR_REQUIRE(mu.size() == scenario.vn_count,
             "utilization vector size must equal K");

  switch (scenario.scheme) {
    case power::Scheme::kNonVirtualized: {
      // Device i hosts VN i's engine alone.
      fpga::PipelinePlacement p;
      p.stage_bits = workload.heterogeneous_engines.empty()
                         ? workload.per_vn_engine.stage_bits
                         : workload.heterogeneous_engines[device_index]
                               .stage_bits;
      p.activity = mu[device_index];
      design.pipelines.push_back(std::move(p));
      break;
    }
    case power::Scheme::kSeparate: {
      design.pipelines.reserve(scenario.vn_count);
      for (std::size_t v = 0; v < scenario.vn_count; ++v) {
        fpga::PipelinePlacement p;
        p.stage_bits = workload.heterogeneous_engines.empty()
                           ? workload.per_vn_engine.stage_bits
                           : workload.heterogeneous_engines[v].stage_bits;
        p.activity = mu[v];
        design.pipelines.push_back(std::move(p));
      }
      break;
    }
    case power::Scheme::kMerged: {
      fpga::PipelinePlacement p;
      p.stage_bits = workload.merged_engine.stage_bits;
      p.activity =
          std::min(1.0, std::accumulate(mu.begin(), mu.end(), 0.0));
      design.pipelines.push_back(std::move(p));
      break;
    }
  }
  return design;
}

ExperimentResult ExperimentRunner::run(const Scenario& scenario,
                                       const Workload& workload) const {
  ExperimentResult out;
  const std::size_t devices =
      power::devices_for(scenario.scheme, scenario.vn_count);
  for (std::size_t d = 0; d < devices; ++d) {
    const fpga::PnrDesign design = device_design(scenario, workload, d);
    const fpga::PnrReport report = sim_.analyze(design);
    out.power.static_w += report.static_w;
    out.power.logic_w += report.logic_w;
    out.power.memory_w += report.bram_w;
    if (d == 0) {
      out.device_report = report;
      out.freq_mhz = report.clock_mhz;
    }
  }
  out.power.devices = devices;
  out.power.freq_mhz = out.freq_mhz;
  out.throughput_gbps = power::aggregate_throughput_gbps(
      scenario.scheme, scenario.vn_count, out.freq_mhz);
  out.mw_per_gbps =
      power::mw_per_gbps(out.power.total_w(), out.throughput_gbps);
  return out;
}

}  // namespace vr::core
