#include "multipipe/multipipe_power.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/units.hpp"
#include "fpga/xpe_tables.hpp"

namespace vr::multipipe {

MultipipeReport evaluate_multipipe(const PartitionedTrie& partition,
                                   const fpga::DeviceSpec& device,
                                   const MultipipeModelOptions& options) {
  VR_REQUIRE(options.load >= 0.0 && options.load <= 1.0,
             "load must be in [0,1]");
  MultipipeReport report;
  report.pipeline_depth = partition.pipeline_depth();
  report.balance_factor = partition.balance_factor();

  const std::size_t pipelines = partition.config().pipeline_count;

  // Per-pipeline BRAM plans plus the index memory.
  std::vector<fpga::StageBramPlan> plans;
  plans.reserve(pipelines);
  fpga::DesignResources resources;
  resources.pipelines = pipelines;
  for (std::size_t p = 0; p < pipelines; ++p) {
    const trie::StageMemory memory = trie::stage_memory(
        partition.pipeline_occupancy(p), trie::NodeEncoding{}, 1);
    std::vector<std::uint64_t> stage_bits;
    stage_bits.reserve(memory.stage_count());
    for (std::size_t s = 0; s < memory.stage_count(); ++s) {
      stage_bits.push_back(memory.stage_bits(s));
    }
    fpga::StageBramPlan plan =
        fpga::plan_stage_bram(stage_bits, options.bram_policy);
    resources.bram_halves += plan.total.halves();
    resources.max_stage_blocks36eq = std::max(
        resources.max_stage_blocks36eq, plan.max_stage_blocks36eq);
    plans.push_back(std::move(plan));
  }
  const fpga::BramAllocation index_alloc =
      fpga::allocate_bram(partition.index_bits(), options.bram_policy);
  resources.bram_halves += index_alloc.halves();
  resources.max_stage_blocks36eq = std::max(
      resources.max_stage_blocks36eq, index_alloc.blocks36_equivalent());

  if (resources.bram_halves > fpga::device_bram_halves(device)) {
    throw CapacityError("multi-pipeline deployment exceeds device BRAM");
  }

  report.freq_mhz =
      fpga::achievable_fmax_mhz(device, options.grade, resources);

  // Logic: each lookup clocks the index stage plus one pipeline's stages;
  // with balanced traffic every pipeline sees load/P of the aggregate P
  // lookups per cycle => activity `load` per pipeline.
  const units::Watts stage_logic_w =
      fpga::XpeTables::logic_power_w(options.grade, 1, report.freq_mhz);
  report.logic_w = options.load *
                   (1.0 + static_cast<double>(pipelines) *
                              static_cast<double>(report.pipeline_depth)) *
                   stage_logic_w;

  // Memory: every pipeline's stage memories are clocked at its own load;
  // the index is read by every lookup on every pipeline slot.
  for (const fpga::StageBramPlan& plan : plans) {
    report.memory_w +=
        options.load * plan.total.power_w(options.grade, report.freq_mhz);
  }
  report.memory_w += options.load * static_cast<double>(pipelines) *
                     index_alloc.power_w(options.grade, report.freq_mhz);

  report.static_w = device.static_power_w(options.grade);
  report.throughput_gbps =
      options.load * static_cast<double>(pipelines) *
      units::lookup_throughput(report.freq_mhz, units::kMinPacketBytes);
  return report;
}

}  // namespace vr::multipipe
