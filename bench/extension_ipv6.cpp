// Extension: IPv6 scaling study. The paper models IPv4 (32-bit keys, 28
// pipeline stages); IPv6 edge tables reach /64, so the leaf-pushed trie
// has 65 levels (depths 0-64) and the same architecture, one trie level
// per stage, needs a 65-stage pipeline. This bench rebuilds the paper's
// per-engine numbers for a synthetic IPv6 edge table and compares them
// with the IPv4 baseline: logic power scales with the stage count, memory
// power with the (larger) trie, and the virtualization argument — leakage
// shared across K networks — is unchanged.
#include "bench_common.hpp"
#include "fpga/freq_model.hpp"
#include "fpga/xpe_tables.hpp"
#include "ipv6/ipv6_trie.hpp"
#include "netbase/table_gen.hpp"
#include "trie/memory_layout.hpp"

namespace {

struct EngineNumbers {
  std::size_t stages = 0;
  std::size_t nodes = 0;
  double memory_kb = 0.0;
  double freq_mhz = 0.0;
  double logic_mw = 0.0;
  double bram_mw = 0.0;
};

/// Prices a leaf-pushed trie on a `stages`-stage engine through the shared
/// stage-memory path (compute_stats -> StageMapping -> occupancy ->
/// stage_memory), which throws CapacityError for a trie deeper than the
/// pipeline instead of dropping levels.
EngineNumbers evaluate(const vr::trie::UnibitTrie& trie, std::size_t stages) {
  using namespace vr;
  const trie::TrieStats stats = trie::compute_stats(trie);
  const trie::StageMapping mapping(stats.nodes_per_level.size(), stages,
                                   trie::MappingPolicy::kOneLevelPerStage);
  const trie::StageMemory memory = trie::stage_memory(
      trie::occupancy(stats, mapping), trie::NodeEncoding{}, 1);
  std::vector<std::uint64_t> stage_bits;
  for (std::size_t s = 0; s < stages; ++s) {
    stage_bits.push_back(memory.stage_bits(s));
  }
  EngineNumbers out;
  out.stages = stages;
  out.nodes = stats.total_nodes;
  out.memory_kb = static_cast<double>(memory.total_bits()) / 1024.0;
  const fpga::StageBramPlan plan =
      fpga::plan_stage_bram(stage_bits, fpga::BramPolicy::kMixed);
  fpga::DesignResources resources;
  resources.bram_halves = plan.total.halves();
  resources.max_stage_blocks36eq = plan.max_stage_blocks36eq;
  resources.pipelines = 1;
  const fpga::DeviceSpec device = fpga::DeviceSpec::xc6vlx760();
  const units::Megahertz freq = fpga::achievable_fmax_mhz(
      device, fpga::SpeedGrade::kMinus2, resources);
  out.freq_mhz = freq.value();
  out.logic_mw = fpga::XpeTables::logic_power_w(fpga::SpeedGrade::kMinus2,
                                                stages, freq)
                     .value() *
                 1e3;
  out.bram_mw =
      plan.total.power_w(fpga::SpeedGrade::kMinus2, freq).value() * 1e3;
  return out;
}

}  // namespace

int main() {
  using namespace vr;

  // IPv4 baseline engine (the paper's configuration).
  const net::SyntheticTableGenerator gen4(net::TableProfile::edge_default());
  const EngineNumbers v4 =
      evaluate(trie::UnibitTrie(gen4.generate(1)).leaf_pushed(), 28);

  // IPv6 engine: same prefix count, /64-deep table, one stage per level.
  const ipv6::SyntheticTableGenerator6 gen6{ipv6::TableProfile6{}};
  const EngineNumbers v6 =
      evaluate(trie::UnibitTrie(gen6.generate(1)).leaf_pushed(), 65);

  TextTable out("IPv4 vs IPv6 lookup engine (3725 prefixes, grade -2)");
  out.set_header({"quantity", "IPv4 (N=28)", "IPv6 (N=65)", "ratio"});
  auto row = [&](const char* name, double a, double b, int precision) {
    out.add_row({name, TextTable::num(a, precision),
                 TextTable::num(b, precision),
                 TextTable::num(b / a, 2)});
  };
  row("pipeline stages", static_cast<double>(v4.stages),
      static_cast<double>(v6.stages), 0);
  row("trie nodes", static_cast<double>(v4.nodes),
      static_cast<double>(v6.nodes), 0);
  row("memory Kb", v4.memory_kb, v6.memory_kb, 0);
  row("clock MHz", v4.freq_mhz, v6.freq_mhz, 1);
  row("logic mW", v4.logic_mw, v6.logic_mw, 2);
  row("BRAM mW", v4.bram_mw, v6.bram_mw, 2);
  row("dynamic mW", v4.logic_mw + v4.bram_mw, v6.logic_mw + v6.bram_mw, 2);
  vr::bench::emit(out);

  std::cout << "The IPv6 engine needs ~2.3x the stages and more trie\n"
               "memory, but the dominant cost is still the device's\n"
               "leakage -- so virtualization's K-fold static-power saving\n"
               "carries over unchanged to IPv6 deployments.\n";
  return 0;
}
