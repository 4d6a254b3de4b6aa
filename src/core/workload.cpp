#include "core/workload.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "trie/stage_mapping.hpp"

namespace vr::core {

namespace {

power::EngineSpec engine_from_memory(const trie::StageMemory& memory) {
  power::EngineSpec engine;
  engine.stage_bits.reserve(memory.stage_count());
  for (std::size_t s = 0; s < memory.stage_count(); ++s) {
    engine.stage_bits.push_back(memory.stage_bits(s));
  }
  return engine;
}

}  // namespace

Workload realize_workload(const Scenario& scenario, bool keep_tables) {
  VR_REQUIRE(scenario.vn_count >= 1, "scenario needs at least one VN");
  VR_REQUIRE(scenario.stages >= 1, "scenario needs at least one stage");
  Workload workload;

  const trie::NodeEncoding encoding;

  // Representative per-VN trie (Assumption 2: all tables equal size).
  const net::SyntheticTableGenerator base_gen(scenario.table_profile);
  net::RoutingTable base_table = base_gen.generate(scenario.seed);
  workload.prefix_count = base_table.size();
  trie::UnibitTrie base_trie(base_table);
  if (scenario.leaf_push) base_trie = base_trie.leaf_pushed();
  workload.representative_stats = trie::compute_stats(base_trie);

  const trie::StageMapping mapping(workload.representative_stats
                                       .nodes_per_level.size(),
                                   scenario.stages,
                                   trie::MappingPolicy::kOneLevelPerStage);
  workload.per_vn_memory = trie::stage_memory(
      trie::occupancy(workload.representative_stats, mapping), encoding, 1);
  workload.per_vn_engine = engine_from_memory(workload.per_vn_memory);

  // Assumption 2 relaxation: per-VN tables of spread sizes. VN v's size
  // is nominal * spread^x with x swept linearly over [-1, 1] across the
  // VNs, so the geometric mean stays at the nominal count.
  if (scenario.table_size_spread > 0.0 && scenario.vn_count > 1 &&
      scenario.scheme != power::Scheme::kMerged) {
    VR_REQUIRE(scenario.table_size_spread <= 0.9,
               "table_size_spread must be in (0, 0.9]");
    workload.heterogeneous_engines.reserve(scenario.vn_count);
    for (std::size_t v = 0; v < scenario.vn_count; ++v) {
      const double x =
          scenario.vn_count == 1
              ? 0.0
              : 2.0 * static_cast<double>(v) /
                        static_cast<double>(scenario.vn_count - 1) -
                    1.0;
      const double factor = std::pow(1.0 + scenario.table_size_spread, x);
      net::TableProfile profile = scenario.table_profile;
      profile.prefix_count = std::max<std::size_t>(
          16, static_cast<std::size_t>(
                  std::llround(static_cast<double>(
                                   scenario.table_profile.prefix_count) *
                               factor)));
      const net::SyntheticTableGenerator vn_gen(profile);
      trie::UnibitTrie vn_trie(vn_gen.generate(scenario.seed + 1000 + v));
      if (scenario.leaf_push) vn_trie = vn_trie.leaf_pushed();
      const trie::TrieStats vn_stats = trie::compute_stats(vn_trie);
      const trie::StageMapping vn_mapping(
          vn_stats.nodes_per_level.size(), scenario.stages,
          trie::MappingPolicy::kOneLevelPerStage);
      workload.heterogeneous_engines.push_back(
          engine_from_memory(trie::stage_memory(
              trie::occupancy(vn_stats, vn_mapping), encoding, 1)));
    }
  }

  const bool structural =
      scenario.merged_source == MergedSource::kStructural;
  const bool need_tables = keep_tables || (structural &&
                                           scenario.scheme ==
                                               power::Scheme::kMerged);

  if (need_tables) {
    virt::TableSetConfig set_config;
    set_config.profile = scenario.table_profile;
    set_config.leaf_push = scenario.leaf_push;
    const virt::CorrelatedTableSetGenerator set_gen(set_config);
    virt::TableSet set =
        scenario.vn_count == 1
            ? set_gen.generate(1, 0.0, scenario.seed)
            : set_gen.generate_with_alpha(scenario.vn_count, scenario.alpha,
                                          scenario.seed);
    workload.tables = std::move(set.tables);
    workload.tries.reserve(workload.tables.size());
    for (const net::RoutingTable& table : workload.tables) {
      trie::UnibitTrie t(table);
      workload.tries.push_back(scenario.leaf_push ? t.leaf_pushed()
                                                  : std::move(t));
    }
    std::vector<const trie::UnibitTrie*> ptrs;
    ptrs.reserve(workload.tries.size());
    for (const trie::UnibitTrie& t : workload.tries) ptrs.push_back(&t);
    workload.merged_trie.emplace(
        std::span<const trie::UnibitTrie* const>(ptrs));
  }

  if (scenario.scheme == power::Scheme::kMerged) {
    if (structural) {
      VR_REQUIRE(workload.merged_trie.has_value(),
                 "structural merge missing");
      const trie::TrieStats merged_stats =
          workload.merged_trie->stats_as_trie();
      workload.alpha_used = workload.merged_trie->stats().alpha_effective(
          scenario.vn_count);
      const trie::StageMapping merged_mapping(
          merged_stats.nodes_per_level.size(), scenario.stages,
          trie::MappingPolicy::kOneLevelPerStage);
      workload.merged_memory = trie::stage_memory(
          trie::occupancy(merged_stats, merged_mapping), encoding,
          scenario.vn_count);
    } else {
      workload.alpha_used = scenario.alpha;
      workload.merged_memory = virt::predict_merged_stage_memory(
          workload.representative_stats, mapping, encoding,
          scenario.vn_count, scenario.alpha, scenario.merged_rule);
    }
    workload.merged_engine = engine_from_memory(workload.merged_memory);
  }
  return workload;
}

}  // namespace vr::core
