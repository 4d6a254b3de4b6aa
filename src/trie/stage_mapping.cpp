#include "trie/stage_mapping.hpp"

#include <string>

#include "common/error.hpp"

namespace vr::trie {

StageMapping::StageMapping(std::size_t level_count, std::size_t stage_count,
                           MappingPolicy /*policy*/)
    : level_count_(level_count), stage_count_(stage_count) {
  VR_REQUIRE(stage_count > 0, "pipeline needs at least one stage");
  VR_REQUIRE(level_count > 0, "trie has at least the root level");
  if (level_count > stage_count) {
    throw CapacityError("trie of " + std::to_string(level_count) +
                        " levels does not fit a " +
                        std::to_string(stage_count) +
                        "-stage pipeline with one level per stage");
  }
}

StageOccupancy occupancy(const TrieStats& stats, const StageMapping& mapping) {
  VR_REQUIRE(stats.nodes_per_level.size() == mapping.level_count(),
             "mapping was built for a different trie");
  StageOccupancy occ;
  occ.nodes.assign(mapping.stage_count(), 0);
  occ.internal_nodes.assign(mapping.stage_count(), 0);
  occ.leaf_nodes.assign(mapping.stage_count(), 0);
  for (std::size_t l = 0; l < stats.nodes_per_level.size(); ++l) {
    occ.nodes[l] = stats.nodes_per_level[l];
    occ.internal_nodes[l] = stats.internal_per_level[l];
    occ.leaf_nodes[l] = stats.leaves_per_level[l];
  }
  return occ;
}

}  // namespace vr::trie
