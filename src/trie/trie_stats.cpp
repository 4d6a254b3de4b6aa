#include "trie/trie_stats.hpp"

#include <algorithm>

namespace vr::trie {

TrieStats compute_stats(const UnibitTrie& trie) {
  TrieStats stats;
  stats.total_nodes = trie.node_count();
  stats.height = trie.height();
  const std::size_t levels = trie.level_count();
  stats.nodes_per_level.assign(levels, 0);
  stats.internal_per_level.assign(levels, 0);
  stats.leaves_per_level.assign(levels, 0);
  for (std::size_t l = 0; l < levels; ++l) {
    const auto level = trie.level(l);
    stats.nodes_per_level[l] = level.size();
    for (const TrieNode& node : level) {
      if (node.is_leaf()) {
        ++stats.leaves_per_level[l];
      } else {
        ++stats.internal_per_level[l];
      }
    }
    stats.internal_nodes += stats.internal_per_level[l];
    stats.leaf_nodes += stats.leaves_per_level[l];
  }
  return stats;
}

double alpha_from_counts(std::size_t vn_count, double sum_input_nodes,
                         double merged_nodes) noexcept {
  if (vn_count <= 1) return 1.0;
  if (merged_nodes <= 0.0) return 0.0;
  const double alpha = (sum_input_nodes / merged_nodes - 1.0) /
                       static_cast<double>(vn_count - 1);
  return std::clamp(alpha, 0.0, 1.0);
}

}  // namespace vr::trie
