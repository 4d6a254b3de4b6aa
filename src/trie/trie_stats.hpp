// Structural statistics of a trie — the quantities the power models consume
// (node counts per level, pointer vs. NHI nodes) and the numbers Sec. V-E
// of the paper reports (3 725 prefixes -> 9 726 nodes -> 16 127 leaf-pushed).
#pragma once

#include <cstddef>
#include <vector>

#include "trie/unibit_trie.hpp"

namespace vr::trie {

struct TrieStats {
  std::size_t total_nodes = 0;
  std::size_t internal_nodes = 0;  // pointer nodes (have >=1 child)
  std::size_t leaf_nodes = 0;      // NHI nodes
  unsigned height = 0;
  /// Nodes per level, internal and leaf separately. Size = height+1.
  std::vector<std::size_t> nodes_per_level;
  std::vector<std::size_t> internal_per_level;
  std::vector<std::size_t> leaves_per_level;
};

/// Computes statistics in one pass over the (level-ordered) node array.
[[nodiscard]] TrieStats compute_stats(const UnibitTrie& trie);

/// Effective merging efficiency: the α that makes the analytical merged
/// node count T = K·n / (1 + (K−1)·α) (DESIGN.md Sec. 3) reproduce a
/// measured merge of K tries totalling `sum_input_nodes` nodes into
/// `merged_nodes`: clamp((Σn/T − 1)/(K − 1), 0, 1). K <= 1 gives 1 and an
/// empty merge gives 0.
[[nodiscard]] double alpha_from_counts(std::size_t vn_count,
                                       double sum_input_nodes,
                                       double merged_nodes) noexcept;

}  // namespace vr::trie
