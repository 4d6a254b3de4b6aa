// Depth-bounded multi-pipeline IP lookup — the "green router" baseline of
// the paper's references [7] (multi-way pipelining, GLOBECOM'08) and [8]
// (depth-bounded multi-pipeline architecture, IPCCC'08), cited in
// Sec. II-B as the state of the art in power-efficient trie lookup.
//
// The trie is split at level `s`: the top s levels collapse into a
// 2^s-entry direct-index table; every subtrie rooted at level s is
// assigned to one of P short pipelines (depth bounded by height-s), with
// subtries balanced across pipelines by memory footprint. Each lookup
// touches the index plus ONE short pipeline, so both the logic power
// (fewer stages clocked per lookup) and the per-stage memory power drop,
// while P parallel pipelines multiply throughput.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "trie/memory_layout.hpp"
#include "trie/trie_stats.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::multipipe {

/// Partitioning configuration.
struct PartitionConfig {
  unsigned split_level = 8;     ///< index on the top `split_level` bits
  std::size_t pipeline_count = 4;
};

/// One direct-index slot: which pipeline serves the subtrie (if any), the
/// subtrie root, and the best next hop accumulated above the split (for
/// addresses whose match ends above level s).
struct IndexEntry {
  std::uint16_t pipeline = 0;
  trie::NodeIndex subtrie_root = trie::kNullNode;
  net::NextHop inherited = net::kNoRoute;
};

/// The partitioned lookup structure (non-owning view over the trie).
class PartitionedTrie {
 public:
  PartitionedTrie(const trie::UnibitTrie& trie, PartitionConfig config);

  /// Functional lookup (must equal the trie's own LPM).
  [[nodiscard]] std::optional<net::NextHop> lookup(net::Ipv4 addr) const;

  [[nodiscard]] const PartitionConfig& config() const noexcept {
    return config_;
  }
  /// Depth bound of the pipelines: deepest subtrie level count.
  [[nodiscard]] std::size_t pipeline_depth() const noexcept {
    return pipeline_depth_;
  }
  /// Index memory in bits (pipeline id + root pointer + inherited NHI).
  [[nodiscard]] std::uint64_t index_bits() const noexcept;

  /// Per-stage node counts of pipeline `p` (size pipeline_depth()).
  [[nodiscard]] const trie::StageOccupancy& pipeline_occupancy(
      std::size_t p) const {
    return pipelines_[p];
  }
  /// Total nodes assigned to pipeline `p`.
  [[nodiscard]] std::size_t pipeline_nodes(std::size_t p) const;

  /// Memory-balance quality: largest pipeline / mean pipeline node count
  /// (1.0 = perfect balance; [7]/[8] integrate balancing for power).
  [[nodiscard]] double balance_factor() const;

 private:
  void assign_subtries(const trie::UnibitTrie& trie);

  const trie::UnibitTrie* trie_;
  PartitionConfig config_;
  std::vector<IndexEntry> index_;
  std::vector<trie::StageOccupancy> pipelines_;
  std::size_t pipeline_depth_ = 0;
};

}  // namespace vr::multipipe
