// Structural K-way trie merge — the "virtualized-merged" data structure
// (paper Sec. II-A.2, V-D): all K virtual networks share one lookup trie;
// a merged node exists wherever any input trie has a node, and leaves carry
// a K-wide next-hop vector indexed by the virtual-network identifier (VNID).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "netbase/traffic.hpp"
#include "trie/flat_multibit_trie.hpp"
#include "trie/trie_stats.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::virt {

/// Structural sharing statistics of a merge.
struct MergeStats {
  std::size_t merged_nodes = 0;
  std::size_t sum_input_nodes = 0;   ///< Σ_k n_k over the K input tries

  /// Effective merging efficiency of this merge of `vn_count` tries
  /// (trie::alpha_from_counts; 1 for K == 1).
  [[nodiscard]] double alpha_effective(std::size_t vn_count) const noexcept {
    return trie::alpha_from_counts(vn_count,
                                   static_cast<double>(sum_input_nodes),
                                   static_cast<double>(merged_nodes));
  }
};

/// The merged trie, stored as its stride-1 lookup image: nodes are numbered
/// breadth-first like UnibitTrie's, so stage mapping works identically, and
/// node n's children are image entries (n, 0) and (n, 1).
class MergedTrie {
 public:
  /// Merges K tries. All inputs must be non-null; K >= 1. If the inputs
  /// are leaf-pushed the merged trie is too (mixing is allowed but then the
  /// result is not considered leaf-pushed).
  explicit MergedTrie(std::span<const trie::UnibitTrie* const> tries);

  [[nodiscard]] std::size_t vn_count() const noexcept { return vn_count_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return image_->node_count();
  }

  /// Longest-prefix match for a packet of virtual network `vn`.
  [[nodiscard]] std::optional<net::NextHop> lookup(net::Ipv4 addr,
                                                   net::VnId vn) const;

  /// Batched longest-prefix match of VNID-tagged packets.
  [[nodiscard]] std::vector<net::NextHop> lookup_batch(
      std::span<const net::Packet> packets) const {
    return image_->lookup_batch(packets);
  }

  /// The stride-1 flattening of this trie (the lookup image), shared with
  /// the pipeline views made from it: entry (n, b) holds child b of node n
  /// and that child's K-wide next-hop vector.
  [[nodiscard]] const std::shared_ptr<const trie::FlatMultibitTrie>& image()
      const noexcept {
    return image_;
  }

  [[nodiscard]] const MergeStats& stats() const noexcept { return stats_; }

  /// Invariant: level_offsets_ always has >= 2 entries after construction
  /// (K >= 1 inputs each contribute at least a root), so these cannot
  /// underflow. The asserts guard moved-from objects.
  [[nodiscard]] unsigned height() const noexcept {
    assert(level_offsets_.size() >= 2 && "merged trie has no levels");
    return static_cast<unsigned>(level_offsets_.size() - 2);
  }
  [[nodiscard]] std::size_t level_count() const noexcept {
    assert(level_offsets_.size() >= 2 && "merged trie has no levels");
    return level_offsets_.size() - 1;
  }
  [[nodiscard]] std::span<const std::size_t> level_offsets() const noexcept {
    return level_offsets_;
  }

  /// Per-level structural statistics in the same shape as a single trie's
  /// (leaves carry K-wide NHI vectors, which the memory layer accounts for
  /// via its vn_count parameter).
  [[nodiscard]] trie::TrieStats stats_as_trie() const;

 private:
  std::size_t vn_count_;
  std::vector<std::size_t> level_offsets_;
  std::shared_ptr<const trie::FlatMultibitTrie> image_;
  MergeStats stats_;
};

}  // namespace vr::virt
