// The pipeline simulator's view of a lookup trie: one shared flat image
// (trie::FlatMultibitTrie) traversed one level per stage. A uni-bit trie is
// flattened at stride 1 when the view is made, a merged trie shares the
// image it owns, and a stride-k image is shared as is. Every per-cycle stage
// access is a direct contiguous-array read, and the view shares ownership of
// the image, so it outlives the trie object it was made from.
#pragma once

#include <memory>

#include "trie/flat_multibit_trie.hpp"
#include "trie/unibit_trie.hpp"
#include "virt/merged_trie.hpp"

namespace vr::pipeline {

class TrieView {
 public:
  /// Flattens a uni-bit trie at stride 1, node for node.
  explicit TrieView(const trie::UnibitTrie& t)
      : image_(std::make_shared<const trie::FlatMultibitTrie>(t)) {}
  explicit TrieView(const virt::MergedTrie& t) noexcept
      : image_(t.image()) {}
  /// A stride-k image: each pipeline stage consumes `stride` address bits.
  explicit TrieView(std::shared_ptr<const trie::FlatMultibitTrie> t) noexcept
      : image_(std::move(t)) {}

  /// Address bits one pipeline stage consumes.
  [[nodiscard]] unsigned stride() const noexcept { return image_->stride(); }

  [[nodiscard]] std::size_t level_count() const noexcept {
    return image_->level_count();
  }

  /// Deepest pipeline a trie of this stride can need: one level per
  /// stage (33 at stride 1, root level included; 32/k at stride k).
  [[nodiscard]] std::size_t max_levels() const noexcept {
    return image_->max_level_count();
  }

  /// Number of virtual networks the view serves (1 for a single trie).
  [[nodiscard]] std::size_t vn_count() const noexcept {
    return image_->vn_count();
  }

  /// One pipeline stage's worth of traversal for the node at trie level
  /// `level`: the next-hop information stored where this stage looks
  /// (kNoRoute when none) and the node the packet must visit next
  /// (kNullNode when the traversal terminates here). `vn` must be below
  /// vn_count().
  struct Step {
    trie::NodeIndex next = trie::kNullNode;
    net::NextHop hop = net::kNoRoute;
  };
  [[nodiscard]] Step step(trie::NodeIndex node, std::uint32_t addr,
                          std::size_t level, net::VnId vn) const noexcept {
    // A walk ends at bit 32: the depth-32 node a stride-1 flattening keeps
    // for a /32 route has no address bits left to branch on.
    if (level * image_->stride() >= 32) return {};
    const std::size_t slot = image_->slot_of(addr, level);
    return {image_->child(node, slot), image_->next_hop(node, slot, vn)};
  }

 private:
  std::shared_ptr<const trie::FlatMultibitTrie> image_;
};

}  // namespace vr::pipeline
