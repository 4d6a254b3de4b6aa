#include "virt/merged_trie.hpp"

#include <algorithm>
#include <deque>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace vr::virt {

double MergeStats::alpha_effective(std::size_t vn_count) const noexcept {
  if (vn_count <= 1) return 1.0;
  if (merged_nodes == 0) return 0.0;
  const double s = static_cast<double>(sum_input_nodes);
  const double t = static_cast<double>(merged_nodes);
  const double alpha = (s / t - 1.0) / static_cast<double>(vn_count - 1);
  return std::clamp(alpha, 0.0, 1.0);
}

MergedTrie::MergedTrie(std::span<const trie::UnibitTrie* const> tries)
    : vn_count_(tries.size()) {
  VR_REQUIRE(!tries.empty(), "merge requires at least one trie");
  for (const auto* t : tries) {
    VR_REQUIRE(t != nullptr, "null trie in merge input");
    stats_.sum_input_nodes += t->node_count();
  }

  // Breadth-first simultaneous walk of all K tries. A frame carries, for
  // each input trie, the index of its node at the current merged position
  // (kNullNode when that trie has no node here).
  trie::FlatMultibitTrie::BinaryFlattener flattener(vn_count_);
  std::vector<net::NextHop> hops(vn_count_);  // the current node's
  struct Frame {
    std::vector<trie::NodeIndex> srcs;
  };
  std::deque<Frame> frontier;
  std::size_t merged = 0;  // nodes added to the flattener so far
  {
    Frame root;
    root.srcs.assign(vn_count_, 0);  // every trie has a root
    frontier.push_back(std::move(root));
  }
  level_offsets_.push_back(0);

  while (!frontier.empty()) {
    const std::size_t level_size = frontier.size();
    for (std::size_t i = 0; i < level_size; ++i) {
      Frame frame = std::move(frontier.front());
      frontier.pop_front();

      trie::NodeIndex left = trie::kNullNode;
      trie::NodeIndex right = trie::kNullNode;
      std::size_t present = 0;
      bool any_left = false;
      bool any_right = false;
      for (std::size_t v = 0; v < vn_count_; ++v) {
        const trie::NodeIndex src = frame.srcs[v];
        hops[v] = net::kNoRoute;
        if (src != trie::kNullNode) {
          ++present;
          const trie::TrieNode& n = tries[v]->node(src);
          hops[v] = n.next_hop;
          any_left = any_left || n.left != trie::kNullNode;
          any_right = any_right || n.right != trie::kNullNode;
        }
      }

      if (any_left) {
        Frame child;
        child.srcs.resize(vn_count_);
        for (std::size_t v = 0; v < vn_count_; ++v) {
          const trie::NodeIndex src = frame.srcs[v];
          child.srcs[v] = src == trie::kNullNode ? trie::kNullNode
                                                 : tries[v]->node(src).left;
        }
        // Child indices are assigned in frontier order. At this point
        // `merged` counts P + i nodes (P = nodes of all previous levels;
        // the current node is counted below) and the frontier holds the
        // remaining frames of this level plus the children queued so far,
        // so the child lands at P + level_size + children_so_far
        // = merged + frontier.size() + 1.
        left = trie::checked_node_index(merged + frontier.size() + 1,
                                        "merged trie");
        frontier.push_back(std::move(child));
      }
      if (any_right) {
        Frame child;
        child.srcs.resize(vn_count_);
        for (std::size_t v = 0; v < vn_count_; ++v) {
          const trie::NodeIndex src = frame.srcs[v];
          child.srcs[v] = src == trie::kNullNode ? trie::kNullNode
                                                 : tries[v]->node(src).right;
        }
        right = trie::checked_node_index(merged + frontier.size() + 1,
                                         "merged trie");
        frontier.push_back(std::move(child));
      }
      flattener.add_node(left, right, hops);
      ++merged;
      if (present >= 2) ++stats_.shared_any;
      if (present == vn_count_ && vn_count_ >= 2) ++stats_.shared_all;
    }
    level_offsets_.push_back(merged);
  }
  stats_.merged_nodes = merged;

  image_ = std::make_shared<const trie::FlatMultibitTrie>(
      std::move(flattener).finish(level_offsets_));
}

std::optional<net::NextHop> MergedTrie::lookup(net::Ipv4 addr,
                                               net::VnId vn) const {
  VR_REQUIRE(vn < vn_count_, "VNID out of range");
  return image_->lookup(addr, vn);
}

trie::TrieStats MergedTrie::stats_as_trie() const {
  trie::TrieStats stats;
  stats.total_nodes = node_count();
  stats.height = height();
  const std::size_t levels = level_count();
  stats.nodes_per_level.assign(levels, 0);
  stats.internal_per_level.assign(levels, 0);
  stats.leaves_per_level.assign(levels, 0);
  for (std::size_t l = 0; l < levels; ++l) {
    stats.nodes_per_level[l] = level_offsets_[l + 1] - level_offsets_[l];
    for (std::size_t n = level_offsets_[l]; n < level_offsets_[l + 1]; ++n) {
      // narrow-ok: n < node_count(), which the image bounds by NodeIndex
      const auto node = static_cast<trie::NodeIndex>(n);
      if (image_->child(node, 0) == trie::kNullNode &&
          image_->child(node, 1) == trie::kNullNode) {
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

}  // namespace vr::virt
