#include "multipipe/partition.hpp"

#include <algorithm>
#include <numeric>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace vr::multipipe {

namespace {

/// Per-subtrie census: relative-level node counts below (and including)
/// a level-s root.
struct SubtrieCensus {
  trie::NodeIndex root = trie::kNullNode;
  std::size_t index_slot = 0;
  std::vector<std::size_t> nodes_per_level;
  std::vector<std::size_t> internal_per_level;
  std::vector<std::size_t> leaves_per_level;

  [[nodiscard]] std::size_t total() const {
    return std::accumulate(nodes_per_level.begin(), nodes_per_level.end(),
                           std::size_t{0});
  }
};

SubtrieCensus census(const trie::UnibitTrie& trie, trie::NodeIndex root,
                     std::size_t slot) {
  SubtrieCensus out;
  out.root = root;
  out.index_slot = slot;
  std::vector<trie::NodeIndex> frontier{root};
  while (!frontier.empty()) {
    std::vector<trie::NodeIndex> next;
    std::size_t internal = 0;
    std::size_t leaves = 0;
    for (const trie::NodeIndex index : frontier) {
      const trie::TrieNode& node = trie.node(index);
      if (node.is_leaf()) {
        ++leaves;
      } else {
        ++internal;
      }
      if (node.left != trie::kNullNode) next.push_back(node.left);
      if (node.right != trie::kNullNode) next.push_back(node.right);
    }
    out.nodes_per_level.push_back(frontier.size());
    out.internal_per_level.push_back(internal);
    out.leaves_per_level.push_back(leaves);
    frontier = std::move(next);
  }
  return out;
}

}  // namespace

PartitionedTrie::PartitionedTrie(const trie::UnibitTrie& trie,
                                 PartitionConfig config)
    : trie_(&trie), config_(config) {
  VR_REQUIRE(config_.split_level >= 1 && config_.split_level <= 16,
             "split_level must be in [1,16]");
  VR_REQUIRE(config_.pipeline_count >= 1, "need at least one pipeline");
  index_.resize(std::size_t{1} << config_.split_level);
  assign_subtries(trie);
}

void PartitionedTrie::assign_subtries(const trie::UnibitTrie& trie) {
  const unsigned s = config_.split_level;
  std::vector<SubtrieCensus> subtries;

  // Walk every index slot's s-bit path, collecting the inherited next hop
  // and the subtrie root (if the path survives to level s).
  for (std::size_t slot = 0; slot < index_.size(); ++slot) {
    IndexEntry entry;
    trie::NodeIndex current = trie.root();
    net::NextHop best = net::kNoRoute;
    bool fell_off = false;
    for (unsigned depth = 0; depth < s; ++depth) {
      const trie::TrieNode& node = trie.node(current);
      if (node.has_route()) best = node.next_hop;
      const bool bit =
          ((slot >> (s - 1 - depth)) & std::size_t{1}) != 0;
      const trie::NodeIndex child = bit ? node.right : node.left;
      if (child == trie::kNullNode) {
        fell_off = true;
        break;
      }
      current = child;
    }
    entry.inherited = best;
    if (!fell_off) {
      entry.subtrie_root = current;
      subtries.push_back(census(trie, current, slot));
    }
    index_[slot] = entry;
  }

  // Depth bound across subtries.
  for (const SubtrieCensus& sub : subtries) {
    pipeline_depth_ = std::max(pipeline_depth_, sub.nodes_per_level.size());
  }
  if (pipeline_depth_ == 0) pipeline_depth_ = 1;

  // Memory balancing ([7]/[8]): greedy largest-first bin packing of
  // subtries over the P pipelines by node count.
  pipelines_.assign(config_.pipeline_count, trie::StageOccupancy{});
  for (auto& occ : pipelines_) {
    occ.nodes.assign(pipeline_depth_, 0);
    occ.internal_nodes.assign(pipeline_depth_, 0);
    occ.leaf_nodes.assign(pipeline_depth_, 0);
  }
  std::sort(subtries.begin(), subtries.end(),
            [](const SubtrieCensus& a, const SubtrieCensus& b) {
              return a.total() > b.total();
            });
  std::vector<std::size_t> load(config_.pipeline_count, 0);
  for (const SubtrieCensus& sub : subtries) {
    const std::size_t target = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    for (std::size_t l = 0; l < sub.nodes_per_level.size(); ++l) {
      pipelines_[target].nodes[l] += sub.nodes_per_level[l];
      pipelines_[target].internal_nodes[l] += sub.internal_per_level[l];
      pipelines_[target].leaf_nodes[l] += sub.leaves_per_level[l];
    }
    load[target] += sub.total();
    index_[sub.index_slot].pipeline = static_cast<std::uint16_t>(target);
  }
}

std::optional<net::NextHop> PartitionedTrie::lookup(net::Ipv4 addr) const {
  const unsigned s = config_.split_level;
  const std::size_t slot = addr.value() >> (32u - s);
  const IndexEntry& entry = index_[slot];
  std::optional<net::NextHop> best;
  if (entry.inherited != net::kNoRoute) best = entry.inherited;
  trie::NodeIndex current = entry.subtrie_root;
  for (unsigned depth = s; current != trie::kNullNode; ++depth) {
    const trie::TrieNode& node = trie_->node(current);
    if (node.has_route()) best = node.next_hop;
    if (depth >= 32) break;
    current = bit_at(addr.value(), depth) ? node.right : node.left;
  }
  return best;
}

std::uint64_t PartitionedTrie::index_bits() const noexcept {
  const unsigned entry_bits =
      address_bits(config_.pipeline_count) + 18u /*root ptr*/ + 8u /*NHI*/;
  return std::uint64_t{index_.size()} * entry_bits;
}

std::size_t PartitionedTrie::pipeline_nodes(std::size_t p) const {
  VR_REQUIRE(p < pipelines_.size(), "pipeline index out of range");
  return std::accumulate(pipelines_[p].nodes.begin(),
                         pipelines_[p].nodes.end(), std::size_t{0});
}

double PartitionedTrie::balance_factor() const {
  std::size_t total = 0;
  std::size_t worst = 0;
  for (std::size_t p = 0; p < pipelines_.size(); ++p) {
    const std::size_t nodes = pipeline_nodes(p);
    total += nodes;
    worst = std::max(worst, nodes);
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(pipelines_.size());
  return static_cast<double>(worst) / mean;
}

}  // namespace vr::multipipe
