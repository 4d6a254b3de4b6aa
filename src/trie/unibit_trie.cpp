#include "trie/unibit_trie.hpp"

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace vr::trie {

void UnibitTrie::canonicalize() {
  // Breadth-first renumbering so that each level occupies a contiguous
  // index range (required by the level()/stage-mapping API).
  std::vector<TrieNode> ordered;
  ordered.reserve(nodes_.size());
  std::vector<NodeIndex> frontier{0};
  level_offsets_.clear();
  level_offsets_.push_back(0);

  std::vector<NodeIndex> remap(nodes_.size(), kNullNode);
  while (!frontier.empty()) {
    std::vector<NodeIndex> next;
    for (const NodeIndex old_index : frontier) {
      remap[old_index] = checked_node_index(ordered.size(), "unibit trie");
      ordered.push_back(nodes_[old_index]);
      if (nodes_[old_index].left != kNullNode) {
        next.push_back(nodes_[old_index].left);
      }
      if (nodes_[old_index].right != kNullNode) {
        next.push_back(nodes_[old_index].right);
      }
    }
    level_offsets_.push_back(ordered.size());
    frontier = std::move(next);
  }
  // level_offsets_ now ends with a duplicate of the total for the empty
  // frontier round; keep exactly level_count()+1 entries.
  if (level_offsets_.size() >= 2 &&
      level_offsets_[level_offsets_.size() - 1] ==
          level_offsets_[level_offsets_.size() - 2]) {
    level_offsets_.pop_back();
  }

  for (TrieNode& node : ordered) {
    if (node.left != kNullNode) node.left = remap[node.left];
    if (node.right != kNullNode) node.right = remap[node.right];
  }
  nodes_ = std::move(ordered);
}

std::optional<net::NextHop> UnibitTrie::lookup(net::Ipv4 addr) const {
  std::optional<net::NextHop> best;
  NodeIndex current = 0;
  for (unsigned depth = 0;; ++depth) {
    const TrieNode& node = nodes_[current];
    if (node.has_route()) best = node.next_hop;
    if (depth == 32) break;
    current = bit_at(addr.value(), depth) ? node.right : node.left;
    if (current == kNullNode) break;
  }
  return best;
}

std::vector<net::NextHop> UnibitTrie::lookup_batch(
    std::span<const net::Ipv4> addrs) const {
  std::vector<net::NextHop> out;
  out.reserve(addrs.size());
  for (const net::Ipv4 addr : addrs) {
    out.push_back(lookup(addr).value_or(net::kNoRoute));
  }
  return out;
}

UnibitTrie UnibitTrie::leaf_pushed() const {
  UnibitTrie pushed;
  pushed.nodes_.reserve(nodes_.size() * 2);
  pushed.nodes_.push_back(TrieNode{});

  // Iterative DFS copying the trie while pushing the inherited next hop
  // down to the leaves. Missing siblings of internal nodes are material-
  // ized as new leaves carrying the inherited hop, so every internal node
  // of the result has exactly two children.
  struct Frame {
    NodeIndex src;        // node in *this (kNullNode => synthesize a leaf)
    NodeIndex dst;        // node in `pushed`
    net::NextHop inherited;
  };
  std::vector<Frame> stack{{0, 0, net::kNoRoute}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.src == kNullNode) {
      // Synthesized leaf: carries whatever route was inherited.
      pushed.nodes_[frame.dst].next_hop = frame.inherited;
      continue;
    }
    const TrieNode& src = nodes_[frame.src];
    const net::NextHop effective =
        src.has_route() ? src.next_hop : frame.inherited;
    if (src.is_leaf()) {
      pushed.nodes_[frame.dst].next_hop = effective;
      continue;
    }
    // Internal node: never carries a route after pushing; both children
    // exist in the output.
    const NodeIndex left_dst =
        checked_node_index(pushed.nodes_.size(), "leaf-pushed trie");
    pushed.nodes_.push_back(TrieNode{});
    const NodeIndex right_dst =
        checked_node_index(pushed.nodes_.size(), "leaf-pushed trie");
    pushed.nodes_.push_back(TrieNode{});
    pushed.nodes_[frame.dst].left = left_dst;
    pushed.nodes_[frame.dst].right = right_dst;
    stack.push_back(Frame{src.left, left_dst, effective});
    stack.push_back(Frame{src.right, right_dst, effective});
  }
  pushed.canonicalize();
  return pushed;
}

std::span<const TrieNode> UnibitTrie::level(std::size_t l) const {
  VR_REQUIRE(l < level_count(), "trie level out of range");
  return {nodes_.data() + level_offsets_[l],
          level_offsets_[l + 1] - level_offsets_[l]};
}

}  // namespace vr::trie
