// Uni-bit binary trie for IP lookup — the representative data structure the
// paper maps onto the lookup pipeline (Sec. V-D): one trie level per
// pipeline stage, NHI stored at leaves after leaf pushing.
#pragma once

#include <cassert>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "netbase/routing_table.hpp"

namespace vr::trie {

/// Index of a node inside a trie's node vector.
using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kNullNode = 0xffffffffu;

/// Largest node count any trie or flat image may hold: kNullNode is a
/// sentinel, so valid indices are [0, kMaxNodeCount).
inline constexpr std::size_t kMaxNodeCount =
    static_cast<std::size_t>(kNullNode);

/// Narrows a node position to NodeIndex, aborting loudly when the count
/// has outgrown the index type instead of silently wrapping — a flat image
/// built from a wrapped index would alias unrelated nodes and return
/// plausible-but-wrong next hops. `context` names the structure being
/// built (appears in the abort message).
[[nodiscard]] inline NodeIndex checked_node_index(std::size_t index,
                                                  const char* context) {
  VR_REQUIRE(index < kMaxNodeCount,
             std::string(context) +
                 ": node count exceeds what NodeIndex can address (" +
                 std::to_string(index) + " >= " +
                 std::to_string(kMaxNodeCount) + ")");
  return static_cast<NodeIndex>(index);
}

/// A trie node. Nodes are stored level-contiguously after construction so
/// that mapping onto pipeline stages is a simple slice per level.
struct TrieNode {
  NodeIndex left = kNullNode;   // child for bit 0
  NodeIndex right = kNullNode;  // child for bit 1
  /// Next hop attached to this node (kNoRoute if none). After leaf pushing
  /// only leaves carry one.
  net::NextHop next_hop = net::kNoRoute;

  [[nodiscard]] bool is_leaf() const noexcept {
    return left == kNullNode && right == kNullNode;
  }
  [[nodiscard]] bool has_route() const noexcept {
    return next_hop != net::kNoRoute;
  }
};

/// A routing table a trie can be built from, whatever its key width: its
/// routes expose `prefix.length()`, `prefix.bit(i)` (0 = most significant)
/// and `next_hop` (net::RoutingTable, ipv6::RoutingTable6).
template <typename Table>
concept PrefixTable = requires(const Table& table) {
  { table.routes().front().prefix.length() } -> std::convertible_to<unsigned>;
  { table.routes().front().prefix.bit(0u) } -> std::convertible_to<bool>;
  { table.routes().front().next_hop } -> std::convertible_to<net::NextHop>;
};

/// An immutable uni-bit trie built from a routing table. Always contains at
/// least the root node. Supports longest-prefix-match lookup and leaf
/// pushing (Sec. V-D; [16] in the paper).
class UnibitTrie {
 public:
  /// Builds the trie of a routing table. The node vector is stored in
  /// breadth-first (level) order: all level-0 nodes, then level-1, ...
  template <PrefixTable Table>
  explicit UnibitTrie(const Table& table) {
    nodes_.push_back(TrieNode{});  // root
    for (const auto& route : table.routes()) {
      NodeIndex current = 0;
      for (unsigned depth = 0; depth < route.prefix.length(); ++depth) {
        const bool go_right = route.prefix.bit(depth);
        NodeIndex& child =
            go_right ? nodes_[current].right : nodes_[current].left;
        if (child == kNullNode) {
          child = checked_node_index(nodes_.size(), "unibit trie");
          nodes_.push_back(TrieNode{});
        }
        current = go_right ? nodes_[current].right : nodes_[current].left;
      }
      nodes_[current].next_hop = route.next_hop;
    }
    canonicalize();
  }

  /// Longest-prefix match: next hop of the most specific route covering
  /// `addr`, or nullopt. Walks the trie's own nodes: this is the oracle
  /// the flat lookup images are tested against.
  [[nodiscard]] std::optional<net::NextHop> lookup(net::Ipv4 addr) const;

  /// Batched longest-prefix match: one entry per address, net::kNoRoute
  /// where no route covers it.
  [[nodiscard]] std::vector<net::NextHop> lookup_batch(
      std::span<const net::Ipv4> addrs) const;

  /// Returns the leaf-pushed version of this trie: internal prefixes are
  /// pushed down so that (a) every internal node has exactly two children
  /// and (b) only leaves carry next hops. Lookup results are identical
  /// (for addresses with no route, leaf-pushed lookup also returns nullopt
  /// because pushed leaves inherit kNoRoute when there is nothing to push).
  [[nodiscard]] UnibitTrie leaf_pushed() const;

  [[nodiscard]] bool is_leaf_pushed() const noexcept { return leaf_pushed_; }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::span<const TrieNode> nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const TrieNode& node(NodeIndex i) const {
    return nodes_[i];
  }
  [[nodiscard]] NodeIndex root() const noexcept { return 0; }

  /// Depth of the deepest node; the empty-table trie has height 0.
  ///
  /// Invariant: after construction `level_offsets_` always has >= 2
  /// entries ({0, 1} for the root-only trie of an empty table), so the
  /// subtractions here and in level_count() cannot underflow. The assert
  /// guards against uses of a moved-from trie.
  [[nodiscard]] unsigned height() const noexcept {
    assert(level_offsets_.size() >= 2 && "trie has no levels (moved-from?)");
    return static_cast<unsigned>(level_offsets_.size() - 2);
  }

  /// Number of levels (height + 1).
  [[nodiscard]] std::size_t level_count() const noexcept {
    assert(level_offsets_.size() >= 2 && "trie has no levels (moved-from?)");
    return level_offsets_.size() - 1;
  }

  /// Nodes of level `l` as a contiguous span (level order is guaranteed).
  [[nodiscard]] std::span<const TrieNode> level(std::size_t l) const;

  /// First node index of level `l` (level_offsets()[level_count()] is the
  /// total node count).
  [[nodiscard]] std::span<const std::size_t> level_offsets() const noexcept {
    return level_offsets_;
  }

  /// Level of a node (O(log levels)).
  [[nodiscard]] std::size_t level_of(NodeIndex node) const;

 private:
  UnibitTrie() = default;

  /// Re-canonicalizes `nodes_` into breadth-first order and rebuilds
  /// level_offsets_.
  void canonicalize();

  std::vector<TrieNode> nodes_;
  std::vector<std::size_t> level_offsets_;  // size level_count()+1
  bool leaf_pushed_ = false;
};

}  // namespace vr::trie
