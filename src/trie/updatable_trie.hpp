// Incrementally updatable binary trie shared by K virtual networks.
//
// The paper's Sec. V-B assumes a 1 % BRAM write rate ("low update rate"),
// and its reference [6] ("Towards on-the-fly incremental updates for
// virtualized routers on FPGA") applies route updates in place instead of
// rebuilding. This class is that control plane for K in [1, 64] virtual
// networks (K = 1 is a plain router): per-VN announce/withdraw with exact
// accounting of the memory words each update writes — the input of the
// update-rate power model (power/update_power.hpp) and of the
// `ablation_update_rate` and `ablation_write_amplification` benches. Each
// node also records which VNs' own tries contain it, so the structural
// merging efficiency α stays measurable along an update stream.
//
// Unlike UnibitTrie and virt::MergedTrie (immutable deployment images),
// nodes live in a pool with a free list. covering_route() gives, per
// changed prefix, the route a stride-k image patch expands there
// (trie::SnapshotPublisher); table_of() exports one VN's routes, the input
// of a from-scratch image build (the tests' oracle).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netbase/route_update.hpp"
#include "netbase/routing_table.hpp"
#include "netbase/traffic.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::trie {

/// Memory-write accounting of one applied update.
struct UpdateCost {
  std::size_t nodes_created = 0;
  std::size_t nodes_removed = 0;
  /// Node words written: the parent's pointer word and the fresh node's
  /// word per created node, the parent's pointer word per removed node,
  /// and one word for the next-hop write itself. The one exception is an
  /// announce that creates nodes at K = 1: a single trie keeps the next
  /// hop in the node's own word, already counted. At K >= 2 the hop goes
  /// into the node's separate K-wide NHI vector (paper Sec. V-D,
  /// NodeEncoding::leaf_word_bits), one more word.
  std::size_t words_written = 0;

  UpdateCost& operator+=(const UpdateCost& other) noexcept {
    nodes_created += other.nodes_created;
    nodes_removed += other.nodes_removed;
    words_written += other.words_written;
    return *this;
  }
};

class UpdatableTrie {
 public:
  /// Builds the trie of `tables`, one per virtual network; K =
  /// tables.size() must be in [1, 64].
  explicit UpdatableTrie(std::span<const net::RoutingTable* const> tables);
  /// One virtual network (VN 0) starting from `table`.
  explicit UpdatableTrie(const net::RoutingTable& table = {});

  /// Applies one update on behalf of `vn`; returns its write cost.
  /// Withdrawing an absent prefix or announcing an identical route is a
  /// no-op with zero writes.
  UpdateCost apply(net::VnId vn, const net::RouteUpdate& update);

  UpdateCost announce(net::VnId vn, const net::Route& route) {
    return apply(vn, {net::RouteUpdate::Kind::kAnnounce, route});
  }
  UpdateCost withdraw(net::VnId vn, const net::Prefix& prefix) {
    return apply(vn,
                 {net::RouteUpdate::Kind::kWithdraw, {prefix, net::kNoRoute}});
  }

  /// Longest-prefix match in `vn`'s routes.
  [[nodiscard]] std::optional<net::NextHop> lookup(net::Ipv4 addr,
                                                   net::VnId vn) const;

  /// The longest route of `vn` that covers `prefix` and is no longer than
  /// it (`prefix`'s own route when installed); nullopt when none. A walk of
  /// at most 32 nodes below the root.
  [[nodiscard]] std::optional<net::Route> covering_route(
      net::VnId vn, const net::Prefix& prefix) const;

  [[nodiscard]] std::size_t vn_count() const noexcept { return vn_count_; }
  /// Live node count, including the root.
  [[nodiscard]] std::size_t node_count() const noexcept {
    return live_nodes_;
  }
  /// Nodes of virtual network `vn`'s own trie.
  [[nodiscard]] std::size_t present_count(net::VnId vn) const;
  /// Installed route count of `vn`.
  [[nodiscard]] std::size_t route_count(net::VnId vn) const;

  /// Current effective merging efficiency (trie::alpha_from_counts).
  [[nodiscard]] double alpha_effective() const;

  /// Exports `vn`'s current routes as a table (sorted).
  [[nodiscard]] net::RoutingTable table_of(net::VnId vn) const;

  /// Capacity of the node pool including freed slots (for tests asserting
  /// slot reuse).
  [[nodiscard]] std::size_t pool_size() const noexcept {
    return nodes_.size();
  }

 private:
  struct Node {
    NodeIndex left = kNullNode;
    NodeIndex right = kNullNode;

    [[nodiscard]] bool is_leaf() const noexcept {
      return left == kNullNode && right == kNullNode;
    }
  };

  /// Index of (node, vn) in the node-major per-VN arrays.
  [[nodiscard]] std::size_t slot(NodeIndex node, net::VnId vn) const {
    return std::size_t{node} * vn_count_ + vn;
  }
  [[nodiscard]] net::NextHop& hop_at(NodeIndex node, net::VnId vn) {
    return next_hops_[slot(node, vn)];
  }
  [[nodiscard]] net::NextHop hop_at(NodeIndex node, net::VnId vn) const {
    return next_hops_[slot(node, vn)];
  }
  /// Whether `node` (possibly kNullNode) is in `vn`'s own trie.
  [[nodiscard]] bool present(NodeIndex node, net::VnId vn) const;
  /// Sets `node`'s presence bit for `vn` to `on`, keeping present_counts_
  /// exact; returns whether the bit changed.
  bool mark(NodeIndex node, net::VnId vn, bool on);
  /// Whether any virtual network has a route at `node`.
  [[nodiscard]] bool holds_route(NodeIndex node) const;
  void check_vn(net::VnId vn) const;

  NodeIndex allocate();

  UpdateCost do_announce(net::VnId vn, const net::Route& route);
  UpdateCost do_withdraw(net::VnId vn, const net::Prefix& prefix);

  std::size_t vn_count_;
  std::vector<Node> nodes_;
  std::vector<net::NextHop> next_hops_;  // node-major, K per node
  /// Bit slot(n, v): node n is in VN v's trie, i.e. it or a node below it
  /// holds one of v's routes (the root is in every VN's trie).
  std::vector<std::uint64_t> presence_;
  std::vector<NodeIndex> free_list_;
  std::vector<std::size_t> route_counts_;
  std::vector<std::size_t> present_counts_;
  std::size_t live_nodes_ = 0;
};

}  // namespace vr::trie
