// Flat stride-k lookup image — the one structure-of-arrays lookup image of
// the software lookup path, for strides 1, 2, 4 and 8. A node holds 2^k
// entries; entry (n, slot) stores a child pointer and a K-wide next-hop
// vector indexed by VNID (K = 1 for a single table, K > 1 for the VM merged
// scheme), so a walk consumes k address bits per dependent access.
//
// Two builders fill the same arrays, and they differ on purpose:
//   * Controlled prefix expansion (CPE) from routing tables, the stride
//     axis of the paper's ref. [16]: a route covers the 2^(k - r) slots its
//     last r bits select, a longer original prefix wins a slot, and a route
//     ending on a node boundary lives in its parent's entries, so no node
//     is a bare leaf. This is the memory-minimal image: `ablation_stride`
//     prices its per-level node counts. Its builder, the Writer, outlives
//     the build: the table constructors move its image out, and the
//     SnapshotPublisher keeps one and patches it per changed prefix on
//     every epoch.
//   * The stride-1 flattening of a binary trie (UnibitTrie, MergedTrie):
//     every node keeps its breadth-first index, entry (n, b) holds child b
//     of n and that child's K next hops, and the root's own hops fill the
//     root entries whose child has none. A walk therefore visits exactly
//     the binary trie's nodes, leaves included, one depth per level — the
//     one-level-per-stage mapping of paper Sec. V-D that the pipeline
//     simulator's per-stage reads price.
//
// Consumers: scalar `lookup` (verified against the UnibitTrie oracle), the
// prefetch-pipelined `lookup_batch`, and `pipeline::TrieView` (one level
// per pipeline stage).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "netbase/routing_table.hpp"
#include "netbase/traffic.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::trie {

class FlatMultibitTrie {
 public:
  /// Builds a single-VN stride-k image of a routing table by controlled
  /// prefix expansion (k in {1, 2, 4, 8}).
  FlatMultibitTrie(const net::RoutingTable& table, unsigned stride);

  /// Builds a K-way merged stride-k image: `tables[v]` is the routing
  /// table of virtual network v. All pointers non-null, K >= 1.
  FlatMultibitTrie(std::span<const net::RoutingTable* const> tables,
                   unsigned stride);

  /// Stride-1 flattening of a uni-bit trie (K = 1), node for node.
  explicit FlatMultibitTrie(const UnibitTrie& trie);

  /// Controlled prefix expansion that outlives the build (below).
  class Writer;

  /// Stride-1 flattening of a K-way binary trie, node by node (below).
  class BinaryFlattener;

  [[nodiscard]] unsigned stride() const noexcept { return stride_; }
  /// Entries per node (2^stride).
  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t vn_count() const noexcept { return vn_count_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return children_.size() / width_;
  }
  /// Total stored entries (nodes x 2^stride).
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return children_.size();
  }
  /// Allocated levels (one pipeline stage each).
  [[nodiscard]] std::size_t level_count() const noexcept {
    return level_node_counts_.size();
  }
  /// Nodes per level.
  [[nodiscard]] const std::vector<std::size_t>& level_node_counts() const
      noexcept {
    return level_node_counts_;
  }
  /// Deepest image a 32-bit walk can need: 32/stride levels of entries,
  /// plus at stride 1 the depth-32 level a flattened binary trie keeps
  /// (the nodes of /32 routes), where a walk ends without reading.
  [[nodiscard]] std::size_t max_level_count() const noexcept {
    return 32u / stride_ + (stride_ == 1 ? 1u : 0u);
  }

  /// Child pointer of entry `slot` of node `n` (kNullNode when none).
  [[nodiscard]] NodeIndex child(NodeIndex n, std::size_t slot)
      const noexcept {
    return children_[static_cast<std::size_t>(n) * width_ + slot];
  }
  /// Next hop stored at entry (n, slot) for virtual network `vn`.
  [[nodiscard]] net::NextHop next_hop(NodeIndex n, std::size_t slot,
                                      net::VnId vn = 0) const noexcept {
    return next_hops_[(static_cast<std::size_t>(n) * width_ + slot) *
                          vn_count_ +
                      vn];
  }

  /// The address bits level `l` consumes, as an entry slot (l < 32/stride).
  [[nodiscard]] std::size_t slot_of(std::uint32_t addr, std::size_t level)
      const noexcept {
    return (addr >> (32u - (level + 1) * stride_)) & slot_mask_;
  }

  /// Longest-prefix match for virtual network `vn`; nullopt when no route
  /// covers `addr`. Identical results to UnibitTrie::lookup over the same
  /// table (the differential tests pin this).
  [[nodiscard]] std::optional<net::NextHop> lookup(net::Ipv4 addr,
                                                   net::VnId vn = 0) const;

  /// Batched longest-prefix match, prefetch-pipelined: one result per
  /// address, kNoRoute where no route covers it.
  [[nodiscard]] std::vector<net::NextHop> lookup_batch(
      std::span<const net::Ipv4> addrs, net::VnId vn = 0) const;

  /// Batched lookup of VNID-tagged packets (merged-image dataplane path).
  [[nodiscard]] std::vector<net::NextHop> lookup_batch(
      std::span<const net::Packet> packets) const;

  /// Memory footprint in bits: every entry stores a `pointer_bits` child
  /// pointer and `vn_count` next hops of `nhi_bits` each.
  [[nodiscard]] std::uint64_t memory_bits(unsigned pointer_bits = 18,
                                          unsigned nhi_bits = 8) const
      noexcept {
    return std::uint64_t{entry_count()} * entry_bits(pointer_bits, nhi_bits);
  }

  /// Per-level memory bits (for stage-mapped power evaluation); sums to
  /// memory_bits().
  [[nodiscard]] std::vector<std::uint64_t> level_memory_bits(
      unsigned pointer_bits = 18, unsigned nhi_bits = 8) const;

 private:
  FlatMultibitTrie(unsigned stride, std::size_t vn_count);

  [[nodiscard]] std::uint64_t entry_bits(unsigned pointer_bits,
                                         unsigned nhi_bits) const noexcept {
    return pointer_bits + std::uint64_t{nhi_bits} * vn_count_;
  }

  [[nodiscard]] net::NextHop lookup_raw(std::uint32_t addr,
                                        net::VnId vn) const noexcept;

  /// Pipelined batch core: resolves the key (addr_at(i), vn_at(i)) into
  /// `out[i]` for i in [0, count). Defined in the implementation file;
  /// instantiated only there.
  template <typename AddrFn, typename VnFn>
  void lookup_batch_core(std::size_t count, AddrFn&& addr_at, VnFn&& vn_at,
                         net::NextHop* out) const;

  unsigned stride_;
  std::uint32_t slot_mask_;
  std::size_t width_;
  std::size_t vn_count_;
  std::vector<std::size_t> level_node_counts_;
  std::vector<NodeIndex> children_;     // node-major, width_ per node
  std::vector<net::NextHop> next_hops_; // entry-major, vn_count_ per entry
};

/// Controlled prefix expansion as a long-lived writer: the image, the length
/// of the route expanded into each entry of each VN lane (a longer original
/// prefix wins a slot), and each node's parent entry. One primitive,
/// refresh(), changes the image, so a from-scratch build (the table
/// constructors) and a per-prefix patch (trie::SnapshotPublisher) share one
/// expansion path.
class FlatMultibitTrie::Writer {
 public:
  /// The image of `tables` (one per VN, all non-null, K >= 1):
  /// refresh(v, route.prefix, route) for every route of every table, in
  /// table order.
  Writer(std::span<const net::RoutingTable* const> tables, unsigned stride);

  /// Re-expands `prefix` in lane `vn` from `owner`, the longest route of
  /// `vn` that covers `prefix` and is no longer than it (nullopt when
  /// none). Every slot of the prefix's span that no route longer than
  /// `prefix` holds takes `owner` when `owner` ends in the same node, and
  /// no route otherwise. Nodes are created only when `owner` is `prefix`
  /// itself; a node left with no hop and no child is freed, and the last
  /// node moves into its place.
  ///
  /// After any set of route changes, refreshing each changed prefix from
  /// its owner after the changes, in any order, leaves the image that a
  /// from-scratch build of the resulting routes gives, up to node
  /// numbering.
  void refresh(net::VnId vn, const net::Prefix& prefix,
               const std::optional<net::Route>& owner);

  [[nodiscard]] const FlatMultibitTrie& image() const noexcept {
    return image_;
  }

  /// Moves the image out; the writer is spent.
  [[nodiscard]] FlatMultibitTrie release() && { return std::move(image_); }

 private:
  /// An image of only the root, with `vn_count` lanes.
  Writer(unsigned stride, std::size_t vn_count);

  /// Appends an empty node at `level` and points `parent_entry` at it.
  NodeIndex allocate(std::size_t level, std::size_t parent_entry);
  /// Whether `node` holds no hop in any lane and no child.
  [[nodiscard]] bool unused(NodeIndex node) const;
  /// Frees the unused node at `level` of `addr`'s walk and every ancestor
  /// that leaves unused.
  void free_emptied(std::uint32_t addr, std::size_t level);
  /// Frees unused `node` at `level` and moves the last node into its place,
  /// renumbering that node wherever `ancestors` (a walk's path) names it.
  void free_node(NodeIndex node, std::size_t level,
                 std::span<NodeIndex> ancestors);

  FlatMultibitTrie image_;
  std::vector<std::uint8_t> route_lens_;  // parallel to image_.next_hops_
  std::vector<std::size_t> parents_;      // parent entry per node
};

/// Stride-1 flattening of a K-way binary trie, fed one node at a time in
/// breadth-first order with children numbered in the order their parents'
/// entries point to them (the order UnibitTrie and MergedTrie store). Each
/// node's hops land in its parent's entry as it is added, so the source
/// trie needs no node-major hop pool.
class FlatMultibitTrie::BinaryFlattener {
 public:
  explicit BinaryFlattener(std::size_t vn_count);

  /// Appends the next node: its children and its own `vn_count` hops.
  void add_node(NodeIndex left, NodeIndex right,
                std::span<const net::NextHop> hops);

  /// The finished image. `level_offsets` holds the first node of every
  /// level, then the node count.
  [[nodiscard]] FlatMultibitTrie finish(
      std::span<const std::size_t> level_offsets) &&;

 private:
  FlatMultibitTrie image_;
  std::size_t cursor_ = 0;  ///< next entry whose child is still to come
};

}  // namespace vr::trie
