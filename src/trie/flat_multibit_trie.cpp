#include "trie/flat_multibit_trie.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace vr::trie {

namespace {

/// Keys in flight in the batched lookup pipeline. A window of 8 hides the
/// dependent-load latency of a stride-8 walk (bench/perf_lookup).
constexpr unsigned kBatchWindow = 8;

/// Portable prefetch-for-read hint; compiles to nothing when the builtin
/// is unavailable.
inline void prefetch_read(const void* address) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/1);
#else
  (void)address;
#endif
}

/// Batched-lookup counters, registered once.
struct LookupMetrics {
  obs::Counter& batches;
  obs::Counter& keys;

  static const LookupMetrics& get() {
    static LookupMetrics metrics = [] {
      obs::Registry& reg = obs::Registry::global();
      return LookupMetrics{reg.counter("trie.lookup_batches"),
                           reg.counter("trie.lookup_keys")};
    }();
    return metrics;
  }
};

}  // namespace

FlatMultibitTrie::FlatMultibitTrie(unsigned stride, std::size_t vn_count)
    : stride_(stride),
      slot_mask_((1u << stride) - 1u),
      width_(std::size_t{1} << stride),
      vn_count_(vn_count) {
  VR_REQUIRE(stride == 1 || stride == 2 || stride == 4 || stride == 8,
             "flat multibit stride must be 1, 2, 4 or 8");
  VR_REQUIRE(vn_count_ >= 1, "flat multibit trie needs at least one VN");
  VR_REQUIRE(vn_count_ <= 0xffffu, "VN count exceeds the VNID width");
}

/// Build-time scaffolding of controlled prefix expansion: the image under
/// construction plus the per-entry per-VN expanded-route lengths that break
/// ties (longer original prefixes win). The lengths are discarded once
/// every route is inserted.
struct FlatMultibitTrie::Builder {
  FlatMultibitTrie image;
  std::vector<std::uint8_t> route_lens;  // parallel to image.next_hops_

  Builder(unsigned stride, std::size_t vn_count) : image(stride, vn_count) {
    allocate(0);
  }

  NodeIndex allocate(std::size_t level) {
    const NodeIndex index =
        checked_node_index(image.node_count(), "flat multibit trie");
    image.children_.insert(image.children_.end(), image.width_, kNullNode);
    image.next_hops_.insert(image.next_hops_.end(),
                            image.width_ * image.vn_count_, net::kNoRoute);
    route_lens.insert(route_lens.end(), image.width_ * image.vn_count_, 0);
    std::vector<std::size_t>& counts = image.level_node_counts_;
    if (counts.size() <= level) counts.resize(level + 1, 0);
    ++counts[level];
    return index;
  }

  [[nodiscard]] NodeIndex& child_ref(NodeIndex node, std::size_t slot) {
    return image.children_[static_cast<std::size_t>(node) * image.width_ +
                           slot];
  }

  /// Inserts one route of virtual network `vn` into the VN's own lane of
  /// the K-wide next-hop vectors. Structural nodes are shared across VNs
  /// (a node exists wherever any VN needs one).
  void insert(net::VnId vn, const net::Route& route) {
    const unsigned stride = image.stride_;
    const unsigned length = route.prefix.length();
    const std::uint32_t addr = route.prefix.address().value();
    NodeIndex current = 0;
    unsigned consumed = 0;
    while (length - consumed > stride) {
      const std::size_t slot =
          (addr >> (32u - consumed - stride)) & image.slot_mask_;
      if (child_ref(current, slot) == kNullNode) {
        const NodeIndex fresh = allocate(consumed / stride + 1);
        child_ref(current, slot) = fresh;
      }
      current = child_ref(current, slot);
      consumed += stride;
    }
    // Controlled prefix expansion of the final (possibly partial) stride:
    // the route covers 2^(stride - r) consecutive slots. A covered slot is
    // overwritten when empty or when this route's original prefix is at
    // least as long as the one already expanded there (r == 0 only for the
    // default route, which therefore never displaces a real route).
    const unsigned r = length - consumed;
    const std::size_t base =
        r == 0 ? 0
               : ((addr >> (32u - consumed - stride)) & image.slot_mask_ &
                  ~((1u << (stride - r)) - 1u));
    const std::size_t span = std::size_t{1} << (stride - r);
    const std::size_t node_base =
        static_cast<std::size_t>(current) * image.width_;
    for (std::size_t i = 0; i < span; ++i) {
      const std::size_t e =
          (node_base + base + i) * image.vn_count_ + vn;
      if (image.next_hops_[e] == net::kNoRoute || route_lens[e] <= length) {
        image.next_hops_[e] = route.next_hop;
        // narrow-ok: an IPv4 prefix length is at most 32
        route_lens[e] = static_cast<std::uint8_t>(length);
      }
    }
  }
};

FlatMultibitTrie::FlatMultibitTrie(const net::RoutingTable& table,
                                   unsigned stride)
    : FlatMultibitTrie(std::span<const net::RoutingTable* const>(
                           std::array{&table}),
                       stride) {}

FlatMultibitTrie::FlatMultibitTrie(
    std::span<const net::RoutingTable* const> tables, unsigned stride)
    : FlatMultibitTrie(stride, tables.size()) {
  Builder builder(stride, tables.size());
  for (std::size_t v = 0; v < tables.size(); ++v) {
    VR_REQUIRE(tables[v] != nullptr, "null table in merged multibit input");
    for (const net::Route& route : tables[v]->routes()) {
      builder.insert(static_cast<net::VnId>(v), route);
    }
  }
  *this = std::move(builder.image);
}

FlatMultibitTrie::FlatMultibitTrie(const UnibitTrie& trie)
    : FlatMultibitTrie(1, 1) {
  BinaryFlattener flattener(1);
  for (const TrieNode& node : trie.nodes()) {
    flattener.add_node(node.left, node.right, {&node.next_hop, 1});
  }
  *this = std::move(flattener).finish(trie.level_offsets());
}

FlatMultibitTrie::BinaryFlattener::BinaryFlattener(std::size_t vn_count)
    : image_(1, vn_count) {}

void FlatMultibitTrie::BinaryFlattener::add_node(
    NodeIndex left, NodeIndex right, std::span<const net::NextHop> hops) {
  const std::size_t k = image_.vn_count_;
  VR_REQUIRE(hops.size() == k, "a node needs one next hop per VN");
  std::vector<NodeIndex>& children = image_.children_;
  std::vector<net::NextHop>& entry_hops = image_.next_hops_;
  const NodeIndex index =
      checked_node_index(children.size() / 2, "stride-1 flattening");
  if (index == 0) {
    // The root has no parent entry: its own hops back both root entries
    // until a child with a hop of its own replaces them.
    for (int b = 0; b < 2; ++b) {
      entry_hops.insert(entry_hops.end(), hops.begin(), hops.end());
    }
  } else {
    // Breadth-first numbering: the next entry with a child points here.
    while (cursor_ < children.size() && children[cursor_] == kNullNode) {
      ++cursor_;
    }
    VR_REQUIRE(cursor_ < children.size() && children[cursor_] == index,
               "flattened nodes must arrive in breadth-first order");
    for (std::size_t v = 0; v < k; ++v) {
      if (hops[v] != net::kNoRoute) entry_hops[cursor_ * k + v] = hops[v];
    }
    ++cursor_;
    entry_hops.resize(entry_hops.size() + 2 * k, net::kNoRoute);
  }
  children.push_back(left);
  children.push_back(right);
}

FlatMultibitTrie FlatMultibitTrie::BinaryFlattener::finish(
    std::span<const std::size_t> level_offsets) && {
  const std::vector<NodeIndex>& children = image_.children_;
  VR_REQUIRE(!children.empty(), "a flattened trie needs at least the root");
  VR_REQUIRE(std::all_of(children.begin() + static_cast<std::ptrdiff_t>(
                                                 cursor_),
                         children.end(),
                         [](NodeIndex c) { return c == kNullNode; }),
             "child index out of range");
  VR_REQUIRE(level_offsets.size() >= 2 && level_offsets.front() == 0 &&
                 level_offsets.back() == image_.node_count(),
             "level offsets must span every node");
  for (std::size_t l = 0; l + 1 < level_offsets.size(); ++l) {
    image_.level_node_counts_.push_back(level_offsets[l + 1] -
                                        level_offsets[l]);
  }
  return std::move(image_);
}

std::vector<std::uint64_t> FlatMultibitTrie::level_memory_bits(
    unsigned pointer_bits, unsigned nhi_bits) const {
  std::vector<std::uint64_t> out;
  out.reserve(level_node_counts_.size());
  for (const std::size_t count : level_node_counts_) {
    out.push_back(std::uint64_t{count} * width_ *
                  entry_bits(pointer_bits, nhi_bits));
  }
  return out;
}

net::NextHop FlatMultibitTrie::lookup_raw(std::uint32_t addr,
                                          net::VnId vn) const noexcept {
  net::NextHop best = net::kNoRoute;
  NodeIndex node = 0;
  for (unsigned consumed = 0; consumed < 32; consumed += stride_) {
    const std::size_t entry =
        static_cast<std::size_t>(node) * width_ +
        ((addr >> (32u - consumed - stride_)) & slot_mask_);
    const net::NextHop hop = next_hops_[entry * vn_count_ + vn];
    if (hop != net::kNoRoute) best = hop;
    const NodeIndex child = children_[entry];
    if (child == kNullNode) break;
    node = child;
  }
  return best;
}

std::optional<net::NextHop> FlatMultibitTrie::lookup(net::Ipv4 addr,
                                                     net::VnId vn) const {
  const net::NextHop hop = lookup_raw(addr.value(), vn);
  return hop == net::kNoRoute ? std::nullopt
                              : std::optional<net::NextHop>(hop);
}

template <typename AddrFn, typename VnFn>
void FlatMultibitTrie::lookup_batch_core(std::size_t count, AddrFn&& addr_at,
                                         VnFn&& vn_at,
                                         net::NextHop* out) const {
  // Lane-interleaved software pipeline: a window of kBatchWindow lookups is
  // in flight; each round advances every lane one level and prefetches the
  // exact entry the lane will read next round, so the dependent memory
  // accesses of different keys overlap instead of serializing. Finished
  // lanes are refilled from the remaining keys.
  struct Lane {
    std::uint32_t addr;
    NodeIndex node;
    unsigned consumed;
    net::NextHop best;
    net::VnId vn;
    std::size_t out_index;
  };
  Lane lanes[kBatchWindow];
  std::size_t issued = 0;
  unsigned active = 0;
  const auto start_lane = [&](Lane& lane, std::size_t i) {
    lane.addr = addr_at(i);
    lane.node = 0;
    lane.consumed = 0;
    lane.best = net::kNoRoute;
    lane.vn = vn_at(i);
    lane.out_index = i;
  };
  while (issued < count && active < kBatchWindow) {
    start_lane(lanes[active++], issued);
    ++issued;
  }
  while (active > 0) {
    for (unsigned l = 0; l < active;) {
      Lane& lane = lanes[l];
      const std::size_t entry =
          static_cast<std::size_t>(lane.node) * width_ +
          ((lane.addr >> (32u - lane.consumed - stride_)) & slot_mask_);
      const net::NextHop hop = next_hops_[entry * vn_count_ + lane.vn];
      if (hop != net::kNoRoute) lane.best = hop;
      const NodeIndex child = children_[entry];
      lane.consumed += stride_;
      if (child == kNullNode || lane.consumed >= 32) {
        out[lane.out_index] = lane.best;
        if (issued < count) {
          start_lane(lane, issued);  // reuse the lane for the next key
          ++issued;
          ++l;
        } else {
          // Compact: the moved-in lane has not stepped this round yet, so
          // do not advance l.
          lanes[l] = lanes[--active];
        }
      } else {
        lane.node = child;
        const std::size_t next_entry =
            static_cast<std::size_t>(child) * width_ +
            ((lane.addr >> (32u - lane.consumed - stride_)) & slot_mask_);
        prefetch_read(&children_[next_entry]);
        prefetch_read(&next_hops_[next_entry * vn_count_ + lane.vn]);
        ++l;
      }
    }
  }
}

std::vector<net::NextHop> FlatMultibitTrie::lookup_batch(
    std::span<const net::Ipv4> addrs, net::VnId vn) const {
  const LookupMetrics& metrics = LookupMetrics::get();
  metrics.batches.add(1);
  metrics.keys.add(addrs.size());
  std::vector<net::NextHop> out(addrs.size(), net::kNoRoute);
  lookup_batch_core(
      addrs.size(), [&](std::size_t i) { return addrs[i].value(); },
      [&](std::size_t) { return vn; }, out.data());
  return out;
}

std::vector<net::NextHop> FlatMultibitTrie::lookup_batch(
    std::span<const net::Packet> packets) const {
  const LookupMetrics& metrics = LookupMetrics::get();
  metrics.batches.add(1);
  metrics.keys.add(packets.size());
  std::vector<net::NextHop> out(packets.size(), net::kNoRoute);
  lookup_batch_core(
      packets.size(),
      [&](std::size_t i) { return packets[i].addr.value(); },
      [&](std::size_t i) { return packets[i].vnid; }, out.data());
  return out;
}

}  // namespace vr::trie
