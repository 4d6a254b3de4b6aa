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

/// Writer::parents_ entry of the root, which no entry points to.
constexpr std::size_t kNoParent = ~std::size_t{0};

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

FlatMultibitTrie::FlatMultibitTrie(const net::RoutingTable& table,
                                   unsigned stride)
    : FlatMultibitTrie(std::span<const net::RoutingTable* const>(
                           std::array{&table}),
                       stride) {}

FlatMultibitTrie::FlatMultibitTrie(
    std::span<const net::RoutingTable* const> tables, unsigned stride)
    : FlatMultibitTrie(Writer(tables, stride).release()) {}

FlatMultibitTrie::Writer::Writer(unsigned stride, std::size_t vn_count)
    : image_(stride, vn_count) {
  allocate(0, kNoParent);
}

FlatMultibitTrie::Writer::Writer(
    std::span<const net::RoutingTable* const> tables, unsigned stride)
    : Writer(stride, tables.size()) {
  for (std::size_t v = 0; v < tables.size(); ++v) {
    VR_REQUIRE(tables[v] != nullptr, "null table in merged multibit input");
    for (const net::Route& route : tables[v]->routes()) {
      refresh(static_cast<net::VnId>(v), route.prefix, route);
    }
  }
}

NodeIndex FlatMultibitTrie::Writer::allocate(std::size_t level,
                                             std::size_t parent_entry) {
  const NodeIndex index =
      checked_node_index(image_.node_count(), "flat multibit trie");
  const std::size_t lanes = image_.width_ * image_.vn_count_;
  image_.children_.resize(image_.children_.size() + image_.width_,
                          kNullNode);
  image_.next_hops_.resize(image_.next_hops_.size() + lanes, net::kNoRoute);
  route_lens_.resize(route_lens_.size() + lanes, 0);
  parents_.push_back(parent_entry);
  if (parent_entry != kNoParent) image_.children_[parent_entry] = index;
  std::vector<std::size_t>& counts = image_.level_node_counts_;
  if (counts.size() <= level) counts.resize(level + 1, 0);
  ++counts[level];
  return index;
}

bool FlatMultibitTrie::Writer::unused(NodeIndex node) const {
  const std::size_t width = image_.width_;
  const std::size_t lanes = width * image_.vn_count_;
  const auto children =
      std::span(image_.children_).subspan(std::size_t{node} * width, width);
  const auto hops =
      std::span(image_.next_hops_).subspan(std::size_t{node} * lanes, lanes);
  return std::all_of(children.begin(), children.end(),
                     [](NodeIndex c) { return c == kNullNode; }) &&
         std::all_of(hops.begin(), hops.end(),
                     [](net::NextHop h) { return h == net::kNoRoute; });
}

void FlatMultibitTrie::Writer::free_node(NodeIndex node, std::size_t level,
                                         std::span<NodeIndex> ancestors) {
  const std::size_t width = image_.width_;
  const std::size_t lanes = width * image_.vn_count_;
  image_.children_[parents_[node]] = kNullNode;
  const NodeIndex last =
      checked_node_index(image_.node_count() - 1, "flat multibit trie");
  if (node != last) {
    // The last node moves into the hole: its entries, the parent entry
    // pointing at it, its children's parent entries, and its place on the
    // walk that is freeing nodes.
    const std::size_t to = std::size_t{node} * width;
    std::copy_n(image_.children_.data() + std::size_t{last} * width, width,
                image_.children_.data() + to);
    std::copy_n(image_.next_hops_.data() + std::size_t{last} * lanes, lanes,
                image_.next_hops_.data() + std::size_t{node} * lanes);
    std::copy_n(route_lens_.data() + std::size_t{last} * lanes, lanes,
                route_lens_.data() + std::size_t{node} * lanes);
    parents_[node] = parents_[last];
    image_.children_[parents_[node]] = node;
    for (std::size_t slot = 0; slot < width; ++slot) {
      const NodeIndex child = image_.children_[to + slot];
      if (child != kNullNode) parents_[child] = to + slot;
    }
    std::replace(ancestors.begin(), ancestors.end(), last, node);
  }
  image_.children_.resize(std::size_t{last} * width);
  image_.next_hops_.resize(std::size_t{last} * lanes);
  route_lens_.resize(std::size_t{last} * lanes);
  parents_.pop_back();
  // A level left empty has no node below it either.
  std::vector<std::size_t>& counts = image_.level_node_counts_;
  --counts[level];
  while (counts.back() == 0) counts.pop_back();
}

void FlatMultibitTrie::Writer::refresh(
    net::VnId vn, const net::Prefix& prefix,
    const std::optional<net::Route>& owner) {
  VR_REQUIRE(vn < image_.vn_count_, "VNID out of range");
  const unsigned stride = image_.stride_;
  const unsigned length = prefix.length();
  const std::uint32_t addr = prefix.address().value();
  const bool installed = owner && owner->prefix == prefix;
  // Structural nodes are shared across VNs (a node exists wherever any VN
  // needs one).
  NodeIndex node = 0;
  std::size_t level = 0;
  unsigned consumed = 0;
  while (length - consumed > stride) {
    const std::size_t entry =
        std::size_t{node} * image_.width_ + image_.slot_of(addr, level);
    node = image_.children_[entry];
    if (node == kNullNode) {
      // Only an installed route needs a missing node; without one the
      // prefix has no slot to rewrite and no node to free.
      if (!installed) return;
      node = allocate(level + 1, entry);
    }
    ++level;
    consumed += stride;
  }
  // Controlled prefix expansion of the final (possibly partial) stride:
  // the prefix covers 2^(stride - r) consecutive slots (r == 0 only for the
  // default route). A slot held by a route no longer than the prefix takes
  // the owner when the owner ends in this node (every route ends in the
  // root when consumed == 0) and no route otherwise; a slot held by a
  // longer route keeps it.
  const unsigned r = length - consumed;
  const std::size_t base =
      r == 0 ? 0
             : image_.slot_of(addr, level) &
                   ~((std::size_t{1} << (stride - r)) - 1u);
  const std::size_t span = std::size_t{1} << (stride - r);
  const bool here =
      owner && (owner->prefix.length() > consumed || consumed == 0);
  const net::NextHop hop = here ? owner->next_hop : net::kNoRoute;
  const unsigned owner_len = here ? owner->prefix.length() : 0;
  // narrow-ok: an IPv4 prefix length is at most 32
  const auto hop_len = static_cast<std::uint8_t>(owner_len);
  const std::size_t node_base = std::size_t{node} * image_.width_;
  for (std::size_t i = 0; i < span; ++i) {
    const std::size_t e = (node_base + base + i) * image_.vn_count_ + vn;
    if (route_lens_[e] <= length) {
      image_.next_hops_[e] = hop;
      route_lens_[e] = hop_len;
    }
  }
  // A node left with no hop and no child serves no route; the root stays.
  // A node the owner ends in holds a hop (the owner's, or a longer
  // route's), so only a refresh to no route can empty one.
  if (!here && level > 0 && unused(node)) free_emptied(addr, level);
}

void FlatMultibitTrie::Writer::free_emptied(std::uint32_t addr,
                                            std::size_t level) {
  // The walk to the node again, so that it and every ancestor it leaves
  // unused can be freed bottom-up.
  std::array<NodeIndex, 32> path{};
  for (std::size_t l = 0; l < level; ++l) {
    path[l + 1] = image_.children_[std::size_t{path[l]} * image_.width_ +
                                   image_.slot_of(addr, l)];
  }
  for (; level > 0 && unused(path[level]); --level) {
    free_node(path[level], level, std::span(path).first(level));
  }
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
