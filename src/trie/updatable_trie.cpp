#include "trie/updatable_trie.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"

namespace vr::trie {

UpdatableTrie::UpdatableTrie(std::span<const net::RoutingTable* const> tables)
    : vn_count_(tables.size()),
      route_counts_(tables.size(), 0),
      present_counts_(tables.size(), 0) {
  VR_REQUIRE(!tables.empty() && tables.size() <= 64,
             "updatable trie supports 1..64 virtual networks");
  const NodeIndex root = allocate();
  for (net::VnId v = 0; v < vn_count_; ++v) mark(root, v, true);
  for (net::VnId v = 0; v < vn_count_; ++v) {
    VR_REQUIRE(tables[v] != nullptr, "null routing table");
    for (const net::Route& route : tables[v]->routes()) {
      announce(v, route);
    }
  }
}

UpdatableTrie::UpdatableTrie(const net::RoutingTable& table)
    : UpdatableTrie(std::array{&table}) {}

bool UpdatableTrie::present(NodeIndex node, net::VnId vn) const {
  if (node == kNullNode) return false;
  const std::size_t bit = slot(node, vn);
  return ((presence_[bit / 64] >> (bit % 64)) & 1u) != 0;
}

bool UpdatableTrie::mark(NodeIndex node, net::VnId vn, bool on) {
  const std::size_t bit = slot(node, vn);
  std::uint64_t& word = presence_[bit / 64];
  const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
  if (((word & mask) != 0) == on) return false;
  word ^= mask;
  if (on) {
    ++present_counts_[vn];
  } else {
    --present_counts_[vn];
  }
  return true;
}

bool UpdatableTrie::holds_route(NodeIndex node) const {
  const auto hops = std::span(next_hops_).subspan(slot(node, 0), vn_count_);
  return std::any_of(hops.begin(), hops.end(), [](net::NextHop hop) {
    return hop != net::kNoRoute;
  });
}

void UpdatableTrie::check_vn(net::VnId vn) const {
  VR_REQUIRE(vn < vn_count_, "VNID out of range");
}

NodeIndex UpdatableTrie::allocate() {
  ++live_nodes_;
  if (!free_list_.empty()) {
    // A freed node was a leaf with no route and so no presence bit in any
    // VN: it is reused as it is.
    const NodeIndex index = free_list_.back();
    free_list_.pop_back();
    return index;
  }
  const NodeIndex index = checked_node_index(nodes_.size(), "updatable trie");
  nodes_.emplace_back();
  next_hops_.resize(next_hops_.size() + vn_count_, net::kNoRoute);
  presence_.resize((nodes_.size() * vn_count_ + 63) / 64);
  return index;
}

UpdateCost UpdatableTrie::apply(net::VnId vn, const net::RouteUpdate& update) {
  check_vn(vn);
  switch (update.kind) {
    case net::RouteUpdate::Kind::kAnnounce:
      return do_announce(vn, update.route);
    case net::RouteUpdate::Kind::kWithdraw:
      return do_withdraw(vn, update.route.prefix);
  }
  return {};
}

UpdateCost UpdatableTrie::do_announce(net::VnId vn, const net::Route& route) {
  VR_REQUIRE(route.next_hop != net::kNoRoute,
             "announce requires a real next hop");
  UpdateCost cost;
  // The root, then the node reached by each prefix bit.
  std::array<NodeIndex, 33> path{};
  const unsigned length = route.prefix.length();
  for (unsigned depth = 0; depth < length; ++depth) {
    const NodeIndex current = path[depth];
    const bool go_right = route.prefix.bit(depth);
    NodeIndex child = go_right ? nodes_[current].right : nodes_[current].left;
    if (child == kNullNode) {
      child = allocate();  // may reallocate nodes_
      (go_right ? nodes_[current].right : nodes_[current].left) = child;
      ++cost.nodes_created;
      cost.words_written += 2;  // parent pointer word + fresh node word
    }
    path[depth + 1] = child;
  }

  net::NextHop& hop = hop_at(path[length], vn);
  if (hop == route.next_hop) return cost;  // identical route: no-op
  if (hop == net::kNoRoute) {
    ++route_counts_[vn];
    // A fresh route puts its path into `vn`'s trie. The nodes already in
    // it form the path's upper part, so marking stops at the first one.
    for (unsigned depth = length; depth > 0; --depth) {
      if (!mark(path[depth], vn, true)) break;
    }
  }
  hop = route.next_hop;
  // The K rule of UpdateCost::words_written: at K = 1 a created node's
  // word already holds the hop.
  if (vn_count_ > 1 || cost.nodes_created == 0) ++cost.words_written;
  return cost;
}

UpdateCost UpdatableTrie::do_withdraw(net::VnId vn, const net::Prefix& prefix) {
  UpdateCost cost;
  // The root, then the node reached by each prefix bit.
  std::array<NodeIndex, 33> path{};
  const unsigned length = prefix.length();
  for (unsigned depth = 0; depth < length; ++depth) {
    const Node& node = nodes_[path[depth]];
    const NodeIndex child = prefix.bit(depth) ? node.right : node.left;
    if (child == kNullNode) return cost;  // prefix not present: no-op
    path[depth + 1] = child;
  }
  net::NextHop& hop = hop_at(path[length], vn);
  if (hop == net::kNoRoute) return cost;  // `vn` has no such route
  hop = net::kNoRoute;
  --route_counts_[vn];
  ++cost.words_written;

  // Bottom-up along the path (the root always stays): a node leaves `vn`'s
  // trie once neither it nor a child is in it, and is freed once it is a
  // leaf no VN routes through.
  for (unsigned depth = length; depth > 0; --depth) {
    const NodeIndex index = path[depth];
    const Node node = nodes_[index];
    if (hop_at(index, vn) != net::kNoRoute || present(node.left, vn) ||
        present(node.right, vn)) {
      break;  // still in `vn`'s trie, and so is every node above it
    }
    mark(index, vn, false);
    if (!node.is_leaf() || holds_route(index)) continue;
    Node& parent = nodes_[path[depth - 1]];
    (parent.left == index ? parent.left : parent.right) = kNullNode;
    free_list_.push_back(index);
    --live_nodes_;
    ++cost.nodes_removed;
    ++cost.words_written;  // parent pointer word rewrite
  }
  return cost;
}

std::optional<net::NextHop> UpdatableTrie::lookup(net::Ipv4 addr,
                                                  net::VnId vn) const {
  const std::optional<net::Route> route =
      covering_route(vn, net::Prefix(addr, 32));
  if (!route) return std::nullopt;
  return route->next_hop;
}

std::optional<net::Route> UpdatableTrie::covering_route(
    net::VnId vn, const net::Prefix& prefix) const {
  check_vn(vn);
  net::NextHop best = net::kNoRoute;
  unsigned best_depth = 0;
  NodeIndex current = 0;
  for (unsigned depth = 0;; ++depth) {
    const net::NextHop hop = hop_at(current, vn);
    if (hop != net::kNoRoute) {
      best = hop;
      best_depth = depth;
    }
    if (depth == prefix.length()) break;
    const Node& node = nodes_[current];
    const NodeIndex child = prefix.bit(depth) ? node.right : node.left;
    if (child == kNullNode) break;
    current = child;
  }
  if (best == net::kNoRoute) return std::nullopt;
  return net::Route{net::Prefix(prefix.address(), best_depth), best};
}

std::size_t UpdatableTrie::present_count(net::VnId vn) const {
  check_vn(vn);
  return present_counts_[vn];
}

std::size_t UpdatableTrie::route_count(net::VnId vn) const {
  check_vn(vn);
  return route_counts_[vn];
}

double UpdatableTrie::alpha_effective() const {
  if (vn_count_ <= 1) return 1.0;
  double sum = 0.0;
  for (const std::size_t count : present_counts_) {
    sum += static_cast<double>(count);
  }
  const double t = static_cast<double>(live_nodes_);
  const double alpha = (sum / t - 1.0) / static_cast<double>(vn_count_ - 1);
  return std::clamp(alpha, 0.0, 1.0);
}

net::RoutingTable UpdatableTrie::table_of(net::VnId vn) const {
  check_vn(vn);
  std::vector<net::Route> routes;
  routes.reserve(route_counts_[vn]);
  // Iterative pre-order DFS rebuilding prefixes from paths. Popping the
  // left child first emits the routes already in prefix order, the order
  // the RoutingTable constructor sorts them into.
  struct Frame {
    NodeIndex node;
    std::uint32_t bits;
    unsigned depth;
  };
  std::vector<Frame> stack{{0, 0, 0}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const net::NextHop hop = hop_at(frame.node, vn);
    if (hop != net::kNoRoute) {
      routes.push_back(net::Route{
          net::Prefix(net::Ipv4(frame.bits), frame.depth), hop});
    }
    if (frame.depth < 32) {
      const Node& node = nodes_[frame.node];
      if (node.right != kNullNode) {
        stack.push_back(Frame{
            node.right,
            frame.bits | (std::uint32_t{1} << (31u - frame.depth)),
            frame.depth + 1});
      }
      if (node.left != kNullNode) {
        stack.push_back(Frame{node.left, frame.bits, frame.depth + 1});
      }
    }
  }
  return net::RoutingTable(std::move(routes));
}

}  // namespace vr::trie
