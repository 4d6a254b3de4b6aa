#include "netbase/routing_table.hpp"

#include <algorithm>

namespace vr::net {

namespace {

bool prefix_less(const Route& a, const Route& b) noexcept {
  return a.prefix < b.prefix;
}

}  // namespace

RoutingTable::RoutingTable(std::vector<Route> routes)
    : routes_(std::move(routes)) {
  // stable_sort keeps insertion order among equal prefixes so that "last
  // write wins" below is well-defined.
  std::stable_sort(routes_.begin(), routes_.end(), prefix_less);
  // Last write wins on duplicates: keep the final occurrence of each prefix.
  const auto last = std::unique(
      routes_.rbegin(), routes_.rend(),
      [](const Route& a, const Route& b) { return a.prefix == b.prefix; });
  routes_.erase(routes_.begin(), last.base());
}

void RoutingTable::add(const Route& route) {
  const auto it = std::lower_bound(routes_.begin(), routes_.end(), route,
                                   prefix_less);
  if (it != routes_.end() && it->prefix == route.prefix) {
    it->next_hop = route.next_hop;
  } else {
    routes_.insert(it, route);
  }
}

bool RoutingTable::remove(const Prefix& prefix) {
  const Route key{prefix, kNoRoute};
  const auto it =
      std::lower_bound(routes_.begin(), routes_.end(), key, prefix_less);
  if (it == routes_.end() || it->prefix != prefix) return false;
  routes_.erase(it);
  return true;
}

bool RoutingTable::contains(const Prefix& prefix) const noexcept {
  const Route key{prefix, kNoRoute};
  const auto it =
      std::lower_bound(routes_.begin(), routes_.end(), key, prefix_less);
  return it != routes_.end() && it->prefix == prefix;
}

std::optional<NextHop> RoutingTable::lookup(Ipv4 addr) const noexcept {
  std::optional<NextHop> best;
  unsigned best_len = 0;
  for (const Route& route : routes_) {
    if (route.prefix.contains(addr) &&
        (!best || route.prefix.length() >= best_len)) {
      best = route.next_hop;
      best_len = route.prefix.length();
    }
  }
  return best;
}

unsigned RoutingTable::max_prefix_length() const noexcept {
  unsigned max_len = 0;
  for (const Route& route : routes_) {
    max_len = std::max(max_len, route.prefix.length());
  }
  return max_len;
}

}  // namespace vr::net
