// Routing-table container: a deduplicated set of routes with linear-scan
// longest-prefix-match used as the reference ("ground truth") oracle that
// the trie and the pipeline simulator are verified against.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "netbase/prefix.hpp"

namespace vr::net {

/// An immutable-after-build set of routes. Insertion keeps the table sorted
/// by (address, length); inserting an existing prefix replaces its next hop
/// (last write wins), matching router RIB semantics.
class RoutingTable {
 public:
  RoutingTable() = default;
  explicit RoutingTable(std::vector<Route> routes);

  /// Adds a route; replaces the next hop if the prefix already exists.
  void add(const Route& route);
  void add(const Prefix& prefix, NextHop next_hop) {
    add(Route{prefix, next_hop});
  }

  /// Removes a prefix; returns false if it was not present.
  bool remove(const Prefix& prefix);

  [[nodiscard]] std::size_t size() const noexcept { return routes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return routes_.empty(); }
  [[nodiscard]] std::span<const Route> routes() const noexcept {
    return routes_;
  }

  /// True if the exact prefix is present.
  [[nodiscard]] bool contains(const Prefix& prefix) const noexcept;

  /// Reference longest-prefix match by linear scan; nullopt if no route
  /// covers the address. O(n) — this is the correctness oracle, not the
  /// lookup path.
  [[nodiscard]] std::optional<NextHop> lookup(Ipv4 addr) const noexcept;

  /// Longest prefix length present (0 if empty).
  [[nodiscard]] unsigned max_prefix_length() const noexcept;

  friend bool operator==(const RoutingTable&, const RoutingTable&) = default;

 private:
  std::vector<Route> routes_;  // sorted by (address, length), unique prefixes
};

}  // namespace vr::net
