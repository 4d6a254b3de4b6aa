#include "netbase/update_gen.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "common/error.hpp"

namespace vr::net {

UpdateStreamGenerator::UpdateStreamGenerator(UpdateStreamConfig config)
    : config_(std::move(config)), fresh_gen_(config_.profile) {
  VR_REQUIRE(config_.withdraw_weight >= 0.0 &&
                 config_.announce_new_weight >= 0.0 &&
                 config_.reannounce_weight >= 0.0,
             "update mix weights must be non-negative");
  VR_REQUIRE(config_.withdraw_weight + config_.announce_new_weight +
                     config_.reannounce_weight >
                 0.0,
             "update mix must have positive total weight");
}

namespace {

/// A distinct key per prefix: its address, then its length in the low byte.
std::uint64_t prefix_key(const Prefix& prefix) {
  return std::uint64_t{prefix.address().value()} << 8 | prefix.length();
}

}  // namespace

std::vector<RouteUpdate> UpdateStreamGenerator::generate(
    const RoutingTable& base, std::uint64_t seed) const {
  Rng rng(seed);
  // Working copy of the installed set: a vector for O(1) sampling and a
  // hash set of its prefixes for O(1) membership.
  std::vector<Route> installed(base.routes().begin(), base.routes().end());
  std::unordered_set<std::uint64_t> installed_keys;
  for (const Route& route : installed) {
    installed_keys.insert(prefix_key(route.prefix));
  }

  // Pool of fresh prefixes to announce (drawn once, consumed in order;
  // entries already present are skipped at use time).
  const RoutingTable fresh_pool = fresh_gen_.generate(seed ^ 0xfeedULL);
  const auto pool = fresh_pool.routes();
  std::size_t fresh_cursor = 0;
  // Moves the cursor past installed pool entries; false once it is spent.
  const auto fresh_left = [&] {
    while (fresh_cursor < pool.size() &&
           installed_keys.contains(prefix_key(pool[fresh_cursor].prefix))) {
      ++fresh_cursor;
    }
    return fresh_cursor < pool.size();
  };

  const auto hops = config_.profile.next_hop_count;
  const double weights[3] = {config_.withdraw_weight,
                             config_.announce_new_weight,
                             config_.reannounce_weight};
  // Whether some positive-weight operation can still emit an update. The
  // pool comes last: moving its cursor early leaves the stream unchanged
  // only when no withdraw can uninstall the entries it skips.
  const auto can_progress = [&] {
    if (weights[0] > 0.0 && !installed.empty()) return true;
    if (weights[2] > 0.0 &&
        std::any_of(installed.begin(), installed.end(), [&](const Route& r) {
          return hops > 1 || r.next_hop != 0;  // has a hop to change to
        })) {
      return true;
    }
    return weights[1] > 0.0 && fresh_left();
  };

  std::vector<RouteUpdate> stream;
  stream.reserve(config_.update_count);
  while (stream.size() < config_.update_count) {
    const std::size_t emitted = stream.size();
    switch (rng.next_weighted(weights, 3)) {
      case 0: {  // withdraw
        if (installed.empty()) break;
        const std::size_t i = rng.next_below(installed.size());
        stream.push_back({RouteUpdate::Kind::kWithdraw,
                          Route{installed[i].prefix, kNoRoute}});
        installed_keys.erase(prefix_key(installed[i].prefix));
        installed[i] = installed.back();
        installed.pop_back();
        break;
      }
      case 1: {  // announce a brand-new prefix
        if (!fresh_left()) break;  // pool exhausted
        const Route route = pool[fresh_cursor++];
        stream.push_back({RouteUpdate::Kind::kAnnounce, route});
        installed.push_back(route);
        installed_keys.insert(prefix_key(route.prefix));
        break;
      }
      case 2: {  // re-announce with a different next hop (path change)
        if (installed.empty()) break;
        const std::size_t i = rng.next_below(installed.size());
        Route route = installed[i];
        route.next_hop = static_cast<NextHop>(
            (route.next_hop + 1 + rng.next_below(std::max<NextHop>(
                                      1, static_cast<NextHop>(hops - 1)))) %
            hops);
        if (route.next_hop == installed[i].next_hop) break;
        stream.push_back({RouteUpdate::Kind::kAnnounce, route});
        installed[i] = route;
        break;
      }
      default:
        break;
    }
    if (stream.size() == emitted) {
      VR_REQUIRE(can_progress(),
                 "update stream stalled after " +
                     std::to_string(stream.size()) + " of " +
                     std::to_string(config_.update_count) +
                     " updates: no positive-weight operation can emit one "
                     "(empty table, spent fresh-prefix pool, or a single "
                     "next hop)");
    }
  }
  return stream;
}

}  // namespace vr::net
