// BGP-like update-stream generation: announce/withdraw sequences against a
// base table, used to drive the incremental-update machinery (paper
// Sec. V-B's "low update rate" assumption and reference [6]).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "netbase/routing_table.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/route_update.hpp"

namespace vr::net {

struct UpdateStreamConfig {
  std::size_t update_count = 1000;
  /// Mix of operations (need not be normalized): withdraw an installed
  /// route / announce a brand-new prefix / re-announce an installed prefix
  /// with a new next hop (path change — the dominant BGP churn in
  /// practice).
  double withdraw_weight = 0.25;
  double announce_new_weight = 0.25;
  double reannounce_weight = 0.50;
  /// Profile used to draw brand-new prefixes.
  TableProfile profile = TableProfile::edge_default();
};

/// Generates deterministic update streams that are *consistent*: withdraws
/// and re-announces always target a currently-installed prefix (the
/// generator tracks the evolving table).
class UpdateStreamGenerator {
 public:
  explicit UpdateStreamGenerator(UpdateStreamConfig config);

  /// Builds a stream starting from `base`. The returned updates, applied
  /// in order to `base`, keep the table valid at every step. Aborts if the
  /// stream stalls short of update_count: no positive-weight operation can
  /// emit an update (empty table, spent fresh-prefix pool, single next hop).
  [[nodiscard]] std::vector<RouteUpdate> generate(
      const RoutingTable& base, std::uint64_t seed) const;

  [[nodiscard]] const UpdateStreamConfig& config() const noexcept {
    return config_;
  }

 private:
  UpdateStreamConfig config_;
  SyntheticTableGenerator fresh_gen_;
};

}  // namespace vr::net
