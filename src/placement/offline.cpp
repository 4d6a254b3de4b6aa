#include "placement/offline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>

#include "placement/policy.hpp"

namespace vr::placement {

namespace {

constexpr DeviceMode kAllModes[] = {DeviceMode::kDedicated,
                                    DeviceMode::kSpaceShared,
                                    DeviceMode::kTimeShared};

/// Cheapest watts-per-tenant over every feasible homogeneous co-location
/// of this VN class; 0 when the VN fits nowhere even alone (the greedy
/// pass skips it too, keeping the two bounds consistent).
double ideal_share_w(const PlacedVn& vn, CostOracle& oracle) {
  double best_w = std::numeric_limits<double>::infinity();
  for (const DeviceMode mode : kAllModes) {
    for (std::uint32_t k = 1; k <= kMaxVnsPerDevice; ++k) {
      DeviceShape shape;
      shape.mode = mode;
      shape.vn_count = k;
      shape.max_bucket = vn.bucket;
      shape.mu_total_q = k * vn.mu_q;
      shape.sla_floor = vn.sla;
      if (!oracle.feasible(shape)) continue;
      best_w = std::min(best_w,
                        oracle.watts(shape) / static_cast<double>(k));
    }
  }
  return std::isfinite(best_w) ? best_w : 0.0;
}

}  // namespace

OfflineBound offline_bound(const std::vector<PlacedVn>& vns,
                           CostOracle& oracle) {
  OfflineBound bound;
  if (vns.empty()) return bound;

  // Greedy upper bound: best-fit-decreasing with hindsight — largest
  // tables first, each placed where it costs the least marginal watts.
  std::vector<PlacedVn> order = vns;
  std::sort(order.begin(), order.end(),
            [](const PlacedVn& a, const PlacedVn& b) {
              return std::tuple(b.bucket, b.mu_q, a.request_id) <
                     std::tuple(a.bucket, a.mu_q, b.request_id);
            });
  Fleet fleet(vns.size());
  const std::unique_ptr<PlacementPolicy> policy =
      make_policy(PolicyKind::kBestFitWatts);
  for (const PlacedVn& vn : order) {
    const Decision decision = policy->decide(fleet, oracle, vn);
    if (!decision.accept) continue;  // infeasible even on an empty device
    fleet.place(decision.device, vn, decision.mode);
  }
  for (const auto& [shape, devices] : fleet.groups()) {
    bound.greedy_w +=
        oracle.watts(shape) * static_cast<double>(devices.size());
  }
  bound.greedy_devices = fleet.active_devices();

  // Fractional lower bound: Σ per-VN ideal shares, memoized per class.
  std::map<std::tuple<std::uint32_t, std::uint32_t, SlaClass>, double> memo;
  for (const PlacedVn& vn : vns) {
    const auto key = std::tuple(vn.bucket, vn.mu_q, vn.sla);
    auto it = memo.find(key);
    if (it == memo.end()) {
      it = memo.emplace(key, ideal_share_w(vn, oracle)).first;
    }
    bound.fractional_lower_w += it->second;
  }
  return bound;
}

}  // namespace vr::placement
