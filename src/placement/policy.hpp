// Placement policies — given the fleet and the cost oracle, decide where
// an arriving VN goes (and whether it is admitted at all). All policies
// share one candidate enumeration: the lowest-indexed device of every
// shape group whose post-placement shape is feasible, plus the
// lowest-indexed idle device under each opening mode. They differ only in
// the scoring rule:
//
//   * kFirstFit       — lowest device index wins; admits whenever anything
//                       fits. The naive baseline of the competitive study.
//   * kBestFitWatts   — smallest marginal fleet watts wins (the oracle's
//                       Δtotal_w of the touched device). Greedy power
//                       packing.
//   * kExpCost        — online exponential-cost admission in the style of
//                       Awerbuch–Azar–Plotkin (cf. arXiv:1101.5221): a
//                       device's virtual cost is base^congestion, a
//                       request is admitted only where the marginal
//                       virtual cost stays below its SLA-weighted benefit.
//                       Rejects low-value requests under pressure to keep
//                       headroom for gold tenants.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "placement/fleet.hpp"

namespace vr::placement {

enum class PolicyKind : std::uint8_t {
  kFirstFit = 0,
  kBestFitWatts = 1,
  kExpCost = 2,
};

[[nodiscard]] constexpr const char* to_string(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kFirstFit:
      return "first-fit";
    case PolicyKind::kBestFitWatts:
      return "best-fit-watts";
    case PolicyKind::kExpCost:
      return "exp-cost";
  }
  return "?";
}

/// One feasible placement option for a request.
struct Candidate {
  std::size_t device = 0;
  DeviceMode mode = DeviceMode::kTimeShared;  ///< mode if the device is idle
  DeviceShape before;  ///< shape now (idle() when opening)
  DeviceShape after;   ///< shape once the VN is added (feasible)
};

/// All feasible options, one representative device per shape group plus
/// the idle openings, in deterministic (group, mode) order. `exclude`
/// removes one device from consideration (the source of a migration).
[[nodiscard]] std::vector<Candidate> feasible_candidates(
    const Fleet& fleet, CostOracle& oracle, const PlacedVn& vn,
    std::optional<std::size_t> exclude = {});

struct Decision {
  bool accept = false;
  /// True when at least one feasible candidate existed — distinguishes a
  /// capacity rejection from a policy (admission-control) rejection.
  bool feasible_exists = false;
  std::size_t device = 0;
  DeviceMode mode = DeviceMode::kTimeShared;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  [[nodiscard]] virtual Decision decide(
      const Fleet& fleet, CostOracle& oracle, const PlacedVn& vn,
      std::optional<std::size_t> exclude = {}) = 0;
  [[nodiscard]] virtual PolicyKind kind() const noexcept = 0;
};

[[nodiscard]] std::unique_ptr<PlacementPolicy> make_policy(PolicyKind kind);

}  // namespace vr::placement
