#include "placement/policy.hpp"

#include <cmath>
#include <iterator>
#include <limits>

#include "common/error.hpp"

namespace vr::placement {

namespace {

/// First member of an ordered device set that is not the excluded device.
std::optional<std::size_t> representative(
    const std::set<std::size_t>& devices, std::optional<std::size_t> exclude) {
  for (const std::size_t device : devices) {
    if (!exclude || device != *exclude) return device;
  }
  return std::nullopt;
}

constexpr DeviceMode kOpeningModes[] = {
    // Cheapest-first: a time-shared engine usually minimizes watts, a
    // space-shared device trades watts for isolation, a dedicated device
    // is the NV fallback.
    DeviceMode::kTimeShared, DeviceMode::kSpaceShared, DeviceMode::kDedicated};

}  // namespace

std::vector<Candidate> feasible_candidates(
    const Fleet& fleet, CostOracle& oracle, const PlacedVn& vn,
    std::optional<std::size_t> exclude) {
  std::vector<Candidate> candidates;
  candidates.reserve(fleet.groups().size() + std::size(kOpeningModes));
  for (const auto& [shape, devices] : fleet.groups()) {
    // Every device in a group shares one shape, so feasibility of the
    // group is feasibility of any member: one representative suffices.
    const std::optional<std::size_t> device =
        representative(devices, exclude);
    if (!device) continue;
    Candidate candidate;
    candidate.device = *device;
    candidate.mode = shape.mode;
    candidate.before = shape;
    // The fleet keys each group by add() folded over a member's VNs, so
    // the key plus this VN is the member's shape after placing it.
    candidate.after = add(shape, vn);
    if (!oracle.feasible(candidate.after)) continue;
    candidates.push_back(candidate);
  }
  const std::optional<std::size_t> idle =
      representative(fleet.idle_devices(), exclude);
  if (idle) {
    for (const DeviceMode mode : kOpeningModes) {
      Candidate candidate;
      candidate.device = *idle;
      candidate.mode = mode;
      candidate.after = add(DeviceShape{.mode = mode}, vn);
      if (!oracle.feasible(candidate.after)) continue;
      candidates.push_back(candidate);
    }
  }
  return candidates;
}

namespace {

class FirstFitPolicy final : public PlacementPolicy {
 public:
  Decision decide(const Fleet& fleet, CostOracle& oracle, const PlacedVn& vn,
                  std::optional<std::size_t> exclude) override {
    const std::vector<Candidate> candidates =
        feasible_candidates(fleet, oracle, vn, exclude);
    Decision decision;
    decision.feasible_exists = !candidates.empty();
    if (candidates.empty()) return decision;
    const Candidate* best = &candidates.front();
    for (const Candidate& c : candidates) {
      if (c.device < best->device) best = &c;
    }
    decision.accept = true;
    decision.device = best->device;
    decision.mode = best->mode;
    return decision;
  }

  [[nodiscard]] PolicyKind kind() const noexcept override {
    return PolicyKind::kFirstFit;
  }
};

class BestFitWattsPolicy final : public PlacementPolicy {
 public:
  Decision decide(const Fleet& fleet, CostOracle& oracle, const PlacedVn& vn,
                  std::optional<std::size_t> exclude) override {
    const std::vector<Candidate> candidates =
        feasible_candidates(fleet, oracle, vn, exclude);
    Decision decision;
    decision.feasible_exists = !candidates.empty();
    if (candidates.empty()) return decision;
    const Candidate* best = nullptr;
    double best_marginal_w = std::numeric_limits<double>::infinity();
    for (const Candidate& c : candidates) {
      const double before_w = c.before.idle() ? 0.0 : oracle.watts(c.before);
      const double marginal_w = oracle.watts(c.after) - before_w;
      // Strict < makes earlier candidates win ties; candidate order is
      // deterministic, so the whole decision is.
      if (marginal_w < best_marginal_w) {
        best = &c;
        best_marginal_w = marginal_w;
      }
    }
    decision.accept = true;
    decision.device = best->device;
    decision.mode = best->mode;
    return decision;
  }

  [[nodiscard]] PolicyKind kind() const noexcept override {
    return PolicyKind::kBestFitWatts;
  }
};

// Tuning of the exponential-cost policy.
/// Virtual cost is kExpCostBase^congestion.
constexpr double kExpCostBase = 32.0;
/// Admission bar: marginal virtual cost must stay ≤ threshold × benefit.
constexpr double kAdmissionThreshold = 2.0;
/// SLA-class benefits (bronze, silver, gold).
constexpr double kSlaBenefit[3] = {1.0, 2.0, 4.0};

class ExpCostPolicy final : public PlacementPolicy {
 public:
  Decision decide(const Fleet& fleet, CostOracle& oracle, const PlacedVn& vn,
                  std::optional<std::size_t> exclude) override {
    const std::vector<Candidate> candidates =
        feasible_candidates(fleet, oracle, vn, exclude);
    Decision decision;
    decision.feasible_exists = !candidates.empty();
    if (candidates.empty()) return decision;
    const Candidate* best = nullptr;
    double best_delta = std::numeric_limits<double>::infinity();
    for (const Candidate& c : candidates) {
      const double before_cost =
          std::pow(kExpCostBase, oracle.congestion(c.before));
      const double after_cost =
          std::pow(kExpCostBase, oracle.congestion(c.after));
      const double delta = after_cost - before_cost;
      if (delta < best_delta) {
        best = &c;
        best_delta = delta;
      }
    }
    const double benefit = kSlaBenefit[static_cast<std::size_t>(vn.sla)];
    if (best_delta > kAdmissionThreshold * benefit) {
      // Admission control: the fleet is congested enough that hosting
      // this request would crowd out higher-benefit tenants.
      return decision;
    }
    decision.accept = true;
    decision.device = best->device;
    decision.mode = best->mode;
    return decision;
  }

  [[nodiscard]] PolicyKind kind() const noexcept override {
    return PolicyKind::kExpCost;
  }
};

}  // namespace

std::unique_ptr<PlacementPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFirstFit:
      return std::make_unique<FirstFitPolicy>();
    case PolicyKind::kBestFitWatts:
      return std::make_unique<BestFitWattsPolicy>();
    case PolicyKind::kExpCost:
      return std::make_unique<ExpCostPolicy>();
  }
  VR_REQUIRE(false, "unknown placement policy kind");
  return nullptr;
}

}  // namespace vr::placement
