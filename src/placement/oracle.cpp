#include "placement/oracle.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vr::placement {

static_assert(std::is_sorted(kBucketPrefixCounts.begin(),
                             kBucketPrefixCounts.end()) &&
                  kBucketPrefixCounts.front() >= 1,
              "bucket prefix counts must be positive and ascending");

CostOracle::CostOracle(fpga::DeviceSpec device, Config config)
    : config_(std::move(config)), estimator_(std::move(device)) {}

std::uint32_t CostOracle::bucket_for(std::size_t prefix_count) const {
  const auto& buckets = kBucketPrefixCounts;
  const auto it =
      std::lower_bound(buckets.begin(), buckets.end(), prefix_count);
  if (it == buckets.end()) {
    return static_cast<std::uint32_t>(buckets.size() - 1);
  }
  return static_cast<std::uint32_t>(it - buckets.begin());
}

core::Scenario CostOracle::scenario_for(const DeviceShape& shape) const {
  core::Scenario scenario;
  scenario.scheme = scheme_for(shape.mode);
  scenario.vn_count = shape.vn_count;
  scenario.grade = config_.grade;
  scenario.bram_policy = config_.bram_policy;
  scenario.stages = config_.stages;
  scenario.alpha = config_.alpha;
  scenario.seed = config_.table_seed;
  scenario.table_profile.prefix_count = kBucketPrefixCounts[shape.max_bucket];
  // Hosted VNs are priced at the device's largest bucket (Assumption 2 —
  // all VNs equal — applied per device as a conservative envelope), with
  // the aggregate load split uniformly. The scheme estimators only read
  // Σµ, so the split is exact for power.
  scenario.utilization.assign(
      shape.vn_count,
      shape.mu_total() / static_cast<double>(shape.vn_count));
  return scenario;
}

const core::Estimate& CostOracle::estimate(const DeviceShape& shape) {
  VR_REQUIRE(!shape.idle(), "cannot estimate an idle device shape");
  VR_REQUIRE(shape.max_bucket < kBucketPrefixCounts.size(),
             "device shape references an unknown table bucket");
  // The estimate does not depend on the SLA floor; normalizing it here
  // collapses all floors of one physical shape onto a single memo entry.
  DeviceShape key = shape;
  key.sla_floor = SlaClass::kBronze;
  const auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  const core::Scenario scenario = scenario_for(key);
  const std::shared_ptr<const core::Workload> workload =
      cache_.realize(scenario);
  core::Estimate estimate = estimator_.estimate(scenario, *workload);
  return memo_.emplace(key, std::move(estimate)).first->second;
}

double CostOracle::watts(const DeviceShape& shape) {
  return estimate(shape).power.total_w().value();
}

bool CostOracle::feasible(const DeviceShape& shape) {
  if (shape.idle()) return false;
  if (shape.vn_count > kMaxVnsPerDevice) return false;
  if (shape.mode == DeviceMode::kDedicated && shape.vn_count != 1) {
    return false;
  }
  // A time-shared engine serves the aggregate stream: past Σµ = 1 it is
  // oversubscribed no matter what the power model says.
  if (shape.mode == DeviceMode::kTimeShared &&
      shape.mu_total_q > kMuQuantum) {
    return false;
  }
  // Gold tenants own their lookup engine — the time-shared merged trie
  // cannot isolate them.
  if (shape.sla_floor == SlaClass::kGold &&
      shape.mode == DeviceMode::kTimeShared) {
    return false;
  }
  const core::Estimate& est = estimate(shape);
  if (!est.fit.fits) return false;
  const double freq_mhz = est.freq_mhz.value();
  if (shape.sla_floor == SlaClass::kGold &&
      freq_mhz < config_.sla.gold_min_freq_mhz) {
    return false;
  }
  if (shape.sla_floor >= SlaClass::kSilver &&
      freq_mhz < config_.sla.silver_min_freq_mhz) {
    return false;
  }
  return true;
}

double CostOracle::congestion(const DeviceShape& shape) {
  if (shape.idle()) return 0.0;
  const core::Estimate& est = estimate(shape);
  const double device_halves =
      static_cast<double>(fpga::device_bram_halves(device()));
  const double bram_frac =
      static_cast<double>(est.resources.bram_per_device.total.halves()) /
      device_halves;
  const double slot_frac = static_cast<double>(shape.vn_count) /
                           static_cast<double>(kMaxVnsPerDevice);
  double load = std::max(bram_frac, slot_frac);
  if (shape.mode == DeviceMode::kTimeShared) {
    load = std::max(load, shape.mu_total());
  }
  return std::min(load, 1.0);
}

}  // namespace vr::placement
