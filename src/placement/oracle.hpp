// CostOracle — the placement controller's bridge to the paper's power and
// resource models. A fleet device hosting a set of VNs is abstracted into
// a DeviceShape (virtualization mode, VN count, largest table bucket,
// quantized aggregate load); the oracle maps each shape to a full
// core::Estimate via PowerEstimator and answers the two questions every
// policy asks: does this shape fit the device (power::FitReport + SLA
// floors), and what does it cost in watts?
//
// Scaling: a million-request run touches millions of (device, VN) pairs
// but only a few thousand distinct shapes, because requests are quantized
// into table-size buckets and 1/kMuQuantum load steps. Estimates are
// memoized per shape, and the trie realizations behind them are memoized
// again in a WorkloadCache whose key excludes utilization — so all load
// levels of one (mode, K, bucket) share a single table build.
//
// The memo is a hash map because a placement decision probes it once per
// shape group (exp-cost three times per candidate). Nothing iterates it,
// so its order reaches no output, and the estimate references it hands
// out stay valid because its nodes never move.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/estimator.hpp"
#include "core/workload_cache.hpp"
#include "placement/request.hpp"

namespace vr::placement {

/// How a fleet device is virtualized, mapping onto the paper's schemes.
enum class DeviceMode : std::uint8_t {
  kDedicated = 0,    ///< NV: the device carries exactly one VN
  kSpaceShared = 1,  ///< VS: K parallel engines on one device
  kTimeShared = 2,   ///< VM: one merged engine time-shared by K VNs
};

[[nodiscard]] constexpr const char* to_string(DeviceMode mode) noexcept {
  switch (mode) {
    case DeviceMode::kDedicated:
      return "dedicated";
    case DeviceMode::kSpaceShared:
      return "space-shared";
    case DeviceMode::kTimeShared:
      return "time-shared";
  }
  return "?";
}

[[nodiscard]] constexpr power::Scheme scheme_for(DeviceMode mode) noexcept {
  switch (mode) {
    case DeviceMode::kDedicated:
      return power::Scheme::kNonVirtualized;
    case DeviceMode::kSpaceShared:
      return power::Scheme::kSeparate;
    case DeviceMode::kTimeShared:
      return power::Scheme::kMerged;
  }
  return power::Scheme::kNonVirtualized;
}

/// Co-location cap per device (keeps the candidate space and the
/// merged-trie growth bounded; VS also self-limits via I/O pins).
inline constexpr std::uint32_t kMaxVnsPerDevice = 8;
/// Table-size quantization: a request is charged the smallest bucket
/// that covers its prefix count (requests above the largest bucket
/// are clamped to it and priced as full-size tables).
inline constexpr std::array<std::size_t, 4> kBucketPrefixCounts = {
    600, 1200, 2400, 4800};

/// The quantized state of one device — the oracle's memoization key and
/// the fleet's grouping key. sla_floor (the strictest SLA hosted) affects
/// feasibility but not the power estimate, so the estimate memo ignores it.
struct DeviceShape {
  DeviceMode mode = DeviceMode::kDedicated;
  std::uint32_t vn_count = 0;
  std::uint32_t max_bucket = 0;   ///< index into kBucketPrefixCounts
  std::uint32_t mu_total_q = 0;   ///< Σµ over hosted VNs, in 1/kMuQuantum
  SlaClass sla_floor = SlaClass::kBronze;

  [[nodiscard]] bool operator==(const DeviceShape&) const = default;
  [[nodiscard]] auto operator<=>(const DeviceShape&) const = default;

  [[nodiscard]] bool idle() const noexcept { return vn_count == 0; }

  [[nodiscard]] double mu_total() const noexcept {
    return static_cast<double>(mu_total_q) / static_cast<double>(kMuQuantum);
  }
};

/// Clock floors each SLA class demands of its hosting device.
struct SlaPolicy {
  double gold_min_freq_mhz = 150.0;
  double silver_min_freq_mhz = 100.0;
};

struct OracleConfig {
  fpga::SpeedGrade grade = fpga::SpeedGrade::kMinus2;
  fpga::BramPolicy bram_policy = fpga::BramPolicy::kMixed;
  std::size_t stages = 28;
  double alpha = 0.8;  ///< merging efficiency of time-shared devices
  std::uint64_t table_seed = 1;
  SlaPolicy sla;
};

class CostOracle {
 public:
  using Config = OracleConfig;

  explicit CostOracle(fpga::DeviceSpec device, Config config = {});

  /// Smallest bucket covering `prefix_count` (clamped to the largest).
  [[nodiscard]] std::uint32_t bucket_for(std::size_t prefix_count) const;

  /// The full analytical estimate of a shape (memoized). Shapes that do
  /// not fit the device still estimate finitely — the FitReport inside
  /// says so; policies must check feasible() before placing.
  [[nodiscard]] const core::Estimate& estimate(const DeviceShape& shape);

  /// Total watts of a device in this shape.
  [[nodiscard]] double watts(const DeviceShape& shape);

  /// True when the shape respects every hard constraint: device capacity
  /// (FitReport), the co-location cap, time-shared load ≤ 1, and the SLA
  /// floor's mode/clock demands.
  [[nodiscard]] bool feasible(const DeviceShape& shape);

  /// Scalar load measure in [0, 1] for the exponential-cost policy: the
  /// most binding of BRAM occupancy, VN-slot occupancy, and (time-shared
  /// only) engine utilization.
  [[nodiscard]] double congestion(const DeviceShape& shape);

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const fpga::DeviceSpec& device() const noexcept {
    return estimator_.device();
  }
  /// Distinct shapes estimated so far (memoization effectiveness; tests
  /// assert this stays ~constant as the request count grows).
  [[nodiscard]] std::size_t estimates_computed() const noexcept {
    return memo_.size();
  }
  [[nodiscard]] core::WorkloadCache::Stats workload_cache_stats() const {
    return cache_.stats();
  }

 private:
  [[nodiscard]] core::Scenario scenario_for(const DeviceShape& shape) const;

  /// Hashes the four fields a memo key keeps once estimate() has
  /// normalized sla_floor: mode, VN count, bucket and load, packed into
  /// one word and mixed with the MurmurHash3 finalizer.
  struct MemoKeyHash {
    [[nodiscard]] std::size_t operator()(
        const DeviceShape& shape) const noexcept {
      std::uint64_t word = std::uint64_t{shape.mu_total_q} << 32 |
                           std::uint64_t{shape.max_bucket} << 16 |
                           std::uint64_t{shape.vn_count} << 8 |
                           static_cast<std::uint64_t>(shape.mode);
      word = (word ^ (word >> 33)) * 0xff51afd7ed558ccdULL;
      word = (word ^ (word >> 33)) * 0xc4ceb9fe1a85ec53ULL;
      return word ^ (word >> 33);
    }
  };

  Config config_;
  core::PowerEstimator estimator_;
  core::WorkloadCache cache_;
  std::unordered_map<DeviceShape, core::Estimate, MemoKeyHash> memo_;
};

}  // namespace vr::placement
