#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace vr::obs {

namespace {

/// Bucket of a non-negative sample: 0 for [0,1), i for [2^(i-1), 2^i).
std::size_t bucket_of(double value) noexcept {
  if (value < 1.0) return 0;
  // 2^63 and above (including +inf) land in the last bucket.
  if (value >= 9.223372036854775808e18) return kHistogramBuckets - 1;
  const auto magnitude = static_cast<std::uint64_t>(value);
  // bit_width of a uint64 is at most 64, so the narrowing is exact.
  const auto index = static_cast<unsigned>(std::bit_width(magnitude));
  return std::min<std::size_t>(index, kHistogramBuckets - 1);
}

/// Inclusive value range covered by a bucket.
constexpr double bucket_lower(std::size_t bucket) noexcept {
  if (bucket == 0) return 0.0;
  return static_cast<double>(std::uint64_t{1} << (bucket - 1));
}

constexpr double bucket_upper(std::size_t bucket) noexcept {
  if (bucket >= kHistogramBuckets - 1) return bucket_lower(bucket) * 2.0;
  return static_cast<double>(std::uint64_t{1} << bucket);
}

/// Bucket of a sample under custom upper bounds: the first bucket whose
/// exclusive upper edge exceeds the value; values at or above the last
/// edge land in the overflow bucket (index bounds.size()).
std::size_t bucket_of_custom(double value,
                             const std::vector<double>& bounds) noexcept {
  const auto it = std::upper_bound(bounds.begin(), bounds.end(), value);
  return static_cast<std::size_t>(it - bounds.begin());
}

void check_bounds(const std::vector<double>& bounds) {
  VR_REQUIRE(bounds.size() + 1 <= kHistogramBuckets,
             "histogram declares more bucket bounds than the fixed storage "
             "holds");
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    VR_REQUIRE(std::isfinite(bounds[i]) && bounds[i] > 0.0,
               "histogram bucket bounds must be positive and finite");
    VR_REQUIRE(i == 0 || bounds[i - 1] < bounds[i],
               "histogram bucket bounds must be strictly increasing");
  }
}

}  // namespace

double HistogramSnapshot::quantile(double q) const {
  VR_REQUIRE(q >= 0.0 && q <= 1.0, "quantile rank must be in [0,1]");
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q <= 0.0) return stats.min();
  if (q >= 1.0) return stats.max();
  const auto lower_of = [this](std::size_t b) {
    if (bounds.empty()) return bucket_lower(b);
    return b == 0 ? 0.0 : bounds[b - 1];
  };
  const auto upper_of = [this](std::size_t b) {
    if (bounds.empty()) return bucket_upper(b);
    // The overflow bucket has no upper edge; the clamp below substitutes
    // the observed max.
    return b < bounds.size() ? bounds[b] : stats.max();
  };
  // Target rank in [0, n-1]; walk buckets until it is covered, then
  // interpolate linearly inside the covering bucket.
  const double rank = q * static_cast<double>(n - 1);
  double seen = 0.0;
  for (std::size_t b = 0; b < used_buckets(); ++b) {
    const double in_bucket = static_cast<double>(buckets[b]);
    if (in_bucket == 0.0) continue;
    if (rank < seen + in_bucket) {
      const double frac = (rank - seen) / in_bucket;
      const double lo = std::max(lower_of(b), stats.min());
      const double hi = std::min(upper_of(b), stats.max());
      return std::clamp(lo + (hi - lo) * frac, stats.min(), stats.max());
    }
    seen += in_bucket;
  }
  return stats.max();
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  check_bounds(bounds_);
}

void Histogram::configure_bounds(std::vector<double> upper_bounds) {
  check_bounds(upper_bounds);
  const std::lock_guard<std::mutex> lock(mu_);
  if (bounds_ == upper_bounds) return;
  VR_REQUIRE(stats_.count() == 0,
             "histogram bucket bounds cannot change once samples were "
             "observed — the existing counts cannot be re-binned");
  VR_REQUIRE(bounds_.empty(),
             "histogram re-configured with different bucket bounds");
  bounds_ = std::move(upper_bounds);
}

void Histogram::observe(double value, std::uint64_t n) {
  VR_REQUIRE(!std::isnan(value), "histogram sample is NaN");
  VR_REQUIRE(value >= 0.0, "histogram sample is negative");
  const std::lock_guard<std::mutex> lock(mu_);
  stats_.add(value, n);
  buckets_[bounds_.empty() ? bucket_of(value)
                           : bucket_of_custom(value, bounds_)] += n;
}

HistogramSnapshot Histogram::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  HistogramSnapshot snap;
  snap.stats = stats_;
  snap.buckets = buckets_;
  snap.bounds = bounds_;
  return snap;
}

void Histogram::merge(const HistogramSnapshot& other) {
  const std::lock_guard<std::mutex> lock(mu_);
  // A shape mismatch would add counts bucket-index-wise across different
  // value ranges — every quantile would silently lie. Fail loudly instead.
  VR_REQUIRE(bounds_ == other.bounds,
             "histogram bucket bounds mismatch — refusing to merge "
             "differently-shaped histograms");
  stats_.merge(other.stats);
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets[b];
  }
}

void Histogram::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  stats_ = RunningStats{};
  buckets_.fill(0);
}

}  // namespace vr::obs
