#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace vr {

void RunningStats::add(double x, std::size_t n) noexcept {
  if (n == 0) return;
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  // With weight 1 every product below is exact, so a single add rounds
  // exactly as the textbook one-sample update does.
  const auto weight = static_cast<double>(n);
  count_ += n;
  sum_ += x * weight;
  const double delta = x - mean_;
  mean_ += delta * weight / static_cast<double>(count_);
  m2_ += delta * (x - mean_) * weight;
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Percentiles::Percentiles(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  VR_REQUIRE(!sorted_.empty(), "percentile of an empty sample set");
  // NaN violates std::sort's strict weak ordering: sorting a vector that
  // contains one is undefined behaviour and in practice leaves the data
  // partially ordered, so every later at() silently answers garbage.
  for (const double sample : sorted_) {
    VR_REQUIRE(!std::isnan(sample), "percentile sample is NaN");
  }
  std::sort(sorted_.begin(), sorted_.end());
}

double Percentiles::at(double q) const {
  VR_REQUIRE(q >= 0.0 && q <= 1.0, "percentile rank must be in [0,1]");
  if (sorted_.size() == 1) return sorted_.front();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] + (sorted_[hi] - sorted_[lo]) * frac;
}

double percentile(std::vector<double> samples, double q) {
  return Percentiles(std::move(samples)).at(q);
}

double percentage_error(double model, double experimental) noexcept {
  if (experimental == 0.0) return model == 0.0 ? 0.0 : HUGE_VAL;
  return (model - experimental) / experimental * 100.0;
}

}  // namespace vr
