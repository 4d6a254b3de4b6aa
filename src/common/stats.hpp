// Summary statistics used by benches, the model validator and the tests.
#pragma once

#include <cstddef>
#include <vector>

namespace vr {

/// Single-pass running statistics (Welford's algorithm). Numerically stable
/// mean/variance without storing samples.
class RunningStats {
 public:
  /// Adds `n` samples of value `x` in one Welford step. Count, min, max
  /// and, for integer samples below 2^53, sum equal n single adds exactly;
  /// the mean and variance may differ from them in the last bits.
  void add(double x, std::size_t n = 1) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Merges another accumulator into this one (parallel-reduction friendly).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile of a sample set using linear interpolation between closest
/// ranks. `q` in [0,1]. The input vector is copied; for repeated queries use
/// Percentiles below.
double percentile(std::vector<double> samples, double q);

/// Batch percentile evaluator: sorts once, answers many queries.
class Percentiles {
 public:
  explicit Percentiles(std::vector<double> samples);

  [[nodiscard]] double at(double q) const;
  [[nodiscard]] std::size_t count() const noexcept { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
};

/// Relative difference |a-b| / max(|a|,|b|,eps); symmetric, safe near zero.
double relative_difference(double a, double b) noexcept;

/// Signed percentage error of a model value against an experimental
/// reference, exactly as defined in the paper (Sec. VI-A):
///   (model - experimental) / experimental * 100.
double percentage_error(double model, double experimental) noexcept;

}  // namespace vr
