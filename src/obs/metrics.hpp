// Metric primitives of the observability layer: Counter and Gauge are
// lock-free std::atomic cells; Histogram combines RunningStats (exact
// count/mean/variance/min/max via Welford) with base-2 exponential buckets
// for approximate quantiles in O(1) memory. All three are safe to update
// from many threads concurrently and are deliberately zero-dependency —
// nothing here knows about registries, names, or serialization, so the
// primitives can also be embedded directly in a component (the
// DrrScheduler's queue-depth histogram, the WorkloadCache counters) and
// published later.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace vr::obs {

/// Monotonically increasing event count. Lock-free; relaxed ordering is
/// sufficient because counters carry no synchronization semantics.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written signed level (queue depths, resident bytes, worker counts).
class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Bucket count of the default Histogram scheme: bucket 0 covers [0, 1),
/// bucket i >= 1 covers [2^(i-1), 2^i), and the last bucket absorbs
/// everything above. Custom-bounds histograms reuse the same fixed-size
/// storage, so they may declare at most kHistogramBuckets - 1 bounds.
inline constexpr std::size_t kHistogramBuckets = 64;

/// A point-in-time copy of a Histogram: exact summary statistics plus the
/// bucket counts the quantile estimator interpolates over. Plain data —
/// safe to copy into result structs (FullRouterResult) and to merge.
/// `bounds` empty means the default base-2 exponential scheme; otherwise
/// bucket i covers [bounds[i-1], bounds[i]) (bucket 0 starts at 0) and the
/// last used bucket, index bounds.size(), absorbs everything at or above
/// bounds.back().
struct HistogramSnapshot {
  RunningStats stats;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::vector<double> bounds;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return std::uint64_t{stats.count()};
  }

  /// Buckets actually addressable under this snapshot's bounds scheme.
  [[nodiscard]] std::size_t used_buckets() const noexcept {
    return bounds.empty() ? kHistogramBuckets : bounds.size() + 1;
  }

  /// Approximate q-quantile (q in [0,1]) by linear interpolation inside
  /// the bucket holding the target rank, clamped to the exact observed
  /// [min, max]. Exact for q = 0 and q = 1; empty histograms answer 0.
  [[nodiscard]] double quantile(double q) const;
};

/// Thread-safe sample accumulator for durations, depths, sizes — any
/// non-negative quantity whose distribution (not just total) matters.
/// Rejects NaN and negative samples via VR_REQUIRE: a poisoned histogram
/// would silently corrupt every percentile derived from it.
///
/// Bucketing defaults to the base-2 exponential scheme (right for
/// nanosecond timings spanning orders of magnitude); a histogram whose
/// domain is known — device watts, utilization fractions — can instead be
/// constructed with explicit bucket upper bounds. Two histograms only
/// merge when their bounds agree: silently adding counts across different
/// bucket shapes would mis-bin every quantile, so the mismatch aborts.
class Histogram {
 public:
  Histogram() = default;
  /// Custom bucketing: `upper_bounds` are the exclusive upper edges,
  /// strictly increasing, all positive, at most kHistogramBuckets - 1 of
  /// them. Bucket 0 covers [0, upper_bounds[0]); one extra bucket absorbs
  /// everything at or above upper_bounds.back().
  explicit Histogram(std::vector<double> upper_bounds);

  /// Records `n` samples of `value`. The count, min, max and buckets
  /// (and so every quantile) equal n single observes, and so does the sum
  /// for integer samples.
  void observe(double value, std::uint64_t n = 1);

  /// Typed entry point for timers: durations always enter in nanoseconds.
  void observe_duration(units::Nanoseconds elapsed) {
    observe(elapsed.value());
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// The custom bucket upper bounds; empty = default base-2 scheme.
  /// Immutable once the histogram holds samples.
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }

  /// Re-shapes an empty histogram (used by Registry to configure a
  /// default-constructed cell). Aborts if samples were already observed
  /// or if the histogram already has different bounds.
  void configure_bounds(std::vector<double> upper_bounds);

  /// Folds another histogram's snapshot into this one (bucket-wise add +
  /// RunningStats::merge). Used to publish component-owned histograms into
  /// the process-wide registry. The bucket bounds must match — merging
  /// differently-shaped histograms aborts rather than mis-binning.
  void merge(const HistogramSnapshot& other);

  void reset();

 private:
  mutable std::mutex mu_;
  RunningStats stats_;
  std::array<std::uint64_t, kHistogramBuckets> buckets_{};
  /// Custom bucket upper edges; empty = base-2 default. Set only at
  /// construction or via configure_bounds() while empty.
  std::vector<double> bounds_;
};

}  // namespace vr::obs
