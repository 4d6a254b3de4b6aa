// Process-wide metric registry: named, optionally labeled families of
// Counter/Gauge/Histogram. Components request a metric once (registration
// takes one mutex) and then update it lock-free (counters/gauges) or under
// the histogram's own short lock; references returned by the accessors stay
// valid for the registry's lifetime — reset() zeroes values, it never
// deallocates.
//
// Naming convention (DESIGN.md §11): lowercase dot-separated
// `<subsystem>.<metric>` with the unit spelled as the last name component
// when the value is dimensioned (`sweep.task_run_ns`,
// `dataplane.egress_wait_cycles`, `workload_cache.resident_bytes`).
// Dimensionless counts carry no suffix (`workload_cache.hits`). Label keys
// distinguish members of one family (`figures.build_ns{figure=fig5}`).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace vr::obs {

/// Label set of one family member, e.g. {{"figure", "fig5"}}. Stored
/// sorted by key so label order never distinguishes metrics.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

class Registry {
 public:
  /// Finds or creates the metric. Re-requesting the same (name, labels)
  /// returns the same object; requesting it with a different kind aborts
  /// (one name, one meaning).
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, Labels labels = {});
  /// Histogram with explicit bucket upper bounds (see Histogram). The
  /// first registration shapes the cell; re-requesting the same name with
  /// different bounds aborts with the metric name — one name, one shape.
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds, Labels labels = {});

  /// One registered metric, copied at a point in time.
  struct Snapshot {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;
    std::int64_t gauge = 0;
    HistogramSnapshot histogram;
  };

  /// All metrics in deterministic order (sorted by name, then labels).
  [[nodiscard]] std::vector<Snapshot> snapshot() const;

  /// Zeroes every metric's value. Registrations (and the references handed
  /// out) remain valid.
  void reset();

  [[nodiscard]] std::size_t size() const;

  /// The process-wide registry the instrumented subsystems publish into.
  [[nodiscard]] static Registry& global();

 private:
  struct Metric {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Metric& find_or_create(std::string_view name, Labels labels,
                         MetricKind kind);

  mutable std::mutex mu_;
  /// Keyed by name + rendered labels; unique_ptr keeps references stable
  /// across rehash/rebalance.
  std::map<std::string, std::unique_ptr<Metric>> metrics_;  // guarded_by(mu_)
};

}  // namespace vr::obs
