#include "obs/registry.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vr::obs {

namespace {

/// Canonical storage key: name, then each label as "\x1fkey\x1evalue".
/// The control-character separators cannot appear in sane metric names, so
/// distinct (name, labels) pairs cannot collide.
std::string make_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

}  // namespace

Registry::Metric& Registry::find_or_create(std::string_view name,
                                           Labels labels, MetricKind kind) {
  VR_REQUIRE(!name.empty(), "metric name must not be empty");
  std::sort(labels.begin(), labels.end());
  const std::string key = make_key(name, labels);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    VR_REQUIRE(it->second->kind == kind,
               "metric '" + std::string(name) +
                   "' re-registered with a different kind");
    return *it->second;
  }
  auto metric = std::make_unique<Metric>();
  metric->name = std::string(name);
  metric->labels = std::move(labels);
  metric->kind = kind;
  Metric& ref = *metric;
  metrics_.emplace(key, std::move(metric));
  return ref;
}

Counter& Registry::counter(std::string_view name, Labels labels) {
  return find_or_create(name, std::move(labels), MetricKind::kCounter)
      .counter;
}

Gauge& Registry::gauge(std::string_view name, Labels labels) {
  return find_or_create(name, std::move(labels), MetricKind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name, Labels labels) {
  return find_or_create(name, std::move(labels), MetricKind::kHistogram)
      .histogram;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds,
                               Labels labels) {
  Histogram& hist =
      find_or_create(name, std::move(labels), MetricKind::kHistogram)
          .histogram;
  // configure_bounds is a no-op when the cell already has these exact
  // bounds and aborts when it has different ones — which turns a
  // re-registration under a changed shape into a loud failure instead of
  // two silently incompatible series.
  VR_REQUIRE(hist.bounds().empty() || hist.bounds() == upper_bounds,
             "metric '" + std::string(name) +
                 "' re-registered with different histogram bucket bounds");
  hist.configure_bounds(std::move(upper_bounds));
  return hist;
}

std::vector<Registry::Snapshot> Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Snapshot> out;
  out.reserve(metrics_.size());
  // std::map iteration order over make_key() output is already sorted by
  // (name, labels), which is the deterministic order sinks rely on.
  for (const auto& [key, metric] : metrics_) {
    Snapshot snap;
    snap.name = metric->name;
    snap.labels = metric->labels;
    snap.kind = metric->kind;
    switch (metric->kind) {
      case MetricKind::kCounter:
        snap.counter = metric->counter.value();
        break;
      case MetricKind::kGauge:
        snap.gauge = metric->gauge.value();
        break;
      case MetricKind::kHistogram:
        snap.histogram = metric->histogram.snapshot();
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, metric] : metrics_) {
    metric->counter.reset();
    metric->gauge.reset();
    metric->histogram.reset();
  }
}

std::size_t Registry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

}  // namespace vr::obs
