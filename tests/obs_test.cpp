// Observability layer: concurrency-exact counters, histogram quantiles and
// merging, registry identity/ordering semantics, JSON sink round-trips and
// RAII timers. The timing tests assert only monotonicity (elapsed >= 0,
// records exactly once) — never wall-clock magnitudes, which would flake.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/sink.hpp"
#include "obs/timer.hpp"

namespace vr::obs {
namespace {

// ---------------------------------------------------------------- counter --

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  const core::SweepRunner runner(kThreads);
  runner.for_each(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kPerThread; ++i) counter.add(1);
  });
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, SetAddAndReset) {
  Gauge gauge;
  gauge.set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), -3);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(GaugeTest, ConcurrentDeltasBalanceOut) {
  Gauge gauge;
  const core::SweepRunner runner(8);
  runner.for_each(8, [&](std::size_t) {
    for (int i = 0; i < 5000; ++i) {
      gauge.add(3);
      gauge.add(-3);
    }
  });
  EXPECT_EQ(gauge.value(), 0);
}

// -------------------------------------------------------------- histogram --

TEST(HistogramTest, SummaryStatsAreExact) {
  Histogram hist;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) hist.observe(v);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count(), 4u);
  EXPECT_DOUBLE_EQ(snap.stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(snap.stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(snap.stats.sum(), 10.0);
}

TEST(HistogramTest, QuantileBoundariesAreExact) {
  Histogram hist;
  for (int v = 1; v <= 100; ++v) hist.observe(static_cast<double>(v));
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 100.0);
  // Interior quantiles are approximate (log2 buckets) but must stay inside
  // the observed range and be monotone in q.
  double last = snap.quantile(0.0);
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double value = snap.quantile(q);
    EXPECT_GE(value, last);
    EXPECT_LE(value, 100.0);
    last = value;
  }
  // The median of 1..100 lands near 50 even through bucket interpolation.
  EXPECT_NEAR(snap.quantile(0.5), 50.0, 16.0);
}

TEST(HistogramTest, EmptySnapshotAnswersZero) {
  const HistogramSnapshot snap = Histogram().snapshot();
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
}

TEST(HistogramTest, MergeMatchesCombinedObservation) {
  Histogram a;
  Histogram b;
  Histogram combined;
  for (int v = 0; v < 50; ++v) {
    a.observe(static_cast<double>(v));
    combined.observe(static_cast<double>(v));
  }
  for (int v = 50; v < 90; ++v) {
    b.observe(static_cast<double>(v));
    combined.observe(static_cast<double>(v));
  }
  a.merge(b.snapshot());
  const HistogramSnapshot merged = a.snapshot();
  const HistogramSnapshot direct = combined.snapshot();
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_DOUBLE_EQ(merged.stats.mean(), direct.stats.mean());
  EXPECT_DOUBLE_EQ(merged.stats.min(), direct.stats.min());
  EXPECT_DOUBLE_EQ(merged.stats.max(), direct.stats.max());
  EXPECT_EQ(merged.buckets, direct.buckets);
  EXPECT_DOUBLE_EQ(merged.quantile(0.5), direct.quantile(0.5));
}

TEST(HistogramTest, ConcurrentObservationsAllLand) {
  Histogram hist;
  const core::SweepRunner runner(8);
  runner.for_each(8, [&](std::size_t t) {
    for (int i = 0; i < 2000; ++i) {
      hist.observe(static_cast<double>(t + 1));
    }
  });
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count(), 16000u);
  EXPECT_DOUBLE_EQ(snap.stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.stats.max(), 8.0);
}

TEST(HistogramTest, RejectsNanAndNegative) {
  Histogram hist;
  EXPECT_DEATH(hist.observe(std::nan("")), "histogram sample is NaN");
  EXPECT_DEATH(hist.observe(-1.0), "histogram sample is negative");
  EXPECT_DEATH(hist.observe(std::nan(""), 3), "histogram sample is NaN");
  EXPECT_DEATH(hist.observe(-1.0, 3), "histogram sample is negative");
}

/// Weighted samples (value, count) spanning several buckets, with a
/// zero count and the value 0, in no particular order.
const std::vector<std::pair<double, std::uint64_t>> kWeightedSamples = {
    {3.0, 7}, {0.0, 2}, {17.0, 1}, {5.0, 0}, {1.0, 40},
    {2.5, 9}, {900.0, 3}, {6.0, 25}, {0.25, 4}};

/// Folding each (value, n) with one weighted observe equals n single
/// observes: exact counts, sum, extremes, buckets and quantiles; mean and
/// spread to the last bits.
void expect_weighted_fold_matches(const std::vector<double>& bounds) {
  Histogram folded(bounds);
  Histogram single(bounds);
  for (const auto& [value, n] : kWeightedSamples) {
    folded.observe(value, n);
    for (std::uint64_t i = 0; i < n; ++i) single.observe(value);
  }
  const HistogramSnapshot a = folded.snapshot();
  const HistogramSnapshot b = single.snapshot();
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.stats.sum(), b.stats.sum());
  EXPECT_EQ(a.stats.min(), b.stats.min());
  EXPECT_EQ(a.stats.max(), b.stats.max());
  EXPECT_EQ(a.buckets, b.buckets);
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q " << q;
  }
  EXPECT_NEAR(a.stats.mean(), b.stats.mean(), 1e-12 * b.stats.mean());
  EXPECT_NEAR(a.stats.stddev(), b.stats.stddev(), 1e-12 * b.stats.stddev());
}

TEST(HistogramTest, WeightedObserveEqualsRepeatedObserves) {
  expect_weighted_fold_matches({});
}

TEST(HistogramBoundsTest, WeightedObserveEqualsRepeatedObserves) {
  expect_weighted_fold_matches({1.0, 2.0, 4.5, 10.0, 100.0});
}

TEST(HistogramTest, WeightedObserveOfZeroSamplesChangesNothing) {
  Histogram hist;
  hist.observe(4.0, 0);
  EXPECT_EQ(hist.snapshot().count(), 0u);
  hist.observe(2.0);
  hist.observe(8.0, 0);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count(), 1u);
  EXPECT_EQ(snap.stats.max(), 2.0);
}

// -------------------------------------------------- custom bucket bounds --

TEST(HistogramBoundsTest, CustomBoundsBinSamplesAtTheDeclaredEdges) {
  Histogram hist(std::vector<double>{2.0, 4.0, 8.0});
  hist.observe(1.0);  // [0, 2)
  hist.observe(2.0);  // [2, 4) — edges are exclusive upper bounds
  hist.observe(5.0);  // [4, 8)
  hist.observe(9.0);  // overflow bucket
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count(), 4u);
  EXPECT_EQ(snap.bounds, (std::vector<double>{2.0, 4.0, 8.0}));
  ASSERT_EQ(snap.used_buckets(), 4u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  // Quantiles interpolate within the declared edges; the overflow
  // bucket's upper edge is the observed max, not infinity.
  const double median = snap.quantile(0.5);
  EXPECT_GE(median, 2.0);
  EXPECT_LE(median, 4.0);
  EXPECT_LE(snap.quantile(1.0), 9.0);
  EXPECT_GE(snap.quantile(1.0), median);
}

TEST(HistogramBoundsTest, MalformedBoundsAbort) {
  EXPECT_DEATH(Histogram(std::vector<double>{2.0, 2.0}),
               "strictly increasing");
  EXPECT_DEATH(Histogram(std::vector<double>{4.0, 2.0}),
               "strictly increasing");
  EXPECT_DEATH(Histogram(std::vector<double>{-1.0, 3.0}),
               "positive and finite");
  std::vector<double> too_many;
  for (int i = 0; i < 64; ++i) {
    too_many.push_back(static_cast<double>(i + 1));
  }
  EXPECT_DEATH(Histogram{too_many}, "more bucket bounds");
}

TEST(HistogramBoundsTest, MatchingBoundsMergeExactly) {
  const std::vector<double> bounds = {3.0, 6.0, 9.0};
  Histogram a(bounds);
  Histogram b(bounds);
  Histogram combined(bounds);
  for (int v = 0; v < 8; ++v) {
    a.observe(static_cast<double>(v));
    combined.observe(static_cast<double>(v));
  }
  for (int v = 8; v < 12; ++v) {
    b.observe(static_cast<double>(v));
    combined.observe(static_cast<double>(v));
  }
  a.merge(b.snapshot());
  const HistogramSnapshot merged = a.snapshot();
  const HistogramSnapshot direct = combined.snapshot();
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.buckets, direct.buckets);
  EXPECT_DOUBLE_EQ(merged.stats.mean(), direct.stats.mean());
  EXPECT_DOUBLE_EQ(merged.quantile(0.5), direct.quantile(0.5));
}

// Regression: merging differently-shaped histograms used to be silently
// accepted bucket-by-bucket, producing counts that belonged to no
// consistent edge scheme. Any shape disagreement must abort.
TEST(HistogramBoundsTest, MismatchedBoundsRefuseToMerge) {
  Histogram a(std::vector<double>{2.0, 4.0});
  Histogram b(std::vector<double>{2.0, 5.0});
  Histogram default_shaped;
  a.observe(1.0);
  b.observe(1.0);
  default_shaped.observe(1.0);
  EXPECT_DEATH(a.merge(b.snapshot()), "bounds mismatch");
  EXPECT_DEATH(a.merge(default_shaped.snapshot()), "bounds mismatch");
  EXPECT_DEATH(default_shaped.merge(a.snapshot()), "bounds mismatch");
}

TEST(HistogramBoundsTest, ConfigureBoundsOnlyReshapesAnEmptyHistogram) {
  Histogram hist;
  hist.configure_bounds({1.0, 2.0});
  hist.configure_bounds({1.0, 2.0});  // same shape again is a no-op
  hist.observe(1.5);
  EXPECT_EQ(hist.snapshot().bounds, (std::vector<double>{1.0, 2.0}));
  // Still-empty but already shaped: a different shape is a conflict.
  Histogram shaped(std::vector<double>{1.0, 2.0});
  EXPECT_DEATH(shaped.configure_bounds({9.0}), "re-configured");
  // Already sampled: the counts cannot be re-binned, even from default.
  EXPECT_DEATH(hist.configure_bounds({9.0}), "cannot change once samples");
  Histogram sampled;
  sampled.observe(1.0);
  EXPECT_DEATH(sampled.configure_bounds({1.0, 2.0}),
               "cannot change once samples");
}

// --------------------------------------------------------------- registry --

TEST(RegistryTest, SameNameAndLabelsReturnsSameCell) {
  Registry registry;
  Counter& a = registry.counter("test.hits");
  Counter& b = registry.counter("test.hits");
  EXPECT_EQ(&a, &b);
  Counter& labeled = registry.counter("test.hits", {{"vn", "1"}});
  EXPECT_NE(&a, &labeled);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(RegistryTest, LabelOrderDoesNotDistinguishMetrics) {
  Registry registry;
  Counter& ab = registry.counter("test.multi", {{"a", "1"}, {"b", "2"}});
  Counter& ba = registry.counter("test.multi", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&ab, &ba);
}

TEST(RegistryTest, KindMismatchAborts) {
  Registry registry;
  registry.counter("test.value");
  EXPECT_DEATH(registry.gauge("test.value"),
               "re-registered with a different kind");
}

TEST(RegistryTest, EmptyNameAborts) {
  Registry registry;
  EXPECT_DEATH(registry.counter(""), "metric name must not be empty");
}

TEST(RegistryTest, SnapshotIsSortedAndComplete) {
  Registry registry;
  registry.counter("z.last").add(3);
  registry.gauge("a.first").set(-5);
  registry.histogram("m.middle").observe(2.0);
  const std::vector<Registry::Snapshot> snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].name, "a.first");
  EXPECT_EQ(snaps[0].gauge, -5);
  EXPECT_EQ(snaps[1].name, "m.middle");
  EXPECT_EQ(snaps[1].histogram.count(), 1u);
  EXPECT_EQ(snaps[2].name, "z.last");
  EXPECT_EQ(snaps[2].counter, 3u);
}

TEST(RegistryTest, ResetZeroesValuesButKeepsReferences) {
  Registry registry;
  Counter& counter = registry.counter("test.n");
  counter.add(41);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(&registry.counter("test.n"), &counter);
  counter.add(1);
  EXPECT_EQ(registry.snapshot().front().counter, 1u);
}

TEST(RegistryTest, ConcurrentRegistrationIsSafe) {
  Registry registry;
  const core::SweepRunner runner(8);
  runner.for_each(64, [&](std::size_t i) {
    registry.counter("test.shared").add(1);
    registry.counter("test.mod", {{"k", std::to_string(i % 4)}}).add(1);
  });
  EXPECT_EQ(registry.counter("test.shared").value(), 64u);
  EXPECT_EQ(registry.size(), 5u);
}

TEST(RegistryTest, HistogramReRegistrationMustKeepItsBounds) {
  Registry registry;
  Histogram& a = registry.histogram("m.lat", std::vector<double>{1.0, 2.0});
  Histogram& b = registry.histogram("m.lat", std::vector<double>{1.0, 2.0});
  EXPECT_EQ(&a, &b);
  // The plain accessor returns the shaped cell unchanged.
  EXPECT_EQ(&registry.histogram("m.lat"), &a);
  EXPECT_DEATH(registry.histogram("m.lat", std::vector<double>{9.0}),
               "different histogram bucket bounds");
}

// ------------------------------------------------------------------- sink --

TEST(SinkTest, JsonSerializesCountersGaugesHistograms) {
  Registry registry;
  registry.counter("c.events", {{"vn", "0"}}).add(12);
  registry.gauge("g.level").set(-4);
  Histogram& hist = registry.histogram("h.depth");
  hist.observe(1.0);
  hist.observe(3.0);
  const std::string json = MetricsSink(registry).json();
  EXPECT_NE(json.find("\"name\": \"c.events\""), std::string::npos);
  EXPECT_NE(json.find("\"vn\": \"0\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"mean\": 2"), std::string::npos);
}

TEST(SinkTest, JsonDoublesRoundTripThroughStrtod) {
  Registry registry;
  Histogram& hist = registry.histogram("h.values");
  const double exact = 0.1 + 0.2;  // not representable in short decimal
  hist.observe(exact);
  const std::string json = MetricsSink(registry).json();
  const std::string needle = "\"mean\": ";
  const std::size_t at = json.find(needle);
  ASSERT_NE(at, std::string::npos);
  const double parsed =
      std::strtod(json.c_str() + at + needle.size(), nullptr);
  EXPECT_EQ(parsed, exact);  // bit-exact, not just close
}

TEST(SinkTest, JsonEscapesLabelValues) {
  Registry registry;
  registry.counter("c.weird", {{"path", "a\"b\\c\n"}}).add(1);
  const std::string json = MetricsSink(registry).json();
  EXPECT_NE(json.find("a\\\"b\\\\c\\n"), std::string::npos);
}

TEST(SinkTest, IndentPrefixesEveryLineAfterTheFirst) {
  Registry registry;
  registry.counter("c.n").add(1);
  std::istringstream lines(MetricsSink(registry).json(2));
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "{");  // first line carries no prefix (embed in place)
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.substr(0, 2), "  ") << "line not indented: " << line;
  }
}

TEST(SinkTest, TableListsEveryMetric) {
  Registry registry;
  registry.counter("c.events").add(2);
  registry.histogram("h.ns").observe(5.0);
  std::ostringstream os;
  MetricsSink(registry).table().render(os);
  EXPECT_NE(os.str().find("c.events"), std::string::npos);
  EXPECT_NE(os.str().find("h.ns"), std::string::npos);
}

// ------------------------------------------------------------------ timer --

TEST(ScopedTimerTest, RecordsExactlyOnceAndNonNegative) {
  Histogram hist;
  {
    ScopedTimer timer(hist);
    const units::Nanoseconds elapsed = timer.stop();
    EXPECT_GE(elapsed.value(), 0.0);
    EXPECT_TRUE(timer.stopped());
    // Second stop and the destructor must both be no-ops.
    EXPECT_DOUBLE_EQ(timer.stop().value(), 0.0);
  }
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count(), 1u);
  EXPECT_GE(snap.stats.min(), 0.0);
}

TEST(ScopedTimerTest, DestructorRecords) {
  Histogram hist;
  { const ScopedTimer timer(hist); }
  EXPECT_EQ(hist.snapshot().count(), 1u);
}

TEST(TraceSpanTest, GaugeTracksOpenSpans) {
  Histogram hist;
  Gauge active;
  {
    const TraceSpan outer(hist, active);
    EXPECT_EQ(active.value(), 1);
    {
      const TraceSpan inner(hist, active);
      EXPECT_EQ(active.value(), 2);
    }
    EXPECT_EQ(active.value(), 1);
  }
  EXPECT_EQ(active.value(), 0);
  EXPECT_EQ(hist.snapshot().count(), 2u);
}

}  // namespace
}  // namespace vr::obs
