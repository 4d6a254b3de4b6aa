// SweepRunner + WorkloadCache: the determinism contract (parallel sweeps
// and cache hits must be indistinguishable from serial cold builds) and
// the mechanics behind it (index-ordered results, exception propagation,
// key scheme, build-once semantics).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/figures.hpp"
#include "core/sweep.hpp"
#include "core/workload.hpp"
#include "core/workload_cache.hpp"

namespace vr::core {
namespace {

// ------------------------------------------------------------ SweepRunner --

TEST(SweepRunnerTest, MapReturnsResultsInIndexOrder) {
  const SweepRunner runner(4);
  const std::vector<std::size_t> out =
      runner.map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(SweepRunnerTest, ZeroAndSingleCounts) {
  const SweepRunner runner(4);
  EXPECT_TRUE(runner.map(0, [](std::size_t i) { return i; }).empty());
  const std::vector<std::size_t> one =
      runner.map(1, [](std::size_t i) { return i + 7; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7u);
}

TEST(SweepRunnerTest, ForEachVisitsEveryIndexExactlyOnce) {
  const SweepRunner runner(4);
  std::vector<std::atomic<int>> visits(64);
  runner.for_each(64, [&](std::size_t i) { ++visits[i]; });
  for (const std::atomic<int>& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(SweepRunnerTest, ExceptionPropagatesAfterJoin) {
  const SweepRunner runner(4);
  EXPECT_THROW(runner.for_each(32,
                               [](std::size_t i) {
                                 if (i == 13) {
                                   throw std::runtime_error("boom");
                                 }
                               }),
               std::runtime_error);
}

TEST(SweepRunnerTest, ThreadCountIsAtLeastOne) {
  EXPECT_GE(SweepRunner(0).thread_count(), 1u);
  EXPECT_EQ(SweepRunner(1).thread_count(), 1u);
  EXPECT_EQ(SweepRunner(6).thread_count(), 6u);
  EXPECT_GE(default_sweep_threads(), 1u);
}

TEST(SweepRunnerTest, VrThreadsEnvIsParsedStrictly) {
  const auto with_env = [](const char* value) {
    if (value == nullptr) {
      unsetenv("VR_THREADS");
    } else {
      setenv("VR_THREADS", value, 1);
    }
    return default_sweep_threads();
  };
  const std::size_t fallback = with_env(nullptr);
  EXPECT_GE(fallback, 1u);
  EXPECT_EQ(with_env("8"), 8u);
  EXPECT_EQ(with_env("3"), 3u);
  // Regression: the old std::stol parse read "8x" as 8 and silently
  // ignored non-positive values. Anything but a full positive integer is
  // now rejected (with a one-time stderr warning) and falls back.
  EXPECT_EQ(with_env("8x"), fallback);
  EXPECT_EQ(with_env("0"), fallback);
  EXPECT_EQ(with_env("-3"), fallback);
  EXPECT_EQ(with_env(""), fallback);
  EXPECT_EQ(with_env(" 4"), fallback);
  unsetenv("VR_THREADS");
}

// Regression: VR_THREADS had no upper cap — "VR_THREADS=1000000" would
// make every sweep try to spawn a million std::threads and die on
// resource exhaustion instead of falling back. Values above
// kMaxProbeThreads are now rejected like any other unusable setting.
TEST(SweepRunnerTest, VrThreadsIsCappedAtKMaxProbeThreads) {
  const auto with_env = [](const char* value) {
    setenv("VR_THREADS", value, 1);
    return default_sweep_threads();
  };
  unsetenv("VR_THREADS");
  const std::size_t fallback = default_sweep_threads();
  struct Case {
    const char* value;
    bool accepted;
    std::size_t expected;  // meaningful only when accepted
  };
  const Case cases[] = {
      {"1", true, 1},
      {"4095", true, 4095},
      {"4096", true, kMaxProbeThreads},  // the cap itself is usable
      {"4097", false, 0},
      {"65536", false, 0},
      {"9223372036854775807", false, 0},   // fits the parse, over the cap
      {"99999999999999999999", false, 0},  // overflows the parse entirely
  };
  for (const Case& c : cases) {
    EXPECT_EQ(with_env(c.value), c.accepted ? c.expected : fallback)
        << "VR_THREADS=" << c.value;
  }
  unsetenv("VR_THREADS");
}

// One rule for every requested thread count: VR_THREADS and the benches'
// --threads flag. Parsing only; no pool is started.
TEST(SweepRunnerTest, ParseThreadCountAcceptsOnlyAUsablePool) {
  struct Case {
    const char* text;
    std::optional<std::size_t> expected;
  };
  const Case cases[] = {
      {"8", 8},
      {"1", 1},
      {"4096", kMaxProbeThreads},  // the cap itself is usable
      {"4097", std::nullopt},
      {"0", std::nullopt},
      {"-3", std::nullopt},
      {"8x", std::nullopt},  // "8x" is not 8
      {"abc", std::nullopt},
      {"", std::nullopt},
      {" 4", std::nullopt},
      {"99999999999999999999", std::nullopt},  // overflows the parse
  };
  for (const Case& c : cases) {
    EXPECT_EQ(parse_thread_count(c.text), c.expected)
        << "text \"" << c.text << '"';
  }
}

TEST(SweepRunnerTest, ConcurrencyProbeRecordsItsSource) {
  setenv("VR_THREADS", "5", 1);
  const ConcurrencyProbe pinned = probe_concurrency();
  EXPECT_EQ(pinned.threads, 5u);
  EXPECT_STREQ(pinned.source, "env:VR_THREADS");
  unsetenv("VR_THREADS");

  // Without the env var the probe must still find at least one usable
  // thread and say where the number came from — the bench JSON records
  // the source so a hardware_concurrency()==0/1 container is
  // distinguishable from a genuinely single-core host.
  const ConcurrencyProbe probed = probe_concurrency();
  EXPECT_GE(probed.threads, 1u);
  const std::string source = probed.source;
  EXPECT_TRUE(source == "hardware_concurrency" ||
              source == "sysconf:_SC_NPROCESSORS_ONLN" ||
              source == "fallback")
      << source;
  EXPECT_EQ(default_sweep_threads(), probed.threads);
}

// ---------------------------------------------------------- WorkloadCache --

Scenario small_scenario() {
  Scenario s;
  s.table_profile.prefix_count = 400;
  s.vn_count = 3;
  s.scheme = power::Scheme::kMerged;
  return s;
}

TEST(WorkloadCacheTest, HitEqualsColdBuild) {
  const Scenario s = small_scenario();
  const Workload cold = realize_workload(s);

  WorkloadCache cache;
  const std::shared_ptr<const Workload> first = cache.realize(s);
  const std::shared_ptr<const Workload> second = cache.realize(s);

  // Second realize is a hit and returns the very same immutable object.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // And the cached workload is indistinguishable from a fresh build.
  EXPECT_EQ(first->prefix_count, cold.prefix_count);
  EXPECT_DOUBLE_EQ(first->alpha_used, cold.alpha_used);
  EXPECT_EQ(first->representative_stats.total_nodes,
            cold.representative_stats.total_nodes);
  EXPECT_EQ(first->per_vn_engine.stage_bits, cold.per_vn_engine.stage_bits);
  EXPECT_EQ(first->merged_engine.stage_bits, cold.merged_engine.stage_bits);
}

TEST(WorkloadCacheTest, ClearResetsEntriesAndStats) {
  const Scenario s = small_scenario();
  WorkloadCache cache;
  (void)cache.realize(s);
  (void)cache.realize(s);
  cache.clear();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  (void)cache.realize(s);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(WorkloadCacheTest, KeyIgnoresFieldsRealizationNeverReads) {
  Scenario a = small_scenario();
  Scenario b = a;
  // Grade, frequency, BRAM policy: power-model inputs, not workload inputs.
  b.grade = fpga::SpeedGrade::kMinus1L;
  b.freq_mhz = units::Megahertz{250.0};
  b.bram_policy = fpga::BramPolicy::k18Only;
  EXPECT_EQ(WorkloadCache::key(a, false), WorkloadCache::key(b, false));
}

TEST(WorkloadCacheTest, KeySeparatesFieldsRealizationReads) {
  const Scenario base = small_scenario();
  const std::string k0 = WorkloadCache::key(base, false);

  Scenario seed = base;
  seed.seed = 99;
  Scenario vns = base;
  vns.vn_count = 9;
  Scenario alpha = base;
  alpha.alpha = 0.21;
  Scenario scheme = base;
  scheme.scheme = power::Scheme::kSeparate;
  Scenario profile = base;
  profile.table_profile.prefix_count = 401;

  EXPECT_NE(WorkloadCache::key(seed, false), k0);
  EXPECT_NE(WorkloadCache::key(vns, false), k0);
  EXPECT_NE(WorkloadCache::key(alpha, false), k0);
  EXPECT_NE(WorkloadCache::key(scheme, false), k0);
  EXPECT_NE(WorkloadCache::key(profile, false), k0);
  EXPECT_NE(WorkloadCache::key(base, true), k0);  // keep_tables in the key
}

TEST(WorkloadCacheTest, ConcurrentRealizeBuildsOnce) {
  const Scenario s = small_scenario();
  WorkloadCache cache;
  const SweepRunner runner(8);
  const std::vector<const Workload*> ptrs =
      runner.map(16, [&](std::size_t) -> const Workload* {
        return cache.realize(s).get();
      });
  for (const Workload* p : ptrs) {
    EXPECT_EQ(p, ptrs.front());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 15u);
}

// ------------------------------------------- cache failure & clear races --

// A builder seam that runs a fixed script: each realize() call takes the
// next Step in order. Blocking steps wait on a future the test releases,
// which makes the clear()/failure interleavings deterministic.
struct ScriptedBuilder {
  struct Step {
    bool fail = false;
    std::shared_future<void> gate;  // wait before finishing (if valid)
  };

  std::shared_ptr<const Workload> product;
  std::vector<Step> steps;
  std::atomic<std::size_t> calls{0};

  WorkloadCache::Builder fn() {
    return [this](const Scenario&, bool) -> std::shared_ptr<const Workload> {
      const std::size_t index = calls.fetch_add(1);
      const Step& step = steps.at(index);
      if (step.gate.valid()) step.gate.wait();
      if (step.fail) throw std::runtime_error("scripted build failure");
      return product;
    };
  }
};

std::shared_ptr<const Workload> shared_small_workload() {
  static const std::shared_ptr<const Workload> workload =
      std::make_shared<const Workload>(realize_workload(small_scenario()));
  return workload;
}

TEST(WorkloadCacheTest, FailedBuildRecoversOnRetry) {
  ScriptedBuilder script;
  script.product = shared_small_workload();
  script.steps = {{.fail = true, .gate = {}}, {.fail = false, .gate = {}}};
  WorkloadCache cache(nullptr, script.fn());
  const Scenario s = small_scenario();

  EXPECT_THROW((void)cache.realize(s), std::runtime_error);
  // The failed slot is gone — the key is rebuildable, not poisoned.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);

  const std::shared_ptr<const Workload> retried = cache.realize(s);
  EXPECT_EQ(retried.get(), script.product.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.realize(s).get(), retried.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

// Regression: a build failing after clear() had re-installed its key used
// to erase the *retry's* slot from the catch path — the retry's waiters
// lost dedup and its completion then corrupted the byte accounting. The
// generation check must leave a slot it no longer owns alone.
TEST(WorkloadCacheTest, FailedBuildAfterClearDoesNotEraseTheRetrysSlot) {
  std::promise<void> release_failing;
  ScriptedBuilder script;
  script.product = shared_small_workload();
  script.steps = {{.fail = true, .gate = release_failing.get_future().share()},
                  {.fail = false, .gate = {}}};
  WorkloadCache cache(nullptr, script.fn());
  const Scenario s = small_scenario();

  std::thread failing([&] {
    EXPECT_THROW((void)cache.realize(s), std::runtime_error);
  });
  while (script.calls.load() == 0) std::this_thread::yield();

  // The in-flight build's slot is dropped, then the same key is rebuilt
  // successfully — a new slot with a new generation.
  cache.clear();
  const std::shared_ptr<const Workload> healthy = cache.realize(s);
  EXPECT_EQ(healthy.get(), script.product.get());
  EXPECT_EQ(cache.stats().entries, 1u);

  // Now the stale build fails. Its catch path must not tear down the
  // healthy slot it no longer owns.
  release_failing.set_value();
  failing.join();
  EXPECT_EQ(cache.stats().entries, 1u);
  const std::uint64_t hits_before = cache.stats().hits;
  EXPECT_EQ(cache.realize(s).get(), healthy.get());
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
}

// Regression: a build completing after clear() had re-installed its key
// used to mark the new slot ready; when the new build then completed too,
// the entry was counted twice. The stale completion must be a no-op.
TEST(WorkloadCacheTest, StaleCompletionAfterClearDoesNotDoubleCharge) {
  std::promise<void> release_stale;
  std::promise<void> release_retry;
  ScriptedBuilder script;
  script.product = shared_small_workload();
  script.steps = {{.fail = false, .gate = release_stale.get_future().share()},
                  {.fail = false, .gate = release_retry.get_future().share()}};
  WorkloadCache cache(nullptr, script.fn());
  const Scenario s = small_scenario();

  std::thread stale([&] { (void)cache.realize(s); });
  while (script.calls.load() == 0) std::this_thread::yield();
  cache.clear();

  std::thread retry([&] { (void)cache.realize(s); });
  while (script.calls.load() < 2) std::this_thread::yield();

  // The stale build finishes first, against a slot that is no longer its
  // own; then the retry finishes and becomes the resident entry.
  release_stale.set_value();
  stale.join();
  release_retry.set_value();
  retry.join();

  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.realize(s).get(), script.product.get());
}

// ------------------------------------------------- sweep determinism e2e --

std::string render_figures(const FigureOptions& options) {
  const FigureBuilder builder(fpga::DeviceSpec::xc6vlx760(), options);
  std::ostringstream os;
  const FigureBuilder::Fig4 fig4 = builder.fig4_memory();
  fig4.pointer_memory.render_csv(os);
  fig4.nhi_memory.render_csv(os);
  builder.fig5_total_power(fpga::SpeedGrade::kMinus2).render_csv(os);
  builder.fig7_model_error(fpga::SpeedGrade::kMinus1L).render_csv(os);
  builder.fig8_efficiency(fpga::SpeedGrade::kMinus2).render_csv(os);
  return os.str();
}

TEST(SweepDeterminismTest, ParallelCachedOutputMatchesSerialByteForByte) {
  FigureOptions small;
  small.table_profile.prefix_count = 400;
  small.max_vn = 6;
  small.memory_max_vn = 8;

  FigureOptions serial = small;
  serial.threads = 1;
  serial.use_cache = false;

  FigureOptions parallel = small;
  parallel.threads = 4;
  parallel.use_cache = true;

  WorkloadCache::global().clear();
  const std::string serial_csv = render_figures(serial);
  WorkloadCache::global().clear();
  const std::string parallel_cold_csv = render_figures(parallel);
  const std::string parallel_warm_csv = render_figures(parallel);

  EXPECT_EQ(serial_csv, parallel_cold_csv);
  EXPECT_EQ(serial_csv, parallel_warm_csv);
  EXPECT_GT(WorkloadCache::global().stats().hits, 0u);
}

}  // namespace
}  // namespace vr::core
