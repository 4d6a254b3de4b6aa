// SweepRunner — the parallel sweep engine. Figure builders and the bench
// binaries fan sweep points (scheme × K × α × speed grade) out across a
// pool of std::threads. Work distribution is dynamic (threads claim the
// next unclaimed index from a shared atomic counter, so long points do not
// stall short ones), but results are stored by index, which makes the
// output ordering — and therefore every rendered table — bit-identical to
// a serial run regardless of the thread count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace vr::core {

/// How the usable worker count was determined, for reporting: benchmark
/// JSON records the source next to the number so a reader can tell a real
/// single-core host from a container where hardware_concurrency() lies.
struct ConcurrencyProbe {
  std::size_t threads = 1;
  /// "env:VR_THREADS", "hardware_concurrency",
  /// "sysconf:_SC_NPROCESSORS_ONLN" or "fallback".
  const char* source = "fallback";
};

/// Upper bound on a requested thread count (VR_THREADS or a --threads
/// flag). A pool this size already oversubscribes any host the sweeps
/// target by orders of magnitude; values above it are treated as typos (a
/// stray digit, a pasted byte count) rather than intent, exactly like "0"
/// or "8x".
inline constexpr std::size_t kMaxProbeThreads = 4096;

/// Parses a requested thread count: the whole text must be a decimal
/// integer in [1, kMaxProbeThreads]. "8x", "0", "-3", " 4" and "" are not.
[[nodiscard]] std::optional<std::size_t> parse_thread_count(
    std::string_view text);

/// Probes the usable concurrency: VR_THREADS when parse_thread_count
/// accepts it, else std::thread::hardware_concurrency(), cross-checked
/// against the online-CPU count when it reports 0 or 1 (both values it
/// can legally return even on multi-core hosts).
[[nodiscard]] ConcurrencyProbe probe_concurrency();

/// Worker count used when a sweep does not pin one explicitly:
/// probe_concurrency().threads.
[[nodiscard]] std::size_t default_sweep_threads();

class SweepRunner {
 public:
  /// `threads` = 0 picks default_sweep_threads().
  explicit SweepRunner(std::size_t threads = 0)
      : threads_(threads == 0 ? default_sweep_threads() : threads) {}

  [[nodiscard]] std::size_t thread_count() const noexcept { return threads_; }

  /// Evaluates fn(0) .. fn(count-1) across the pool and returns the
  /// results in index order. fn must be invocable concurrently from
  /// multiple threads; the first exception thrown is rethrown here after
  /// all workers have stopped.
  template <typename Fn>
  [[nodiscard]] auto map(std::size_t count, Fn&& fn) const {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(!std::is_void_v<R>, "use for_each for void functions");
    std::vector<std::optional<R>> slots(count);
    run_indexed(count, [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(count);
    for (std::optional<R>& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

  /// Runs fn(0) .. fn(count-1) across the pool (no results collected).
  template <typename Fn>
  void for_each(std::size_t count, Fn&& fn) const {
    run_indexed(count, fn);
  }

 private:
  /// Metrics of the sweep engine, registered once per process in the
  /// global registry:
  ///   sweep.tasks            tasks completed
  ///   sweep.task_run_ns      per-task execution time
  ///   sweep.task_wait_ns     queue wait (sweep start -> task claimed)
  ///   sweep.workers          pool width of the most recent sweep
  ///   sweep.workers_active   workers currently inside a task
  ///   sweep.worker_utilization  busy fraction of each worker per sweep
  struct Metrics {
    obs::Counter& tasks;
    obs::Histogram& task_run_ns;
    obs::Histogram& task_wait_ns;
    obs::Gauge& workers;
    obs::Gauge& workers_active;
    obs::Histogram& worker_utilization;

    static const Metrics& get() {
      static Metrics metrics = [] {
        obs::Registry& reg = obs::Registry::global();
        return Metrics{reg.counter("sweep.tasks"),
                       reg.histogram("sweep.task_run_ns"),
                       reg.histogram("sweep.task_wait_ns"),
                       reg.gauge("sweep.workers"),
                       reg.gauge("sweep.workers_active"),
                       reg.histogram("sweep.worker_utilization")};
      }();
      return metrics;
    }
  };

  template <typename Fn>
  void run_indexed(std::size_t count, Fn&& fn) const {
    using Clock = std::chrono::steady_clock;
    const std::size_t workers = std::min(threads_, count);
    if (count == 0) return;
    const Metrics& metrics = Metrics::get();
    metrics.workers.set(static_cast<std::int64_t>(std::max<std::size_t>(
        workers, 1)));
    const Clock::time_point sweep_start = Clock::now();
    std::atomic<std::size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr error;
    // One body for the serial and the pooled path, so both feed the same
    // metrics: claim a task, record its queue wait, time its run.
    const auto worker = [&] {
      const Clock::time_point worker_start = Clock::now();
      double busy_ns = 0.0;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        metrics.task_wait_ns.observe_duration(obs::since(sweep_start));
        const obs::TraceSpan span(metrics.task_run_ns,
                                  metrics.workers_active);
        const Clock::time_point task_start = Clock::now();
        try {
          fn(i);
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock(error_mu);
            if (!error) error = std::current_exception();
          }
          next.store(count, std::memory_order_relaxed);  // drain the queue
          break;
        }
        busy_ns += obs::since(task_start).value();
        metrics.tasks.add(1);
      }
      const double wall_ns = obs::since(worker_start).value();
      if (wall_ns > 0.0) {
        metrics.worker_utilization.observe(busy_ns / wall_ns);
      }
    };
    if (workers <= 1) {
      worker();
    } else {
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
      for (std::thread& thread : pool) thread.join();
    }
    if (error) std::rethrow_exception(error);
  }

  std::size_t threads_;
};

}  // namespace vr::core
