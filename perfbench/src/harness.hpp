// Shared measurement plumbing of the benchmark: command-line options,
// percentiles, failure counting, the timed-phase bookkeeping every
// workload shares, and the one-line JSON result each run ends with.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace vrbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ns_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Runs `body` and returns its wall time in seconds.
template <typename Fn>
double timed_s(Fn&& body) {
  const auto t0 = Clock::now();
  body();
  return seconds_between(t0, Clock::now());
}

/// Moves the calling thread to the next CPU it may run on, round-robin.
/// Contention from other tenants of a shared host differs from core to
/// core and drifts over seconds; a run that visits every core averages
/// it rather than sampling one core's luck. No-op on a single CPU.
void rotate_cpu();

/// Runs `set_up()` `repeats` times, each time dropping the previous state
/// first, keeps the last state in `*state` and returns every set-up's
/// wall seconds (setup_s is their median).
template <typename State, typename SetUp>
std::vector<double> repeat_set_up(int repeats, State* state, SetUp&& set_up) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    *state = State{};
    rotate_cpu();
    seconds.push_back(timed_s([&] { *state = set_up(); }));
  }
  return seconds;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace-event JSON written by a traced run (empty = none).
  std::string trace_out;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--trace-out P]`.
/// Returns nullopt (after printing why to stderr) on a malformed line.
[[nodiscard]] std::optional<Options> parse_options(int argc,
                                                   const char* const* argv);

/// Exact percentile of `samples` by the nearest-rank rule, q in (0, 1].
/// `samples` must be non-empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// True when at least ten of `n` samples rank strictly above the
/// nearest-rank q-percentile — the condition for reporting that
/// percentile at all.
[[nodiscard]] bool percentile_reportable(std::size_t n, double q);

/// Operations a timed phase, and its quiet part (see summarize_slots),
/// must hold so that p99 is reportable.
inline constexpr std::size_t kMinLatencySamples = 1000;

/// Share of a timed phase's time that its quiet part covers.
inline constexpr double kQuietShare = 0.25;

/// Latencies in log-spaced buckets, 256 per octave, over 1 ns to ~16 s.
/// Memory stays fixed however many operations a phase runs, so
/// peak_rss_mb tracks the program rather than the sample count. A
/// percentile reads the geometric middle of its bucket: within 0.14 % of
/// the exact sample.
class LatencyHistogram {
 public:
  /// A non-empty bucket: its index and the samples in it.
  using Bucket = std::pair<std::uint16_t, std::uint32_t>;

  void add(double us);
  /// Adds the samples of `buckets`, as buckets() returned them.
  void add(const std::vector<Bucket>& buckets);
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// Nearest-rank q-percentile, q in (0, 1]; count() must be positive.
  [[nodiscard]] double percentile(double q) const;
  /// The non-empty buckets in index order: a compact copy of the samples.
  [[nodiscard]] std::vector<Bucket> buckets() const;
  void clear();

 private:
  static constexpr int kPerOctave = 256;
  static constexpr int kMinOctave = -10;  ///< 2^-10 us, about 1 ns
  static constexpr int kOctaves = 34;     ///< up to 2^24 us, about 16 s

  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>(std::size_t{kPerOctave} * kOctaves);
  std::size_t count_ = 0;
};

/// Operations attempted and failed. A failed output check marks its
/// operation failed; it never aborts the run.
struct FailureCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one operation; returns `ok`.
  bool record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
  /// Marks an operation counted earlier as failed (a whole-state check
  /// that implicates the operations before it).
  void fail() { ++failed; }
  void add(const FailureCount& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// One slot of a timed phase: the stretch it ran on one CPU, from a move
/// to the next CPU (or a start()) to the next move (or a stop()).
struct Slot {
  double seconds = 0.0;
  double work = 0.0;
  double median_us = 0.0;
  std::vector<LatencyHistogram::Bucket> latencies;
};

/// Bookkeeping of one timed phase: latencies of the phase's single
/// operation kind, the work its throughput counts, and its wall time with
/// output checks and other untimed interludes carved out, all kept per
/// slot. A phase may run as several start()/stop() segments; their wall
/// times add up.
class TimedPhase {
 public:
  static constexpr double kRotateSeconds = 0.25;

  void start() {
    start_ = Clock::now();
    running_ = true;
    slot_start_s_ = elapsed_s();
    slot_start_work_ = work_;
  }
  void stop() {
    wall_s_ += seconds_between(start_, Clock::now());
    running_ = false;
    close_slot(elapsed_s());
  }
  /// Wall seconds so far, minus excluded interludes.
  [[nodiscard]] double elapsed_s() const {
    const double open = running_ ? seconds_between(start_, Clock::now()) : 0.0;
    return wall_s_ + open - excluded_s_;
  }
  /// True once the phase ran `seconds`. Called between operations; also
  /// closes the slot and moves to the next CPU every kRotateSeconds of
  /// phase time.
  [[nodiscard]] bool done(double seconds) {
    const double elapsed = elapsed_s();
    if (elapsed >= next_rotation_s_) {
      close_slot(elapsed);
      rotate_cpu();
      next_rotation_s_ = elapsed + kRotateSeconds;
    }
    return elapsed >= seconds;
  }
  void exclude(double seconds) { excluded_s_ += seconds; }
  void add_latency_us(double us) {
    slot_latencies_.add(us);
    ++samples_;
  }
  void add_work(double units) { work_ += units; }

  [[nodiscard]] std::size_t samples() const { return samples_; }
  [[nodiscard]] double work() const { return work_; }
  /// The closed slots that hold at least one latency.
  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }

 private:
  void close_slot(double elapsed);

  Clock::time_point start_{};
  bool running_ = false;
  double next_rotation_s_ = 0.0;
  double wall_s_ = 0.0;
  double excluded_s_ = 0.0;
  double work_ = 0.0;
  std::size_t samples_ = 0;
  double slot_start_s_ = 0.0;
  double slot_start_work_ = 0.0;
  LatencyHistogram slot_latencies_;
  std::vector<Slot> slots_;
};

/// Blocks each half of a traced run is cut into.
inline constexpr int kTraceBlocks = 10;

/// Drives the timed phase: `run_phase(until_s, traced)` extends the
/// untraced (traced = false) or traced phase until it has run `until_s`
/// seconds and returns the number of operations that phase holds. An
/// untraced run is one block of `seconds`. A traced run alternates
/// untraced and traced blocks, half the time each, so that both halves
/// see the same host conditions and their difference is the tracing
/// overhead. Either way, blocks of the same length follow while any
/// phase holds fewer than kMinLatencySamples.
template <typename RunPhase>
void run_timed(const Options& options, RunPhase&& run_phase) {
  const int blocks = options.trace ? kTraceBlocks : 1;
  const double block_s =
      (options.trace ? options.seconds / 2 : options.seconds) / blocks;
  for (int k = 1;; ++k) {
    std::size_t fewest = run_phase(block_s * k, false);
    if (options.trace) fewest = std::min(fewest, run_phase(block_s * k, true));
    if (k >= blocks && fewest >= kMinLatencySamples) return;
  }
}

/// The end-to-end figures of one stopped phase.
struct EndToEnd {
  double throughput = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool p99_reportable = false;
  std::size_t samples = 0;        ///< operations in the whole phase
  std::size_t quiet_samples = 0;  ///< operations in its quiet part
  double peak_rss_mb = 0.0;
};

/// The timing figures of `slots`, taken over their quiet part: the slots
/// with the lowest median latency that together cover kQuietShare of the
/// slots' time and hold at least kMinLatencySamples operations (or all
/// slots, if they hold fewer). Throughput is their work over their
/// seconds; p50 and p99 are nearest ranks over all of their operations.
/// Other tenants of a shared host slow some slots by a third or more, and
/// whole minutes by up to half; the quietest slots of a run move least. A
/// change to the program moves every slot alike, so it shows in full.
[[nodiscard]] EndToEnd summarize_slots(const std::vector<Slot>& slots);

/// Summarizes a phase. Call it right after the timed phase: it also reads
/// the peak resident set, which later output checks must not inflate.
[[nodiscard]] EndToEnd summarize(const TimedPhase& phase);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation prints as its last stdout line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Adds the end-to-end metric set every workload reports: the median of
/// the repeated set-ups, throughput, p50, p99 and peak RSS. p99 is
/// refused — left out, and the run marked incorrect — when fewer than
/// ten latencies of the quiet part lie beyond it.
void add_end_to_end(const std::vector<double>& setup_s, const EndToEnd& e2e,
                    RunResult* result);

/// Adds the tracing overhead: the traced phase's throughput and p50
/// relative to the untraced phase's, as (traced / untraced - 1).
void add_trace_overhead(const EndToEnd& untraced, const EndToEnd& traced,
                        RunResult* result);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// The single-line JSON object of a result.
[[nodiscard]] std::string to_json(const RunResult& result);

}  // namespace vrbench
