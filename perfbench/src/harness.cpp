#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

namespace vrbench {

namespace {

/// 1-based nearest rank of the q-percentile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  // Guard the product against representation error (0.99 * 1000 must be
  // rank 990, not 991).
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

}  // namespace

void rotate_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  static std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  (void)sched_setaffinity(0, sizeof(one), &one);  // best effort
}

std::optional<Options> parse_options(int argc, const char* const* argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "vrbench: " << flag << " needs a value\n";
      return std::nullopt;
    }
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, &number)) {
      opt.seed = number;
    } else if (flag == "--seconds" && parse_u64(value, &number) &&
               number >= 1 && number <= 3600) {
      opt.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (std::string(value) == "0" ||
                                     std::string(value) == "1")) {
      opt.trace = std::string(value) == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::cerr << "vrbench: bad argument " << flag << ' ' << value << '\n';
      return std::nullopt;
    }
  }
  if (!have_workload) {
    std::cerr << "vrbench: --workload is required\n";
    return std::nullopt;
  }
  return opt;
}

double percentile(std::vector<double> samples, double q) {
  const std::size_t rank = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

bool percentile_reportable(std::size_t n, double q) {
  if (n == 0) return false;
  return n - nearest_rank(n, q) >= 10;
}

void LatencyHistogram::add(double us) {
  const double position =
      (std::log2(std::max(us, 1e-9)) - kMinOctave) * kPerOctave;
  const auto last = static_cast<double>(counts_.size() - 1);
  ++counts_[static_cast<std::size_t>(std::clamp(position, 0.0, last))];
  ++count_;
}

void LatencyHistogram::add(const std::vector<Bucket>& buckets) {
  for (const auto& [bucket, n] : buckets) {
    counts_[bucket] += n;
    count_ += n;
  }
}

double LatencyHistogram::percentile(double q) const {
  const std::size_t rank = nearest_rank(count_, q);
  std::size_t seen = 0;
  std::size_t bucket = 0;
  while (seen + counts_[bucket] < rank) seen += counts_[bucket++];
  return std::exp2((static_cast<double>(bucket) + 0.5) / kPerOctave +
                   kMinOctave);
}

std::vector<LatencyHistogram::Bucket> LatencyHistogram::buckets() const {
  static_assert(std::size_t{kPerOctave} * kOctaves <= 65536,
                "a bucket index must fit Bucket's 16 bits");
  std::vector<Bucket> out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] > 0) {
      out.emplace_back(static_cast<std::uint16_t>(b),
                       static_cast<std::uint32_t>(counts_[b]));
    }
  }
  return out;
}

void LatencyHistogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
}

void TimedPhase::close_slot(double elapsed) {
  if (slot_latencies_.count() > 0) {
    slots_.push_back({elapsed - slot_start_s_, work_ - slot_start_work_,
                      slot_latencies_.percentile(0.5),
                      slot_latencies_.buckets()});
    slot_latencies_.clear();
  }
  slot_start_s_ = elapsed;
  slot_start_work_ = work_;
}

EndToEnd summarize_slots(const std::vector<Slot>& slots) {
  std::vector<const Slot*> order;
  double total_s = 0.0;
  for (const Slot& slot : slots) {
    order.push_back(&slot);
    total_s += slot.seconds;
  }
  std::stable_sort(order.begin(), order.end(), [](const Slot* a, const Slot* b) {
    return a->median_us < b->median_us;
  });
  LatencyHistogram quiet;
  double seconds = 0.0;
  double work = 0.0;
  for (const Slot* slot : order) {
    if (quiet.count() >= kMinLatencySamples &&
        seconds >= kQuietShare * total_s) {
      break;
    }
    quiet.add(slot->latencies);
    seconds += slot->seconds;
    work += slot->work;
  }
  EndToEnd e2e;
  for (const Slot& slot : slots) {
    for (const auto& bucket : slot.latencies) e2e.samples += bucket.second;
  }
  e2e.quiet_samples = quiet.count();
  if (quiet.count() > 0) {
    e2e.throughput = work / seconds;
    e2e.p50_us = quiet.percentile(0.50);
    e2e.p99_us = quiet.percentile(0.99);
  }
  e2e.p99_reportable = percentile_reportable(quiet.count(), 0.99);
  return e2e;
}

EndToEnd summarize(const TimedPhase& phase) {
  EndToEnd e2e = summarize_slots(phase.slots());
  e2e.peak_rss_mb = peak_rss_mb();
  return e2e;
}

void add_end_to_end(const std::vector<double>& setup_s, const EndToEnd& e2e,
                    RunResult* result) {
  result->add("setup_s", median(setup_s), "s");
  result->add("throughput", e2e.throughput, "1/s");
  result->add("latency_p50_us", e2e.p50_us, "us");
  if (e2e.p99_reportable) {
    result->add("latency_p99_us", e2e.p99_us, "us");
  } else {
    std::cout << "p99 refused: " << e2e.quiet_samples
              << " samples in the quiet part leave fewer than ten beyond it\n";
    result->correct = false;
  }
  result->add("peak_rss_mb", e2e.peak_rss_mb, "MB");
}

void add_trace_overhead(const EndToEnd& untraced, const EndToEnd& traced,
                        RunResult* result) {
  result->add("trace.overhead.throughput_share",
              traced.throughput / untraced.throughput - 1.0, "ratio");
  result->add("trace.overhead.latency_p50_share",
              traced.p50_us / untraced.p50_us - 1.0, "ratio");
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so a process started
  // from a larger parent (the Python launcher) would report the parent's
  // peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string to_json(const RunResult& result) {
  bool correct = result.correct;
  std::ostringstream metrics;
  metrics.precision(std::numeric_limits<double>::max_digits10);
  metrics << '{';
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    double value = m.value;
    if (!std::isfinite(value)) {
      correct = false;  // JSON has no NaN; a non-finite figure is a bug
      value = 0.0;
    }
    metrics << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": "
            << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  metrics << '}';
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed
      << ", \"metrics\": " << metrics.str() << '}';
  return out.str();
}

}  // namespace vrbench
