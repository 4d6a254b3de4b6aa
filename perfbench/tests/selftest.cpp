// Self-test of the benchmark's own code: the output checks count planted
// faults as failed operations, the p99 rule refuses a tail with fewer
// than ten samples beyond it, the timing figures come from the quiet part
// of the slots, the tracer's self time and JSON output hold
// together, and span records stop at the tracer's keep limit. Run:
// vrbench_selftest (exit 0 = all checks passed).
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "harness.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/traffic.hpp"
#include "trace.hpp"
#include "trie/flat_multibit_trie.hpp"
#include "trie/unibit_trie.hpp"
#include "workloads.hpp"

namespace {

using namespace vrbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAILED: " << what << '\n';
  }
}

bool has_metric(const RunResult& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return true;
  }
  return false;
}

void planted_wrong_next_hop_is_a_failure() {
  vr::net::TableProfile profile;
  profile.prefix_count = 300;
  const vr::net::RoutingTable table =
      vr::net::SyntheticTableGenerator(profile).generate(7);
  const vr::trie::FlatMultibitTrie image(table, 8);
  const vr::trie::UnibitTrie oracle(table);
  const vr::net::TrafficGenerator traffic(vr::net::TrafficConfig{}, {&table});
  vr::Rng rng(11);
  std::vector<vr::net::Ipv4> keys;
  for (int i = 0; i < 256; ++i) keys.push_back(traffic.sample_packet(rng, 0).addr);

  std::vector<vr::net::NextHop> got = image.lookup_batch(keys);
  const std::vector<vr::net::NextHop> expected = oracle.lookup_batch(keys);
  FailureCount ops;
  ops.record(count_next_hop_mismatches(got, expected) == 0);
  check(ops.attempted == 1 && ops.failed == 0, "a correct burst passes");

  got[17] = static_cast<vr::net::NextHop>(got[17] + 1);
  ops.record(count_next_hop_mismatches(got, expected) == 0);
  check(ops.attempted == 2 && ops.failed == 1,
        "a planted wrong next hop counts one failed operation");
  check(count_next_hop_mismatches(got, expected) == 1,
        "exactly the planted key mismatches");
  got.pop_back();
  check(count_next_hop_mismatches(got, expected) > 0,
        "a short result is a mismatch");
}

vr::power::ActivityPower sane_power() {
  vr::power::ActivityPower p;
  p.per_vn_w = {vr::units::Watts{0.01}, vr::units::Watts{0.02}};
  p.per_vn_overhead_w = {vr::units::Watts{0.001}, vr::units::Watts{0.001}};
  p.logic_w = vr::units::Watts{0.02};
  p.memory_w = vr::units::Watts{0.01};
  p.memory_gated_w = vr::units::Watts{0.005};
  p.parser_w = vr::units::Watts{0.001};
  p.buffer_w = vr::units::Watts{0.001};
  return p;
}

void planted_wrong_wattage_is_a_failure() {
  FailureCount ops;
  ops.record(watts_valid(sane_power()));
  check(ops.failed == 0, "sane wattage passes");

  auto nan = sane_power();
  nan.per_vn_w[1] = vr::units::Watts{std::numeric_limits<double>::quiet_NaN()};
  ops.record(watts_valid(nan));
  auto negative = sane_power();
  negative.arbiter_w = vr::units::Watts{-0.5};
  ops.record(watts_valid(negative));
  auto infinite = sane_power();
  infinite.memory_w = vr::units::Watts{std::numeric_limits<double>::infinity()};
  ops.record(watts_valid(infinite));
  check(ops.attempted == 4 && ops.failed == 3,
        "NaN, negative and infinite watts each count a failed operation");

  vr::power::ActivityPower zero;
  check(!watts_valid(zero), "zero total watts fail");
}

TimedPhase phase_with(std::size_t samples) {
  TimedPhase phase;
  phase.start();
  for (std::size_t i = 0; i < samples; ++i) {
    phase.add_latency_us(static_cast<double>(i + 1));
  }
  phase.add_work(1.0);
  phase.stop();
  return phase;
}

void p99_needs_ten_samples_beyond_it() {
  check(!percentile_reportable(999, 0.99), "999 samples leave 9 beyond p99");
  check(percentile_reportable(1000, 0.99), "1000 samples leave 10 beyond p99");
  check(!percentile_reportable(0, 0.99), "no samples, no p99");

  RunResult few;
  add_end_to_end({1.0}, summarize(phase_with(500)), &few);
  check(!has_metric(few, "latency_p99_us") && !few.correct,
        "p99 refused, and the run marked incorrect, at 500 samples");
  check(has_metric(few, "latency_p50_us"), "p50 still reported");

  RunResult enough;
  add_end_to_end({1.0}, summarize(phase_with(1000)), &enough);
  check(has_metric(enough, "latency_p99_us") && enough.correct,
        "p99 reported at 1000 samples");
}

/// Four one-second slots alternating fast (10 us per operation,
/// `fast_ops` operations) and slow (20 us, half as many), every latency
/// scaled by `slowdown`.
std::vector<Slot> fast_and_slow_slots(int fast_ops, double slowdown) {
  std::vector<Slot> slots;
  for (int i = 0; i < 4; ++i) {
    const bool slow = i % 2 == 1;
    const int ops = slow ? fast_ops / 2 : fast_ops;
    LatencyHistogram h;
    for (int k = 0; k < ops; ++k) h.add((slow ? 20.0 : 10.0) * slowdown);
    slots.push_back({1.0 * slowdown, static_cast<double>(ops),
                     h.percentile(0.5), h.buckets()});
  }
  return slots;
}

void timing_figures_come_from_the_quiet_part() {
  const auto close = [](double got, double want) {
    return std::abs(got / want - 1.0) <= 0.0014;
  };
  const EndToEnd base = summarize_slots(fast_and_slow_slots(1000, 1.0));
  check(base.samples == 3000 && base.quiet_samples == 1000,
        "the quiet part is one fast slot, a quarter of the time");
  check(close(base.throughput, 1000.0), "throughput over the quiet part");
  check(close(base.p50_us, 10.0) && close(base.p99_us, 10.0),
        "percentiles over the quiet part");

  const EndToEnd widened = summarize_slots(fast_and_slow_slots(600, 1.0));
  check(widened.quiet_samples == 1200 && close(widened.throughput, 600.0),
        "the quiet part widens to hold 1,000 operations");

  const EndToEnd slower = summarize_slots(fast_and_slow_slots(1000, 1.5));
  check(close(slower.throughput, 1000.0 / 1.5) && close(slower.p50_us, 15.0),
        "a program slower in every slot shows in full");

  TimedPhase phase;
  phase.start();
  for (int i = 0; i < 10; ++i) phase.add_latency_us(5.0);
  phase.stop();
  check(phase.slots().size() == 1 && phase.samples() == 10,
        "stop() closes the open slot");
}

void percentiles_use_nearest_rank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(percentile(v, 0.5) == 50.0, "p50 of 1..100 is 50");
  check(percentile(v, 0.99) == 99.0, "p99 of 1..100 is 99");
  check(percentile(v, 1.0) == 100.0, "p100 is the maximum");
  check(median({3.0, 1.0, 2.0}) == 2.0, "median of three");

  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.add(i * 0.37);
  const auto close = [](double got, double want) {
    return std::abs(got / want - 1.0) <= 0.0014;
  };
  check(hist.count() == 1000, "histogram counts every sample");
  check(close(hist.percentile(0.5), 500 * 0.37) &&
            close(hist.percentile(0.99), 990 * 0.37) &&
            close(hist.percentile(1.0), 1000 * 0.37),
        "histogram percentiles within 0.14 % of the exact sample");
}

void tracer_self_time_and_output() {
  Tracer tracer(true);
  const auto parent = tracer.name("parent");
  const auto child = tracer.name("child");
  const auto bulk = tracer.name("bulk");
  check(tracer.name("parent") == parent, "names are idempotent");
  for (int op = 0; op < 4; ++op) {
    auto p = tracer.span(parent, op);
    { auto c = tracer.span(child, op); }
    tracer.aggregate(bulk, 10, 5000.0);
  }
  const auto& pt = tracer.totals(parent);
  const auto& ct = tracer.totals(child);
  check(pt.calls == 4 && ct.calls == 4, "every span counted");
  check(tracer.totals(bulk).calls == 40, "aggregated calls counted");
  check(std::abs(pt.self_ns - (pt.total_ns - ct.total_ns - 4 * 5000.0)) < 1e-6,
        "self time is duration minus child time");
  check(tracer.kept_count() == 12,
        "parent, child and aggregate records kept below the limit");

  Tracer off(false);
  auto span = off.span(off.name("x"), 0);
  check(span.end() == 0.0, "a disabled tracer reads no clock");

  RunResult r;
  r.attempted = 3;
  r.failed = 1;
  r.add("a.b", 1.5, "us");
  const std::string json = to_json(r);
  check(json.find("\"attempted\": 3") != std::string::npos &&
            json.find("\"a.b\": {\"value\": 1.5, \"unit\": \"us\"}") !=
                std::string::npos,
        "result JSON carries counts and metrics");
  r.add("bad", std::numeric_limits<double>::quiet_NaN(), "us");
  check(to_json(r).find("\"correct\": false") != std::string::npos,
        "a non-finite metric makes the run incorrect");
}

void span_records_stop_at_the_keep_limit() {
  Tracer tracer(true);
  const auto parent = tracer.name("parent");
  const auto child = tracer.name("child");
  const std::uint64_t ops = Tracer::kKeepLimit / 2 + 10;
  for (std::uint64_t op = 0; op < ops; ++op) {
    auto p = tracer.span(parent, op);
    auto c = tracer.span(child, op);
  }
  check(tracer.kept_count() == Tracer::kKeepLimit,
        "span records stop at the keep limit");
  check(tracer.totals(parent).calls == ops && tracer.totals(child).calls == ops,
        "totals count the spans past the limit");
}

}  // namespace

int main() {
  planted_wrong_next_hop_is_a_failure();
  planted_wrong_wattage_is_a_failure();
  p99_needs_ten_samples_beyond_it();
  timing_figures_come_from_the_quiet_part();
  percentiles_use_nearest_rank();
  tracer_self_time_and_output();
  span_records_stop_at_the_keep_limit();
  if (g_failures > 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "vrbench_selftest: all checks passed\n";
  return 0;
}
