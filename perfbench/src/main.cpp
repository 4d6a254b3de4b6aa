// vrbench — the repository benchmark's binary.
//
//   vrbench --workload route-churn|dataplane-skew|fleet-online
//           --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints progress lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 they are every
// per-layer metric (a layer the workload never calls reads 0) plus the
// tracing overhead. Exit code 0 whenever a result was printed.
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace vrbench;

struct PerLayer {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order.
constexpr PerLayer kPerLayer[] = {
    {"trie.lookup.ns_per_key", "ns"},
    {"trie.lookup.first_burst_ns_per_key", "ns"},
    {"trie.acquire.ns", "ns"},
    {"trie.publish.apply_us", "us"},
    {"trie.publish.rebuild_us", "us"},
    {"trie.publish.swap_us", "us"},
    {"trie.publish.time_share", "ratio"},
    {"trie.publish.changed_entry_share", "ratio"},
    {"trie.image.entries", "count"},
    {"dataplane.cycle.step_ns", "ns"},
    {"dataplane.cycle.accept_frame_ns", "ns"},
    {"dataplane.router_build_us", "us"},
    {"dataplane.cycle.finish_us", "us"},
    {"power.activity.estimate_us", "us"},
    {"dataplane.cycle.cycles_per_frame", "count"},
    {"dataplane.cycle.vc_alloc_stalls_per_kcycle", "count"},
    {"dataplane.cycle.credit_stalls_per_kcycle", "count"},
    {"dataplane.cycle.arbiter_grant_share", "ratio"},
    {"pipeline.lookup.ns_per_packet", "ns"},
    {"dataplane.full_router.ns_per_frame", "ns"},
    {"placement.request_hit_us", "us"},
    {"placement.request_miss_us", "us"},
    {"placement.oracle.misses_per_kreq", "count"},
    {"placement.enumerate_us", "us"},
    {"placement.shape_groups", "count"},
    {"placement.candidates_per_request", "count"},
    {"placement.feasible_share", "ratio"},
    {"placement.decide_us.best-fit-watts", "us"},
    {"placement.decide_us.first-fit", "us"},
    {"placement.decide_us.exp-cost", "us"},
    {"placement.migrations_per_kreq", "count"},
    {"placement.departures_per_request", "count"},
    {"core.workload_cache.hit_share", "ratio"},
    {"setup.warmup_s", "s"},
    {"trace.overhead.throughput_share", "ratio"},
    {"trace.overhead.latency_p50_share", "ratio"},
};

/// Orders a traced run's metrics as kPerLayer, filling the layers the
/// workload bypasses with 0.
void complete_per_layer(RunResult* result) {
  std::vector<Metric> ordered;
  for (const PerLayer& layer : kPerLayer) {
    Metric metric{layer.name, 0.0, layer.unit};
    for (const Metric& m : result->metrics) {
      if (m.name == layer.name) metric = m;
    }
    ordered.push_back(metric);
  }
  result->metrics = std::move(ordered);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse_options(argc, argv);
  if (!options) return 2;
  RunResult result;
  try {
    if (options->workload == "route-churn") {
      result = run_route_churn(*options);
    } else if (options->workload == "dataplane-skew") {
      result = run_dataplane_skew(*options);
    } else if (options->workload == "fleet-online") {
      result = run_fleet_online(*options);
    } else {
      std::cerr << "vrbench: unknown workload " << options->workload << '\n';
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "vrbench: " << options->workload << " failed: " << e.what()
              << '\n';
    return 1;
  }
  if (options->trace) complete_per_layer(&result);
  result.correct = result.correct && result.failed == 0;
  std::cout << to_json(result) << std::endl;
  return 0;
}
