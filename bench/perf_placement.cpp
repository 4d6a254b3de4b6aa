// perf_placement — the online placement controller under a seeded VN
// arrival/departure stream, one run per policy (first-fit,
// best-fit-watts, exp-cost). Each run places the same request sequence
// onto its own fleet, sharing one CostOracle so every policy prices
// shapes identically; afterwards the offline bounds are computed on the
// resident set and the competitive ratio (online fleet watts over the
// fractional lower bound) is reported.
//
// The paper profile pushes 1.2 M requests through a 1000-device fleet —
// far past steady state (mean holding 50 k ticks, so offered load
// saturates the fleet and admission control starts to matter). The quick
// profile (bench-smoke) is a 100-device fleet with 20 k requests.
//
// BENCH_placement.json: per-policy acceptance/energy/competitive-ratio
// columns (deterministic, gated by tools/bench_diff.py) plus wall-clock
// requests-per-second under the top-level "metrics" subtree, which the
// diff gate skips. The report leaves out the metrics registry: the three
// runs share obs::Registry::global(), so its counters sum all three and
// its gauges hold the last run's. `--metrics` still dumps the registry.
//
// Flags: --quick, --output FILE, --metrics[=path].
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fpga/device.hpp"
#include "placement/controller.hpp"
#include "placement/offline.hpp"

namespace {

using namespace vr;

constexpr placement::PolicyKind kAllPolicies[] = {
    placement::PolicyKind::kFirstFit, placement::PolicyKind::kBestFitWatts,
    placement::PolicyKind::kExpCost};

struct Run {
  placement::PolicyKind policy = placement::PolicyKind::kFirstFit;
  placement::ControllerResult result;
  placement::OfflineBound offline;
  std::size_t distinct_shapes = 0;
  double elapsed_s = 0.0;
  double requests_per_second = 0.0;

  [[nodiscard]] double competitive_ratio() const {
    return offline.fractional_lower_w > 0.0
               ? result.fleet_w / offline.fractional_lower_w
               : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string output = "BENCH_placement.json";
  bool quick = false;
  bench::parse_flags(
      argc, argv,
      {{"--output", true, [&](const char* value) { output = value; }},
       {"--quick", false, [&](const char*) { quick = true; }}});

  placement::RequestStreamConfig stream_config;
  stream_config.seed = 42;
  stream_config.mean_holding_ticks = quick ? 2000 : 50000;
  const std::uint64_t request_count = quick ? 20000 : 1200000;
  const std::size_t fleet_size = quick ? 100 : 1000;

  placement::CostOracle oracle(fpga::DeviceSpec::xc6vlx760());
  std::vector<Run> runs;
  for (const placement::PolicyKind policy : kAllPolicies) {
    placement::ControllerConfig config;
    config.policy = policy;
    config.fleet_size = fleet_size;
    placement::PlacementController controller(&oracle, config,
                                              &obs::Registry::global());
    placement::RequestStream stream(stream_config);
    const auto start = std::chrono::steady_clock::now();
    Run run;
    run.policy = policy;
    run.result = controller.run(stream, request_count);
    run.elapsed_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    run.requests_per_second =
        static_cast<double>(request_count) / run.elapsed_s;
    run.offline =
        placement::offline_bound(controller.fleet().resident_vns(), oracle);
    run.distinct_shapes = oracle.estimates_computed();
    runs.push_back(std::move(run));
  }

  TextTable table_out(
      "perf_placement - online VN placement, fleet watts vs offline" +
      std::string(quick ? " (quick profile)" : ""));
  table_out.set_header({"policy", "accepted", "rejected", "infeasible",
                        "migrations", "devices", "fleet W", "offline W",
                        "ratio", "req/s"});
  for (const Run& run : runs) {
    table_out.add_row(
        {to_string(run.policy), std::to_string(run.result.accepted),
         std::to_string(run.result.rejected),
         std::to_string(run.result.infeasible),
         std::to_string(run.result.migrations),
         std::to_string(run.result.devices_active),
         TextTable::num(run.result.fleet_w, 1),
         TextTable::num(run.offline.fractional_lower_w, 1),
         TextTable::num(run.competitive_ratio(), 3),
         TextTable::num(run.requests_per_second, 0)});
  }
  bench::emit(table_out);

  std::ofstream json(output);
  json << "{\n"
       << "  \"benchmark\": \"perf_placement\",\n"
       << "  \"profile\": \"" << (quick ? "quick" : "paper") << "\",\n"
       << "  \"fleet_size\": " << fleet_size << ",\n"
       << "  \"requests\": " << request_count << ",\n"
       << "  \"mean_holding_ticks\": " << stream_config.mean_holding_ticks
       << ",\n"
       << "  \"seed\": " << stream_config.seed << ",\n"
       << "  \"policies\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    json << "    {\"policy\": \"" << to_string(run.policy) << "\""
         << ", \"accepted\": " << run.result.accepted
         << ", \"rejected\": " << run.result.rejected
         << ", \"infeasible\": " << run.result.infeasible
         << ", \"departures\": " << run.result.departures
         << ", \"migrations\": " << run.result.migrations
         << ", \"devices_active\": " << run.result.devices_active
         << ", \"peak_devices_active\": " << run.result.peak_devices_active
         << ", \"fleet_w\": " << TextTable::num(run.result.fleet_w, 3)
         << ", \"watt_ticks\": " << TextTable::num(run.result.watt_ticks, 0)
         << ", \"offline_greedy_w\": "
         << TextTable::num(run.offline.greedy_w, 3)
         << ", \"offline_greedy_devices\": " << run.offline.greedy_devices
         << ", \"offline_fractional_lower_w\": "
         << TextTable::num(run.offline.fractional_lower_w, 3)
         << ", \"competitive_ratio\": "
         << TextTable::num(run.competitive_ratio(), 4)
         << ", \"distinct_shapes\": " << run.distinct_shapes << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"metrics\": {\n"
       << "    \"wall\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    json << "      {\"policy\": \"" << to_string(run.policy) << "\""
         << ", \"elapsed_s\": " << TextTable::num(run.elapsed_s, 3)
         << ", \"requests_per_second\": "
         << TextTable::num(run.requests_per_second, 0) << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "    ]\n"
       << "  }\n"
       << "}\n";
  if (!json) {
    std::cerr << "error: could not write " << output << '\n';
    return 1;
  }
  std::cout << "wrote " << output << '\n';
  return 0;
}
