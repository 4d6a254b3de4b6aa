// perf_sweep — times a full Figs. 5–8 regeneration (both speed grades)
// three ways and emits machine-readable JSON so future PRs have a perf
// trajectory:
//   1. serial-cold:     threads = 1, no workload cache (the seed behaviour)
//   2. parallel-cold:   N threads + WorkloadCache, cache cleared first
//   3. parallel-warm:   same builder against the warm cache
// It also cross-checks that all three runs produce byte-identical CSV (the
// determinism contract of SweepRunner + WorkloadCache) and measures the
// flat lookup image's single-thread batched throughput by stride (thread
// scaling and publish latency are perf_lookup's). Exits non-zero if
// outputs diverge.
//
// Flags: --threads N, --output FILE (default BENCH_sweep.json; the
// checked-in report is bench/BENCH_sweep.json), --quick (reduced
// table/sweep for CI smoke use). The obs registry (cache hit rate,
// per-task sweep timing, dataplane drop/latency stats) is embedded in the
// JSON under "metrics"; --metrics[=path] additionally dumps it to its own
// file.
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/sweep.hpp"
#include "core/workload_cache.hpp"
#include "dataplane/full_router.hpp"
#include "lookup_bench.hpp"
#include "netbase/table_gen.hpp"
#include "trie/unibit_trie.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Renders every table of the Figs. 5–8 regeneration to one CSV blob.
std::string regenerate(const vr::core::FigureBuilder& builder) {
  std::ostringstream os;
  for (const auto grade :
       {vr::fpga::SpeedGrade::kMinus2, vr::fpga::SpeedGrade::kMinus1L}) {
    builder.fig5_total_power(grade).render_csv(os);
    builder.fig6_virtualized_power(grade).render_csv(os);
    builder.fig7_model_error(grade).render_csv(os);
    builder.fig8_efficiency(grade).render_csv(os);
  }
  return os.str();
}

/// Single-thread batched Mlookups/s of the lookup image at strides
/// 1/2/4/8 on the bench's own table profile.
std::vector<vr::bench::StrideRow> lookup_strides(
    const vr::core::FigureOptions& opt, bool quick) {
  using namespace vr;
  const net::RoutingTable table =
      net::SyntheticTableGenerator(opt.table_profile).generate(opt.seed);
  const std::size_t key_count = quick ? (1u << 16) : (1u << 20);
  const unsigned reps = quick ? 2 : 3;
  const std::vector<net::Ipv4> addrs = bench::random_addresses(key_count, 42);
  std::uint64_t sink = 0;
  std::vector<bench::StrideRow> rows =
      bench::stride_rows(table, addrs, reps, &sink);
  if (sink == 0xdeadbeef) std::cerr << "";  // defeat DCE, never taken
  return rows;
}

/// One small deterministic end-to-end dataplane run (3 VNs, separate
/// engines, a tight queue to force some tail drops) so the embedded
/// metrics block carries scheduler drop and latency statistics.
vr::dataplane::FullRouterResult dataplane_phase(bool quick) {
  using namespace vr;
  net::TableProfile profile;
  profile.prefix_count = quick ? 200 : 600;
  const net::SyntheticTableGenerator gen(profile);
  std::vector<net::RoutingTable> tables;
  std::vector<const net::RoutingTable*> table_ptrs;
  for (std::uint64_t v = 0; v < 3; ++v) tables.push_back(gen.generate(30 + v));
  for (const auto& t : tables) table_ptrs.push_back(&t);

  std::vector<trie::UnibitTrie> tries;
  std::vector<pipeline::TrieView> views;
  for (const auto& t : tables) {
    tries.emplace_back(trie::UnibitTrie(t).leaf_pushed());
  }
  for (const auto& t : tries) views.emplace_back(t);

  dataplane::FrameGenConfig frame_config;
  frame_config.traffic.cycles = quick ? 3000 : 10000;
  frame_config.traffic.load = 0.7;
  frame_config.corrupt_fraction = 0.02;
  const dataplane::FrameGenerator frames(frame_config, table_ptrs);

  dataplane::FullRouterConfig router_config;
  router_config.scheduler.vn_count = 3;
  router_config.scheduler.port_count = 16;
  router_config.scheduler.queue_capacity = 8;  // tight: provoke tail drops
  pipeline::SeparateRouter lookup(views, 28);
  return run_full_router(lookup, frames.generate(7), router_config);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vr;
  bench::handle_metrics_flag(argc, argv);
  core::FigureOptions base;
  std::string output = "BENCH_sweep.json";
  bool quick = false;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = bench::threads_flag(argv[++i]);
    } else if (arg == "--output" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    }
  }
  if (quick) {
    base.table_profile.prefix_count = 600;
    base.max_vn = 6;
    base.memory_max_vn = 8;
  }
  const core::ConcurrencyProbe probe = core::probe_concurrency();
  const std::size_t parallel_threads = threads == 0 ? probe.threads : threads;
  const fpga::DeviceSpec device = fpga::DeviceSpec::xc6vlx760();

  // 1. Serial cold: the seed behaviour (one thread, every workload
  //    rebuilt at every sweep point).
  core::FigureOptions serial = base;
  serial.threads = 1;
  serial.use_cache = false;
  core::WorkloadCache::global().clear();
  const auto serial_start = Clock::now();
  const std::string serial_csv =
      regenerate(core::FigureBuilder(device, serial));
  const double serial_ms = ms_since(serial_start);

  // 2. Parallel + cache, cold.
  core::FigureOptions parallel = base;
  parallel.threads = parallel_threads;
  parallel.use_cache = true;
  core::WorkloadCache::global().clear();
  const core::FigureBuilder parallel_builder(device, parallel);
  const auto cold_start = Clock::now();
  const std::string parallel_csv = regenerate(parallel_builder);
  const double parallel_cold_ms = ms_since(cold_start);
  const core::WorkloadCache::Stats cold_stats =
      core::WorkloadCache::global().stats();

  // 3. Same builder, warm cache.
  const auto warm_start = Clock::now();
  const std::string warm_csv = regenerate(parallel_builder);
  const double parallel_warm_ms = ms_since(warm_start);

  const bool identical =
      serial_csv == parallel_csv && parallel_csv == warm_csv;
  const double speedup_cold = serial_ms / parallel_cold_ms;
  const double speedup_warm = serial_ms / parallel_warm_ms;
  const std::vector<bench::StrideRow> strides = lookup_strides(base, quick);
  const double mlps = strides.front().mlps;
  const dataplane::FullRouterResult dataplane = dataplane_phase(quick);

  TextTable table("perf_sweep - full Figs. 5-8 regeneration, both grades" +
                  std::string(quick ? " (quick profile)" : ""));
  table.set_header({"mode", "wall ms", "speedup vs serial"});
  table.add_row({"serial cold (seed behaviour)", TextTable::num(serial_ms, 1),
                 "1.000"});
  table.add_row({"parallel cold (" + std::to_string(parallel_threads) +
                     " threads + cache)",
                 TextTable::num(parallel_cold_ms, 1),
                 TextTable::num(speedup_cold, 3)});
  table.add_row({"parallel warm (cache hit)",
                 TextTable::num(parallel_warm_ms, 1),
                 TextTable::num(speedup_warm, 3)});
  vr::bench::emit(table);
  std::cout << "outputs byte-identical across modes: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << '\n'
            << "workload cache: " << cold_stats.hits << " hits / "
            << cold_stats.misses << " misses on the cold parallel run\n"
            << "flat image batched lookup, Mlookups/s by stride:";
  for (const bench::StrideRow& row : strides) {
    std::cout << ' ' << row.stride << ": " << TextTable::num(row.mlps, 2);
  }
  std::cout << "\ndataplane phase: " << dataplane.scheduler.transmitted
            << " transmitted / " << dataplane.scheduler.tail_drops
            << " tail drops, p99 egress wait "
            << TextTable::num(dataplane.egress_wait.quantile(0.99), 1)
            << " cycles\n";

  std::ofstream json(output);
  json << "{\n"
       << "  \"benchmark\": \"perf_sweep\",\n"
       << "  \"build\": " << bench::build_stamp_json(probe.threads) << ",\n"
       << "  \"profile\": \"" << (quick ? "quick" : "paper") << "\",\n"
       << "  \"figures\": [\"fig5\", \"fig6\", \"fig7\", \"fig8\"],\n"
       << "  \"grades\": [\"-2\", \"-1L\"],\n"
       << "  \"threads\": " << parallel_threads << ",\n"
       << "  \"hardware_concurrency\": " << probe.threads << ",\n"
       << "  \"hardware_concurrency_source\": \"" << probe.source << "\",\n"
       << "  \"serial_cold_ms\": " << TextTable::num(serial_ms, 3) << ",\n"
       << "  \"parallel_cold_ms\": " << TextTable::num(parallel_cold_ms, 3)
       << ",\n"
       << "  \"parallel_warm_ms\": " << TextTable::num(parallel_warm_ms, 3)
       << ",\n"
       << "  \"speedup_parallel_cached_vs_serial\": "
       << TextTable::num(speedup_cold, 3) << ",\n"
       << "  \"speedup_warm_vs_serial\": " << TextTable::num(speedup_warm, 3)
       << ",\n"
       << "  \"outputs_identical\": " << (identical ? "true" : "false")
       << ",\n"
       << "  \"cache_hits\": " << cold_stats.hits << ",\n"
       << "  \"cache_misses\": " << cold_stats.misses << ",\n"
       << "  \"batched_lookup_mlps\": " << TextTable::num(mlps, 3) << ",\n"
       << "  \"metrics\": "
       << obs::MetricsSink(obs::Registry::global()).json(2) << "\n"
       << "}\n";
  if (!json) {
    std::cerr << "error: could not write " << output << '\n';
    return 1;
  }
  std::cout << "wrote " << output << '\n';

  if (!identical) return 1;
  return 0;
}
