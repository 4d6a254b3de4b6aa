// perf_activity — the two-model dynamic-power validation experiment
// (DESIGN.md §13). Drives the full data plane (parser -> lookup -> editor
// -> DRR egress) over four trace shapes (uniform, bursty, diurnal,
// per-VN-skewed) for each scheme {NV, VS, VM} and VN count K, then prices
// the same run twice:
//
//   * AnalyticalModel::per_vn_dynamic_w — the paper's µ-weighting, fed
//                    the NOMINAL per-VN utilization the traffic config
//                    promises (what a capacity planner would write down);
//   * ActivityModel — per-event energies over the counters the dataplane
//                    actually measured.
//
// On the uniform shape the two agree (the `ctest -L power-model` bound);
// on shaped traffic the divergence is the finding: one utilization scalar
// cannot express bursts, load swings or queueing losses.
//
// Emits a figure-style table on stdout and BENCH_activity.json.
// Flags: --quick (smaller tables, fewer cycles, K=2 only), --output FILE,
// --metrics[=path].
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dataplane/full_router.hpp"
#include "fpga/device.hpp"
#include "netbase/table_gen.hpp"
#include "power/activity_model.hpp"
#include "power/analytical_model.hpp"
#include "trie/memory_layout.hpp"
#include "trie/unibit_trie.hpp"
#include "virt/merged_trie.hpp"

namespace {

using namespace vr;

constexpr std::size_t kStages = 28;
constexpr units::Megahertz kFreqMhz{300.0};
constexpr fpga::SpeedGrade kGrade = fpga::SpeedGrade::kMinus2;
constexpr fpga::BramPolicy kPolicy = fpga::BramPolicy::kMixed;

/// Stage-memory image of one deployed trie (the analytical model's
/// EngineSpec), with `nhi_width`-wide next-hop leaves (1 for a per-VN
/// engine, K for the merged engine).
power::EngineSpec engine_spec_of(const trie::TrieStats& stats,
                                 std::size_t nhi_width) {
  const trie::StageMapping mapping(stats.nodes_per_level.size(), kStages,
                                   trie::MappingPolicy::kOneLevelPerStage);
  const trie::StageMemory memory = trie::stage_memory(
      trie::occupancy(stats, mapping), trie::NodeEncoding{}, nhi_width);
  power::EngineSpec spec;
  for (std::size_t s = 0; s < kStages; ++s) {
    spec.stage_bits.push_back(memory.stage_bits(s));
  }
  return spec;
}

struct Row {
  net::TraceShape shape = net::TraceShape::kUniform;
  power::Scheme scheme = power::Scheme::kSeparate;
  std::size_t vn_count = 0;
  double mu_mw = 0.0;        ///< µ-model dynamic, nominal utilization
  double act_mw = 0.0;       ///< activity-model lookup-core dynamic
  double max_div_pct = 0.0;  ///< worst per-VN |activity/µ - 1|
  double overhead_mw = 0.0;  ///< parser/buffer/crossbar/arbiter/editor
  double gated_mem_mw = 0.0; ///< memory if BRAM enables were read-gated
  std::vector<double> mu_per_vn_mw;
  std::vector<double> act_per_vn_mw;
};

Row price_run(net::TraceShape shape, power::Scheme scheme,
              const power::ModelContext& ctx,
              const power::AnalyticalModel& mu_model,
              const power::ActivityModel& act_model) {
  Row row;
  row.shape = shape;
  row.scheme = scheme;
  row.vn_count = ctx.vn_count;
  const std::vector<units::Watts> mu = mu_model.per_vn_dynamic_w(ctx);
  const power::ActivityPower act = act_model.estimate(ctx);
  for (std::size_t v = 0; v < ctx.vn_count; ++v) {
    const double mu_w = mu[v].value();
    const double act_w = act.per_vn_w[v].value();
    row.mu_per_vn_mw.push_back(units::w_to_mw(mu_w));
    row.act_per_vn_mw.push_back(units::w_to_mw(act_w));
    row.mu_mw += units::w_to_mw(mu_w);
    row.act_mw += units::w_to_mw(act_w);
    if (mu_w > 1e-12) {
      row.max_div_pct =
          std::max(row.max_div_pct, std::abs(act_w / mu_w - 1.0) * 100.0);
    }
  }
  row.overhead_mw = units::to_milliwatts(act.overhead_w()).value();
  row.gated_mem_mw = units::to_milliwatts(act.memory_gated_w).value();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string output = "BENCH_activity.json";
  bool quick = false;
  bench::parse_flags(
      argc, argv,
      {{"--output", true, [&](const char* value) { output = value; }},
       {"--quick", false, [&](const char*) { quick = true; }}});
  const std::uint64_t cycles = quick ? 4000 : 20000;
  const double load = 0.6;
  const std::vector<std::size_t> vn_counts =
      quick ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4, 8};
  const std::vector<net::TraceShape> shapes = {
      net::TraceShape::kUniform, net::TraceShape::kBursty,
      net::TraceShape::kDiurnal, net::TraceShape::kSkewed};

  const power::AnalyticalModel mu_model(fpga::DeviceSpec::xc6vlx760());
  const power::ActivityModel act_model;
  std::vector<Row> rows;

  for (const std::size_t k : vn_counts) {
    // K per-VN tables, their deployed tries, and the K-way merged trie.
    net::TableProfile profile;
    profile.prefix_count = quick ? 200 : 725;
    const net::SyntheticTableGenerator table_gen(profile);
    std::vector<net::RoutingTable> tables;
    for (std::uint64_t v = 0; v < k; ++v) {
      tables.push_back(table_gen.generate(30 + v));
    }
    std::vector<const net::RoutingTable*> table_ptrs;
    for (const auto& t : tables) table_ptrs.push_back(&t);
    std::vector<trie::UnibitTrie> tries;
    for (const auto& t : tables) {
      tries.emplace_back(trie::UnibitTrie(t).leaf_pushed());
    }
    std::vector<pipeline::TrieView> views;
    std::vector<const trie::UnibitTrie*> trie_ptrs;
    std::vector<power::EngineSpec> engines;
    for (const auto& t : tries) {
      views.emplace_back(t);
      trie_ptrs.push_back(&t);
      engines.push_back(engine_spec_of(trie::compute_stats(t), 1));
    }
    const virt::MergedTrie merged{
        std::span<const trie::UnibitTrie* const>(trie_ptrs)};
    const power::EngineSpec merged_engine =
        engine_spec_of(merged.stats_as_trie(), k);

    dataplane::FullRouterConfig router_config;
    router_config.scheduler.vn_count = k;
    router_config.scheduler.port_count = 16;
    router_config.scheduler.queue_capacity = 256;

    for (std::size_t si = 0; si < shapes.size(); ++si) {
      const net::TraceShape shape = shapes[si];
      dataplane::FrameGenConfig frame_config;
      frame_config.traffic = net::make_shaped_config(shape, cycles, load, k);
      const dataplane::FrameGenerator frame_gen(frame_config, table_ptrs);
      const auto frames = frame_gen.generate(
          dataplane::FrameGenerator::derive_seed(17, si * 16 + k));
      const std::vector<double> nominal_mu =
          net::nominal_utilization(frame_config.traffic, k);

      power::OperatingPoint op;
      op.grade = kGrade;
      op.bram_policy = kPolicy;
      op.freq_mhz = kFreqMhz;
      op.utilization = nominal_mu;

      // One separate-engine run prices both NV and VS: their data planes —
      // and so their dynamic terms (Eqs. 2 and 4) — are identical; only
      // leakage bookkeeping differs, and this bench compares dynamics.
      {
        pipeline::SeparateRouter lookup(views, kStages);
        const dataplane::FullRouterResult result =
            dataplane::run_full_router(lookup, frames, router_config);
        power::ModelContext ctx;
        ctx.scheme = power::Scheme::kSeparate;
        ctx.engines = engines;
        ctx.vn_count = k;
        ctx.op = op;
        ctx.activity = &result.activity;
        Row vs = price_run(shape, power::Scheme::kSeparate, ctx, mu_model,
                           act_model);
        Row nv = vs;
        nv.scheme = power::Scheme::kNonVirtualized;
        rows.push_back(nv);
        rows.push_back(vs);
      }
      {
        pipeline::MergedRouter lookup(merged, kStages);
        const dataplane::FullRouterResult result =
            dataplane::run_full_router(lookup, frames, router_config);
        power::ModelContext ctx;
        ctx.scheme = power::Scheme::kMerged;
        ctx.merged_engine = &merged_engine;
        ctx.vn_count = k;
        ctx.op = op;
        ctx.activity = &result.activity;
        rows.push_back(price_run(shape, power::Scheme::kMerged, ctx,
                                 mu_model, act_model));
      }
    }
  }

  TextTable table_out(
      "perf_activity - activity-driven vs analytical dynamic power" +
      std::string(quick ? " (quick profile)" : ""));
  table_out.set_header({"shape", "scheme", "K", "mu-model mW",
                        "activity mW", "max VN div %", "overhead mW",
                        "gated mem mW"});
  for (const Row& row : rows) {
    table_out.add_row({net::to_string(row.shape),
                       power::to_string(row.scheme),
                       std::to_string(row.vn_count),
                       TextTable::num(row.mu_mw, 2),
                       TextTable::num(row.act_mw, 2),
                       TextTable::num(row.max_div_pct, 1),
                       TextTable::num(row.overhead_mw, 2),
                       TextTable::num(row.gated_mem_mw, 2)});
  }
  bench::emit(table_out);

  std::ofstream json(output);
  json << "{\n"
       << "  \"benchmark\": \"perf_activity\",\n"
       << "  \"profile\": \"" << (quick ? "quick" : "paper") << "\",\n"
       << "  \"cycles\": " << cycles << ",\n"
       << "  \"load\": " << TextTable::num(load, 2) << ",\n"
       << "  \"freq_mhz\": " << TextTable::num(kFreqMhz.value(), 1) << ",\n"
       << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"shape\": \"" << net::to_string(row.shape)
         << "\", \"scheme\": \"" << power::to_string(row.scheme)
         << "\", \"vn_count\": " << row.vn_count
         << ", \"mu_model_mw\": " << TextTable::num(row.mu_mw, 4)
         << ", \"activity_mw\": " << TextTable::num(row.act_mw, 4)
         << ", \"max_vn_divergence_pct\": "
         << TextTable::num(row.max_div_pct, 2)
         << ", \"overhead_mw\": " << TextTable::num(row.overhead_mw, 4)
         << ", \"gated_memory_mw\": " << TextTable::num(row.gated_mem_mw, 4)
         << ", \"mu_per_vn_mw\": [";
    for (std::size_t v = 0; v < row.mu_per_vn_mw.size(); ++v) {
      json << (v ? ", " : "") << TextTable::num(row.mu_per_vn_mw[v], 4);
    }
    json << "], \"activity_per_vn_mw\": [";
    for (std::size_t v = 0; v < row.act_per_vn_mw.size(); ++v) {
      json << (v ? ", " : "") << TextTable::num(row.act_per_vn_mw[v], 4);
    }
    json << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"metrics\": "
       << obs::MetricsSink(obs::Registry::global()).json(2) << "\n"
       << "}\n";
  if (!json) {
    std::cerr << "error: could not write " << output << '\n';
    return 1;
  }
  std::cout << "wrote " << output << '\n';
  return 0;
}
