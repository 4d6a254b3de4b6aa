// perf_cycle — throughput-per-watt of the cycle-level virtualized
// dataplane (DESIGN.md §15) across the four VC sharing policies. The
// per-packet benches answer what each scheme forwards; this one answers
// what the *finite buffering* costs: every run segments packets into
// flits, moves them under credit-based flow control through a bounded VC
// pool, and arbitrates the lookup issue slot — then prices the measured
// activity with power::ActivityModel plus per-device leakage.
//
// The experiment the paper does not have: under skewed per-VN utilization
// a static VC partition (NV/VS/VM) caps the hot VN at its fixed share of
// the pool while cold VNs' buffers sit idle; the dynamic policy (DVC,
// Onsori & Safaei arXiv:1412.2950) lets the hot VN borrow from the shared
// pool above its floor, draining the same traffic in fewer cycles — and
// since leakage accrues per cycle, fewer cycles is directly more
// throughput per watt. BENCH_cycle.json records the DVC-vs-VM ratio per K
// under skew, along with p99 occupancy/backlog and stall counters.
//
// Flags: --quick (K=2 only, fewer cycles), --output FILE, --metrics[=path].
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dataplane/cycle/cycle_router.hpp"
#include "fpga/device.hpp"
#include "netbase/table_gen.hpp"
#include "power/activity_model.hpp"
#include "trie/memory_layout.hpp"
#include "trie/unibit_trie.hpp"
#include "virt/merged_trie.hpp"

namespace {

using namespace vr;
using dataplane::cycle::VcPolicy;

constexpr std::size_t kStages = 28;
constexpr units::Megahertz kFreqMhz{300.0};
constexpr fpga::SpeedGrade kGrade = fpga::SpeedGrade::kMinus2;
constexpr fpga::BramPolicy kBramPolicy = fpga::BramPolicy::kMixed;

constexpr VcPolicy kAllPolicies[] = {VcPolicy::kNvStatic, VcPolicy::kVsStatic,
                                     VcPolicy::kVmStatic, VcPolicy::kDynamic};

/// Power-model scheme that prices each VC policy's hardware: NV pays K
/// devices, VS one device with K engines, VM/DVC one merged engine (the
/// dynamic pool changes buffering, not the lookup substrate).
power::Scheme scheme_of(VcPolicy policy) {
  switch (policy) {
    case VcPolicy::kNvStatic:
      return power::Scheme::kNonVirtualized;
    case VcPolicy::kVsStatic:
      return power::Scheme::kSeparate;
    case VcPolicy::kVmStatic:
    case VcPolicy::kDynamic:
      return power::Scheme::kMerged;
  }
  return power::Scheme::kMerged;
}

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
  VcPolicy policy = VcPolicy::kVsStatic;
  std::size_t vn_count = 0;
  std::uint64_t cycles_to_drain = 0;
  double throughput_gbps = 0.0;
  double p99_vc_occupancy = 0.0;   ///< flits buffered across the pool
  double p99_source_depth = 0.0;   ///< packets backlogged awaiting a VC
  std::uint64_t vc_alloc_stalls = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t arbiter_grants = 0;
  std::uint64_t arbiter_comparisons = 0;
  double dynamic_mw = 0.0;
  double total_w = 0.0;  ///< devices x leakage + activity dynamic
  double tpw_gbps_per_w = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string output = "BENCH_cycle.json";
  bool quick = false;
  bench::parse_flags(
      argc, argv,
      {{"--output", true, [&](const char* value) { output = value; }},
       {"--quick", false, [&](const char*) { quick = true; }}});
  const std::uint64_t cycles = quick ? 2500 : 10000;
  const double load = 0.45;
  const std::vector<std::size_t> vn_counts =
      quick ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4, 8};
  const std::vector<net::TraceShape> shapes = {net::TraceShape::kUniform,
                                               net::TraceShape::kSkewed};

  const fpga::DeviceSpec device = fpga::DeviceSpec::xc6vlx760();
  const double static_per_device_w = device.static_power_w(kGrade).value();
  const power::ActivityModel act_model;
  std::vector<Row> rows;

  for (const std::size_t k : vn_counts) {
    net::TableProfile profile;
    profile.prefix_count = quick ? 200 : 500;
    const net::SyntheticTableGenerator table_gen(profile);
    std::vector<net::RoutingTable> tables;
    for (std::uint64_t v = 0; v < k; ++v) {
      tables.push_back(table_gen.generate(60 + v));
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

    for (std::size_t si = 0; si < shapes.size(); ++si) {
      const net::TraceShape shape = shapes[si];
      dataplane::FrameGenConfig frame_config;
      frame_config.traffic = net::make_shaped_config(shape, cycles, load, k);
      const dataplane::FrameGenerator frame_gen(frame_config, table_ptrs);
      const auto frames = frame_gen.generate(
          dataplane::FrameGenerator::derive_seed(23, si * 16 + k));

      for (const VcPolicy policy : kAllPolicies) {
        dataplane::cycle::CycleConfig config;
        config.vc.policy = policy;
        config.vc.vc_count = 2 * k;
        config.vc.vn_count = k;
        config.vc.dynamic_floor = 1;
        config.scheduler.vn_count = k;
        config.scheduler.port_count = 16;
        config.scheduler.queue_capacity = 256;

        dataplane::cycle::CycleResult result = [&] {
          if (dataplane::cycle::separate_engines(policy)) {
            pipeline::SeparateRouter lookup(views, kStages);
            return dataplane::cycle::run_cycle_router(lookup, frames, config);
          }
          pipeline::MergedRouter lookup(merged, kStages);
          return dataplane::cycle::run_cycle_router(lookup, frames, config);
        }();

        const power::Scheme scheme = scheme_of(policy);
        power::ModelContext ctx;
        ctx.scheme = scheme;
        ctx.vn_count = k;
        if (scheme == power::Scheme::kMerged) {
          ctx.merged_engine = &merged_engine;
        } else {
          ctx.engines = engines;
        }
        ctx.op.grade = kGrade;
        ctx.op.bram_policy = kBramPolicy;
        ctx.op.freq_mhz = kFreqMhz;
        ctx.op.utilization = result.activity.utilization();
        ctx.activity = &result.activity;
        const power::ActivityPower power = act_model.estimate(ctx);

        Row row;
        row.shape = shape;
        row.policy = policy;
        row.vn_count = k;
        row.cycles_to_drain = result.cycles;
        std::uint64_t bytes = 0;
        for (const std::uint64_t b : result.scheduler.bytes_per_vn) {
          bytes += b;
        }
        // bits / cycle x cycles / second, in Gbps.
        row.throughput_gbps = static_cast<double>(bytes) * 8.0 *
                              kFreqMhz.value() /
                              (static_cast<double>(result.cycles) * 1000.0);
        row.p99_vc_occupancy = result.vc_occupancy.quantile(0.99);
        row.p99_source_depth = result.source_queue_depth.quantile(0.99);
        row.vc_alloc_stalls = result.cycle.vc_alloc_stalls;
        row.credit_stalls = result.cycle.credit_stalls;
        row.arbiter_grants = result.cycle.arbiter_grants;
        row.arbiter_comparisons = result.cycle.arbiter_comparisons;
        row.dynamic_mw = units::w_to_mw(power.dynamic_w().value());
        const double devices =
            static_cast<double>(power::devices_for(scheme, k));
        row.total_w = devices * static_per_device_w +
                      power.dynamic_w().value();
        row.tpw_gbps_per_w = row.throughput_gbps / row.total_w;
        rows.push_back(row);
      }
    }
  }

  TextTable table_out(
      "perf_cycle - cycle-level VC policies, throughput per watt" +
      std::string(quick ? " (quick profile)" : ""));
  table_out.set_header({"shape", "policy", "K", "drain cyc", "Gbps",
                        "p99 occ", "p99 src", "alloc stall", "credit stall",
                        "total W", "Gbps/W"});
  for (const Row& row : rows) {
    table_out.add_row({net::to_string(row.shape), to_string(row.policy),
                       std::to_string(row.vn_count),
                       std::to_string(row.cycles_to_drain),
                       TextTable::num(row.throughput_gbps, 2),
                       TextTable::num(row.p99_vc_occupancy, 1),
                       TextTable::num(row.p99_source_depth, 1),
                       std::to_string(row.vc_alloc_stalls),
                       std::to_string(row.credit_stalls),
                       TextTable::num(row.total_w, 2),
                       TextTable::num(row.tpw_gbps_per_w, 3)});
  }
  bench::emit(table_out);

  // The headline comparison: DVC vs the static-partition VM under skew
  // (same merged-engine hardware, only the VC sharing rule differs).
  struct DvcVsVm {
    std::size_t vn_count = 0;
    double dvc_tpw = 0.0;
    double vm_tpw = 0.0;
  };
  std::vector<DvcVsVm> headline;
  for (const std::size_t k : vn_counts) {
    DvcVsVm entry;
    entry.vn_count = k;
    for (const Row& row : rows) {
      if (row.vn_count != k || row.shape != net::TraceShape::kSkewed) continue;
      if (row.policy == VcPolicy::kDynamic) entry.dvc_tpw = row.tpw_gbps_per_w;
      if (row.policy == VcPolicy::kVmStatic) entry.vm_tpw = row.tpw_gbps_per_w;
    }
    headline.push_back(entry);
  }

  std::ofstream json(output);
  json << "{\n"
       << "  \"benchmark\": \"perf_cycle\",\n"
       << "  \"profile\": \"" << (quick ? "quick" : "paper") << "\",\n"
       << "  \"cycles\": " << cycles << ",\n"
       << "  \"load\": " << TextTable::num(load, 2) << ",\n"
       << "  \"freq_mhz\": " << TextTable::num(kFreqMhz.value(), 1) << ",\n"
       << "  \"dvc_vs_vm_skewed\": [\n";
  for (std::size_t i = 0; i < headline.size(); ++i) {
    const DvcVsVm& entry = headline[i];
    json << "    {\"vn_count\": " << entry.vn_count
         << ", \"dvc_tpw_gbps_per_w\": " << TextTable::num(entry.dvc_tpw, 4)
         << ", \"vm_tpw_gbps_per_w\": " << TextTable::num(entry.vm_tpw, 4)
         << ", \"dvc_over_vm\": "
         << TextTable::num(entry.vm_tpw > 0.0 ? entry.dvc_tpw / entry.vm_tpw
                                              : 0.0,
                           4)
         << "}" << (i + 1 < headline.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"shape\": \"" << net::to_string(row.shape)
         << "\", \"policy\": \"" << to_string(row.policy)
         << "\", \"vn_count\": " << row.vn_count
         << ", \"cycles_to_drain\": " << row.cycles_to_drain
         << ", \"throughput_gbps\": " << TextTable::num(row.throughput_gbps, 4)
         << ", \"p99_vc_occupancy\": "
         << TextTable::num(row.p99_vc_occupancy, 2)
         << ", \"p99_source_depth\": "
         << TextTable::num(row.p99_source_depth, 2)
         << ", \"vc_alloc_stalls\": " << row.vc_alloc_stalls
         << ", \"credit_stalls\": " << row.credit_stalls
         << ", \"arbiter_grants\": " << row.arbiter_grants
         << ", \"arbiter_comparisons\": " << row.arbiter_comparisons
         << ", \"dynamic_mw\": " << TextTable::num(row.dynamic_mw, 4)
         << ", \"total_w\": " << TextTable::num(row.total_w, 4)
         << ", \"tpw_gbps_per_w\": " << TextTable::num(row.tpw_gbps_per_w, 4)
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
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
