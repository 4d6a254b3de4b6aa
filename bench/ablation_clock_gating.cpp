// Ablation: clock gating / duty cycle (paper Sec. IV). Drives the
// cycle-level pipeline simulator at duty cycles from 10 % to 100 % and
// reports measured dynamic power next to the analytical µ-weighted value —
// demonstrating that the µ · P(·) dynamic terms of Eqs. 2/4/6 are the
// closed form of per-stage clock gating.
#include "bench_common.hpp"
#include "fpga/xpe_tables.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/traffic.hpp"
#include "pipeline/router.hpp"
#include "power/activity_model.hpp"
#include "trie/memory_layout.hpp"

int main() {
  using namespace vr;
  constexpr std::size_t kStages = 28;
  constexpr vr::units::Megahertz kFreqMhz{300.0};

  net::TableProfile profile;
  profile.prefix_count = 2000;
  const net::SyntheticTableGenerator gen(profile);
  const net::RoutingTable table = gen.generate(1);
  const trie::UnibitTrie trie = trie::UnibitTrie(table).leaf_pushed();

  // Stage memory plan of this engine.
  const trie::TrieStats stats = trie::compute_stats(trie);
  const trie::StageMapping mapping(stats.nodes_per_level.size(), kStages,
                                   trie::MappingPolicy::kOneLevelPerStage);
  const trie::StageMemory memory = trie::stage_memory(
      trie::occupancy(stats, mapping), trie::NodeEncoding{}, 1);
  power::EngineSpec engine;
  for (std::size_t s = 0; s < kStages; ++s) {
    engine.stage_bits.push_back(memory.stage_bits(s));
  }
  const fpga::StageBramPlan plan =
      fpga::plan_stage_bram(engine.stage_bits, fpga::BramPolicy::kMixed);
  const power::ActivityModel model;

  SeriesTable out(
      "Ablation - dynamic power vs duty cycle (simulated vs analytical, mW)",
      "duty_pct", {"simulated", "analytical(u x P)", "no-gating baseline"});
  for (int duty = 10; duty <= 100; duty += 10) {
    const double mu = duty / 100.0;
    std::vector<pipeline::TrieView> views{pipeline::TrieView(trie)};
    pipeline::SeparateRouter router(views, kStages);
    net::TrafficConfig config;
    config.cycles = 40000;
    config.load = 1.0;
    config.duty_on_fraction = mu;
    config.duty_period = 100;
    const net::TrafficGenerator traffic(config, {&table});
    const pipeline::SimulationResult sim =
        run_trace(router, traffic.generate(7));

    const power::ActivityCounters activity = router.activity();
    power::ModelContext ctx;
    ctx.engines = std::span<const power::EngineSpec>(&engine, 1);
    ctx.vn_count = 1;
    ctx.op.grade = fpga::SpeedGrade::kMinus2;
    ctx.op.bram_policy = fpga::BramPolicy::kMixed;
    ctx.op.freq_mhz = kFreqMhz;
    ctx.activity = &activity;
    // A gated stage charges logic on busy cycles and BRAM only on reads.
    const power::ActivityPower measured = model.estimate(ctx);
    const units::Watts simulated = measured.logic_w + measured.memory_gated_w;
    units::Watts full_power;  // all stages clocked every cycle
    full_power += fpga::XpeTables::logic_power_w(fpga::SpeedGrade::kMinus2,
                                                 kStages, kFreqMhz);
    full_power += plan.total.power_w(fpga::SpeedGrade::kMinus2, kFreqMhz);
    // Analytical µ-weighting uses the actual achieved utilization (the
    // simulated trace includes ramp-in/drain cycles).
    const double util = activity.utilization(0);
    out.add_point(duty,
                  {units::to_milliwatts(simulated).value(),
                   units::to_milliwatts(full_power * util).value(),
                   units::to_milliwatts(full_power).value()});
  }
  vr::bench::emit(out);
  return 0;
}
