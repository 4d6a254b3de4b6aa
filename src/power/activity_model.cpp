#include "power/activity_model.hpp"

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "fpga/bram.hpp"

namespace vr::power {

EventEnergies EventEnergies::from_xpe(fpga::SpeedGrade grade) noexcept {
  const double logic_pj =
      fpga::XpeTables::logic_stage_uw_per_mhz(grade).value();
  const double bram18_pj =
      fpga::XpeTables::bram_uw_per_mhz(fpga::BramKind::k18, grade).value();
  return EventEnergies{
      .buffer_read_pj = units::Picojoules{bram18_pj},
      .buffer_write_pj = units::Picojoules{bram18_pj},
      .parser_pj = units::Picojoules{logic_pj},
      .crossbar_pj = units::Picojoules{logic_pj},
      .arbiter_pj = units::Picojoules{0.5 * logic_pj},
      .editor_pj = units::Picojoules{logic_pj},
  };
}

namespace {

/// pJ charged per busy cycle of one stage's BRAM allocation — Table III
/// block coefficients via the µW/MHz ≡ pJ/cycle identity.
units::Picojoules stage_bram_pj(const fpga::BramAllocation& alloc,
                                fpga::SpeedGrade grade) noexcept {
  const double energy_pj =
      static_cast<double>(alloc.blocks18) *
          fpga::XpeTables::bram_uw_per_mhz(fpga::BramKind::k18, grade)
              .value() +
      static_cast<double>(alloc.blocks36) *
          fpga::XpeTables::bram_uw_per_mhz(fpga::BramKind::k36, grade)
              .value();
  return units::Picojoules{energy_pj};
}

/// The engine whose memory image VN `vn` traverses: its own engine under
/// NV/VS, the shared merged engine under VM.
const EngineSpec& engine_for_vn(const ModelContext& ctx, std::size_t vn) {
  if (ctx.scheme == Scheme::kMerged) {
    VR_REQUIRE(ctx.merged_engine != nullptr,
               "merged scheme needs a merged engine spec");
    return *ctx.merged_engine;
  }
  VR_REQUIRE(ctx.engines.size() == ctx.vn_count,
             "separate schemes need one engine spec per VN");
  return ctx.engines[vn];
}

}  // namespace

ActivityPower ActivityModel::estimate(const ModelContext& ctx) const {
  VR_REQUIRE(ctx.activity != nullptr,
             "activity model needs measured counters");
  const ActivityCounters& act = *ctx.activity;
  VR_REQUIRE(act.vn_count() == ctx.vn_count,
             "activity counters must cover every VN");
  const std::size_t stages = act.stage_count();
  VR_REQUIRE(stages >= 1, "activity counters must cover the pipeline");

  const EventEnergies energies = EventEnergies::from_xpe(ctx.op.grade);
  const units::Picojoules logic_pj{
      fpga::XpeTables::logic_stage_uw_per_mhz(ctx.op.grade).value()};
  const units::Cycles window{static_cast<double>(act.cycles)};
  const units::Megahertz freq = ctx.op.freq_mhz;

  ActivityPower out;
  out.per_vn_w.resize(ctx.vn_count);
  out.per_vn_overhead_w.resize(ctx.vn_count);
  out.cycles = window;
  out.freq_mhz = freq;

  // Per-stage memory coefficients, resolved once per distinct engine. VM
  // shares one plan across VNs; NV/VS plan per VN.
  std::vector<std::vector<units::Picojoules>> stage_pj(ctx.vn_count);
  for (std::size_t vn = 0; vn < ctx.vn_count; ++vn) {
    if (ctx.scheme == Scheme::kMerged && vn > 0) {
      stage_pj[vn] = stage_pj[0];
      continue;
    }
    const EngineSpec& engine = engine_for_vn(ctx, vn);
    VR_REQUIRE(engine.stage_count() == stages,
               "activity counters and engine spec disagree on stage count");
    const fpga::StageBramPlan plan =
        fpga::plan_stage_bram(engine.stage_bits, ctx.op.bram_policy);
    stage_pj[vn].reserve(stages);
    for (const fpga::BramAllocation& alloc : plan.per_stage) {
      stage_pj[vn].push_back(stage_bram_pj(alloc, ctx.op.grade));
    }
  }

  for (std::size_t vn = 0; vn < ctx.vn_count; ++vn) {
    units::Picojoules logic_energy_pj;
    units::Picojoules memory_energy_pj;
    units::Picojoules gated_energy_pj;
    for (std::size_t s = 0; s < stages; ++s) {
      const double busy = static_cast<double>(act.busy(vn, s));
      const double reads = static_cast<double>(act.reads(vn, s));
      logic_energy_pj += logic_pj * busy;
      memory_energy_pj += stage_pj[vn][s] * busy;
      gated_energy_pj += stage_pj[vn][s] * reads;
    }
    const units::Watts logic_w =
        units::average_power(logic_energy_pj, window, freq);
    const units::Watts memory_w =
        units::average_power(memory_energy_pj, window, freq);
    out.per_vn_w[vn] = logic_w + memory_w;
    out.logic_w += logic_w;
    out.memory_w += memory_w;
    out.memory_gated_w += units::average_power(gated_energy_pj, window, freq);

    const units::Picojoules parser_pj =
        energies.parser_pj * static_cast<double>(act.parser_headers[vn]);
    const units::Picojoules buffer_pj =
        energies.buffer_write_pj * static_cast<double>(act.buffer_writes[vn]) +
        energies.buffer_read_pj * static_cast<double>(act.buffer_reads[vn]);
    const units::Picojoules crossbar_pj =
        energies.crossbar_pj *
        static_cast<double>(act.crossbar_traversals[vn]);
    const units::Picojoules arbiter_pj =
        energies.arbiter_pj * static_cast<double>(act.arbiter_decisions[vn]);
    const units::Picojoules editor_pj =
        energies.editor_pj * static_cast<double>(act.editor_rewrites[vn]);

    const units::Watts parser_w = units::average_power(parser_pj, window, freq);
    const units::Watts buffer_w = units::average_power(buffer_pj, window, freq);
    const units::Watts crossbar_w =
        units::average_power(crossbar_pj, window, freq);
    const units::Watts arbiter_w =
        units::average_power(arbiter_pj, window, freq);
    const units::Watts editor_w = units::average_power(editor_pj, window, freq);

    out.per_vn_overhead_w[vn] =
        parser_w + buffer_w + crossbar_w + arbiter_w + editor_w;
    out.parser_w += parser_w;
    out.buffer_w += buffer_w;
    out.crossbar_w += crossbar_w;
    out.arbiter_w += arbiter_w;
    out.editor_w += editor_w;
  }
  return out;
}

}  // namespace vr::power
