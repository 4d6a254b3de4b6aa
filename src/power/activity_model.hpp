// The activity-driven dynamic-power estimate (DESIGN.md §13): charges a
// per-event energy for every discrete event the dataplane counted, in the
// Orion/hornet style, instead of scaling full-engine power by a per-VN
// utilization scalar. Every coefficient derives from the same XPE tables
// the analytical model uses, so on a uniform trace the two must agree; on
// shaped traffic the divergence is the measurement.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "fpga/xpe_tables.hpp"
#include "power/activity.hpp"
#include "power/analytical_model.hpp"

namespace vr::power {

/// Energy charged per discrete dataplane event. Defaults derive from the
/// XPE tables at the operating point's speed grade (`from_xpe`): a queue
/// access costs one 18 Kb BRAM cycle, a header parse / rewrite and a
/// crossbar traversal each cost one logic-stage cycle, and a DRR grant —
/// comparator-and-accumulator logic, roughly half a PE stage — costs half
/// of one.
struct EventEnergies {
  units::Picojoules buffer_read_pj;
  units::Picojoules buffer_write_pj;
  units::Picojoules parser_pj;
  units::Picojoules crossbar_pj;
  units::Picojoules arbiter_pj;
  units::Picojoules editor_pj;

  [[nodiscard]] static EventEnergies from_xpe(fpga::SpeedGrade grade) noexcept;
};

/// The activity model's full answer. `per_vn_w` is the lookup-core
/// dynamic power (logic + memory, charged per busy stage-cycle) — the
/// quantity directly comparable with AnalyticalModel::per_vn_dynamic_w.
/// Everything else is refinement the µ-model cannot express: the
/// clock-gating-aware memory figure (only stages that actually read charge
/// BRAM energy) and the non-lookup overheads (parser, buffers, crossbar,
/// arbiter, editor).
struct ActivityPower {
  /// Lookup-core (logic + memory) watts per VN, busy-charged.
  std::vector<units::Watts> per_vn_w;
  /// Non-lookup event watts per VN (parser + buffers + crossbar + arbiter
  /// + editor).
  std::vector<units::Watts> per_vn_overhead_w;

  units::Watts logic_w;
  units::Watts memory_w;
  /// Memory charged per *actual read* (stage_reads) instead of per busy
  /// cycle: what fine-grained BRAM-enable gating would save.
  units::Watts memory_gated_w;

  units::Watts parser_w;
  units::Watts buffer_w;
  units::Watts crossbar_w;
  units::Watts arbiter_w;
  units::Watts editor_w;

  units::Cycles cycles;
  units::Megahertz freq_mhz;

  [[nodiscard]] units::Watts core_w() const noexcept {
    return logic_w + memory_w;
  }
  [[nodiscard]] units::Watts overhead_w() const noexcept {
    return parser_w + buffer_w + crossbar_w + arbiter_w + editor_w;
  }
  [[nodiscard]] units::Watts dynamic_w() const noexcept {
    return core_w() + overhead_w();
  }
};

/// Per-event energy accounting over measured ActivityCounters. Requires
/// ctx.activity; stage counts must match the context's engine specs. The
/// overhead events are charged EventEnergies::from_xpe at the operating
/// point's speed grade.
class ActivityModel {
 public:
  /// Every component the counters can resolve.
  [[nodiscard]] ActivityPower estimate(const ModelContext& ctx) const;
};

}  // namespace vr::power
