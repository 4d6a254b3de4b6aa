// Per-stage, per-VN dataplane activity: the discrete-event record the
// activity-driven power backend charges (DESIGN.md §13). The paper's
// dynamic power scales every stage by one utilization scalar µ_i (Eqs.
// 2/5); hornet's Orion integration shows the stronger model — count the
// events a packet actually causes (buffer reads/writes, lookup-stage
// accesses, crossbar traversals, arbiter decisions, header rewrites) and
// charge per-event energy. This struct is the one activity ledger: the
// lookup pipeline and the dataplane count into it, power::ActivityModel
// charges it. Pure data, no dependencies above common/, so every layer
// can link it.
#pragma once

#include <cstdint>
#include <vector>

namespace vr::power {

/// Event counts of one end-to-end dataplane run, resolved per virtual
/// network (and, for the lookup pipeline, per stage). The lookup engines
/// count stage activity into it, the dataplane drivers the rest;
/// power::ActivityModel prices it.
struct ActivityCounters {
  ActivityCounters() = default;
  ActivityCounters(std::size_t vn_count, std::size_t stage_count);

  /// Cycles the counters cover (the run's simulated duration).
  std::uint64_t cycles = 0;

  // Per-VN event counts, indexed by VNID. ----------------------------------
  /// Headers the ingress parser processed (every arriving frame pays the
  /// parse, accepted or dropped).
  std::vector<std::uint64_t> parser_headers;
  /// Packet writes into a queue (lookup backlog, egress queues).
  std::vector<std::uint64_t> buffer_writes;
  /// Packet reads out of a queue (backlog drain, egress transmit).
  std::vector<std::uint64_t> buffer_reads;
  /// Ingress-to-egress-port fabric traversals (one per forwarded packet).
  std::vector<std::uint64_t> crossbar_traversals;
  /// DRR grant decisions (the egress arbiter electing a VN's queue).
  std::vector<std::uint64_t> arbiter_decisions;
  /// Header rewrites by the editor (TTL decrement + checksum update).
  std::vector<std::uint64_t> editor_rewrites;

  // Per-(VN, stage) lookup-pipeline counts, VN-major. ----------------------
  /// Cycles stage s clocked a valid packet of VN v ([v * stages + s]).
  std::vector<std::uint64_t> stage_busy;
  /// Cycles stage s performed a memory read for VN v (a live traversal;
  /// terminated traversals carry their result without reading).
  std::vector<std::uint64_t> stage_reads;

  [[nodiscard]] std::size_t vn_count() const noexcept {
    return parser_headers.size();
  }
  [[nodiscard]] std::size_t stage_count() const noexcept {
    return parser_headers.empty() ? 0
                                  : stage_busy.size() / parser_headers.size();
  }

  [[nodiscard]] std::uint64_t& busy(std::size_t vn, std::size_t stage) {
    return stage_busy[vn * stage_count() + stage];
  }
  [[nodiscard]] std::uint64_t busy(std::size_t vn,
                                   std::size_t stage) const noexcept {
    return stage_busy[vn * stage_count() + stage];
  }
  [[nodiscard]] std::uint64_t& reads(std::size_t vn, std::size_t stage) {
    return stage_reads[vn * stage_count() + stage];
  }
  [[nodiscard]] std::uint64_t reads(std::size_t vn,
                                    std::size_t stage) const noexcept {
    return stage_reads[vn * stage_count() + stage];
  }

  /// Measured utilization µ of VN `vn`: its busy stage-cycles over all
  /// stage-cycles of the window, Σ_s busy(vn, s) / (stages × cycles).
  /// 0 over an empty window.
  [[nodiscard]] double utilization(std::size_t vn) const noexcept;
  /// utilization(v) for every VN, indexed by VNID — the µ vector an
  /// OperatingPoint reports alongside these counters.
  [[nodiscard]] std::vector<double> utilization() const;

  /// Sum of one per-VN event vector (helper for reports).
  [[nodiscard]] static std::uint64_t total(
      const std::vector<std::uint64_t>& per_vn) noexcept;
};

}  // namespace vr::power
