// The complete router data plane: parser -> VNID distributor -> pipelined
// Layer-3 lookup -> header editor -> DRR egress scheduler. Composes the
// stages the paper's Sec. VI-A names for a full router around the lookup
// engine this library models, and provides the end-to-end QoS/transparency
// measurements the paper's introduction promises ("the user should not
// experience any difference" after consolidation).
#pragma once

#include <deque>
#include <vector>

#include "dataplane/editor.hpp"
#include "dataplane/frame_gen.hpp"
#include "dataplane/parser.hpp"
#include "dataplane/scheduler.hpp"
#include "obs/metrics.hpp"
#include "pipeline/router.hpp"
#include "power/activity.hpp"

namespace vr::dataplane {

struct FullRouterConfig {
  SchedulerConfig scheduler;
};

/// End-to-end run summary.
struct FullRouterResult {
  std::vector<EgressRecord> egress;
  ParserStats parser;
  EditorStats editor;
  SchedulerStats scheduler;
  std::uint64_t cycles = 0;
  std::size_t max_lookup_queue = 0;
  /// Per-queue depth distribution, sampled after every accepted enqueue.
  obs::HistogramSnapshot queue_depths;
  /// Egress queueing delay distribution (cycles enqueue -> transmit).
  obs::HistogramSnapshot egress_wait;
  /// Per-stage, per-VN event counts of the run — the input of
  /// power::ActivityModel. Global VNIDs, regardless of the lookup
  /// arrangement (separate engines report under the VN they serve).
  power::ActivityCounters activity;

  /// Goodput share per VN (fraction of total transmitted bytes).
  [[nodiscard]] std::vector<double> goodput_shares() const;
  /// Mean egress queueing latency per VN, cycles.
  [[nodiscard]] std::vector<double> mean_queueing_cycles(
      std::size_t vn_count) const;
};

/// Drives a frame stream through the full data plane built around any
/// lookup engine arrangement (separate or merged). The lookup router's
/// vn_count must equal the scheduler's.
[[nodiscard]] FullRouterResult run_full_router(
    pipeline::VirtualRouter& lookup, std::vector<IngressFrame> frames,
    const FullRouterConfig& config);

}  // namespace vr::dataplane
