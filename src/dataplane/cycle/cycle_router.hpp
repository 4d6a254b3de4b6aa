// Cycle-level virtualized router dataplane with credit-based flow control
// (DESIGN.md §15). The per-packet FullRouter answers *what* the data plane
// does to a frame stream; this model answers *when*, one clock cycle at a
// time, with the finite buffering and arbitration contention where the
// activity-driven power story (§13) actually lives:
//
//   source queue (per VN, the line card) --credits--> input VC buffers
//     --issue arbiter--> lookup pipeline (the existing LookupEngine via
//     its offer/tick step API) --editor--> switch --> DRR egress
//
// Packets are segmented into flits; a flit moves from the source into its
// packet's virtual channel only when the upstream credit counter for that
// VC is positive (credit consumed on send, returned when the flit drains
// through the switch), so `credits + buffered == capacity` holds for
// every VC at every cycle — the conservation law the `ctest -L cycle`
// property suite pins. Which VN may occupy which VC is the VcPolicy's
// business (vc_alloc.hpp): the paper's three static partitions plus the
// dynamic shared-pool scheme measured by bench/perf_cycle.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "dataplane/cycle/vc_alloc.hpp"
#include "dataplane/editor.hpp"
#include "dataplane/frame_gen.hpp"
#include "dataplane/parser.hpp"
#include "dataplane/scheduler.hpp"
#include "obs/metrics.hpp"
#include "pipeline/router.hpp"
#include "power/activity.hpp"

namespace vr::dataplane::cycle {

struct CycleConfig {
  VcAllocConfig vc;
  /// Flit buffer depth of one VC; the upstream holds this many credits.
  std::size_t vc_capacity_flits = 8;
  /// Flit payload granularity. A packet of B bytes occupies
  /// ceil(B / flit_bytes) flits (head flit carries the header).
  std::uint32_t flit_bytes = 64;
  /// Crossbar bandwidth: flits moved from VC buffers to the egress
  /// queues per cycle, all VNs combined.
  std::size_t switch_flits_per_cycle = 4;
  /// Egress stage (per-port DRR across per-VN queues), reused as-is.
  SchedulerConfig scheduler;
};

/// Flit- and arbitration-level accounting of one run. Everything here is
/// conserved or cross-checkable: flits_in == flits_out + flits_dropped +
/// (flits still buffered), grants <= comparisons.
struct CycleStats {
  std::uint64_t flits_in = 0;       ///< flits written into VC buffers
  std::uint64_t flits_out = 0;      ///< flits drained through the switch
  std::uint64_t flits_dropped = 0;  ///< buffered flits discarded on a drop
  /// Cycles a VN's head packet waited because no VC was grantable.
  std::uint64_t vc_alloc_stalls = 0;
  /// Cycles a VN's flit transfer stopped on an exhausted credit counter.
  std::uint64_t credit_stalls = 0;
  /// Lookup-issue arbiter grants (one VC wins the issue slot).
  std::uint64_t arbiter_grants = 0;
  /// Candidate requests the issue arbiter examined while deciding.
  std::uint64_t arbiter_comparisons = 0;
  std::vector<std::uint64_t> alloc_stalls_per_vn;
  std::vector<std::uint64_t> grants_per_vn;
};

/// End-to-end summary of a cycle-level run; the cycle-model counterpart
/// of FullRouterResult (and priced by power::ActivityModel the same way).
struct CycleResult {
  ParserStats parser;
  EditorStats editor;
  SchedulerStats scheduler;
  CycleStats cycle;
  std::vector<EgressRecord> egress;
  std::uint64_t cycles = 0;
  power::ActivityCounters activity;
  /// Total flits buffered across all VCs, sampled once per cycle.
  obs::HistogramSnapshot vc_occupancy;
  /// Per-VN source-queue depth (packets awaiting a VC), sampled per cycle.
  obs::HistogramSnapshot source_queue_depth;
};

/// The cycle-driven router. Drive it manually (accept_frame + step) when
/// per-cycle state must be inspected — the invariant tests do — or use
/// run_cycle_router() for the batteries-included trace run.
class CycleRouter {
 public:
  /// `lookup` must match the policy's engine arrangement: K per-VN
  /// engines (SeparateRouter) for NV/VS, one merged engine (MergedRouter)
  /// for VM/DVC. The router borrows it for the run, like run_full_router.
  CycleRouter(pipeline::VirtualRouter& lookup, CycleConfig config);

  /// Parses one arriving frame at the current cycle; accepted packets are
  /// segmented into flits and queued at the VN's source queue.
  void accept_frame(const IngressFrame& frame);

  /// Advances the entire data plane one clock cycle.
  void step();

  /// True when no packet or flit is anywhere in flight.
  [[nodiscard]] bool drained() const;

  [[nodiscard]] std::uint64_t now() const noexcept { return cycle_; }

  // Inspection surface for the invariant test layer. -----------------------
  [[nodiscard]] std::size_t vc_credits(std::size_t vc) const;
  [[nodiscard]] std::size_t vc_buffered(std::size_t vc) const;
  /// Whether the VC currently holds a packet (must agree with the
  /// allocator's owner map — the no-double-occupancy invariant).
  [[nodiscard]] bool vc_busy(std::size_t vc) const;
  [[nodiscard]] const VcAllocator& allocator() const noexcept {
    return allocator_;
  }
  /// Flits currently buffered across all VCs.
  [[nodiscard]] std::uint64_t in_flight_flits() const;
  [[nodiscard]] const CycleStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const CycleConfig& config() const noexcept { return config_; }

  /// Copies the lookup router's stage activity and adds the scheduler's
  /// arbitration into the run's ActivityCounters, then assembles the
  /// result. Call once, after drain.
  [[nodiscard]] CycleResult finish();

 private:
  struct SourcePacket {
    ParsedPacket parsed;
    std::size_t flits_total = 0;
    std::size_t flits_sent = 0;
    /// VC granted to this packet; kNoVc while waiting for allocation.
    std::size_t vc = kNoVc;
  };
  struct VcState {
    bool busy = false;
    net::VnId vn = 0;
    ParsedPacket parsed;
    std::size_t flits_total = 0;
    std::size_t flits_received = 0;
    std::size_t flits_drained = 0;
    std::size_t buffered = 0;
    std::size_t credits = 0;
    bool transfer_done = false;  ///< every flit left the source queue
    bool issued = false;         ///< lookup offered to the pipeline
    bool decided = false;        ///< editor verdict arrived
    std::optional<ForwardedPacket> forward;  ///< set when verdict = forward
  };
  static constexpr std::size_t kNoVc = static_cast<std::size_t>(-1);

  void allocate_vcs();
  void ingress_flits();
  void issue_lookups();
  /// Offers at most one eligible VC of `candidates` to the lookup stage,
  /// scanning round-robin from *cursor. Returns true on a grant.
  bool issue_one(std::optional<net::VnId> vn_filter, std::size_t* cursor);
  void apply_decision(const pipeline::LookupResult& done);
  void drain_switch();
  void free_vc(std::size_t vc);
  /// The VC after `vc` in round-robin order.
  [[nodiscard]] std::size_t next_vc(std::size_t vc) const noexcept {
    return vc + 1 == vcs_.size() ? 0 : vc + 1;
  }

  CycleConfig config_;
  pipeline::VirtualRouter* lookup_;
  Parser parser_;
  Editor editor_;
  DrrScheduler scheduler_;
  VcAllocator allocator_;
  std::vector<VcState> vcs_;
  std::vector<std::deque<SourcePacket>> source_;
  /// Per-VN issue order: lookup pipelines complete in order per VN, so
  /// the front VC owns the next completed result of that VN.
  std::vector<std::deque<std::size_t>> issued_order_;
  std::vector<EgressRecord> egress_;
  std::vector<pipeline::LookupResult> lookup_done_;
  power::ActivityCounters activity_;
  CycleStats stats_;
  /// Per-cycle samples counted by value (index = flits or packets); finish()
  /// folds each count into CycleResult's histogram with one weighted
  /// observe.
  std::vector<std::uint64_t> vc_occupancy_counts_;
  std::vector<std::uint64_t> source_depth_counts_;
  std::uint64_t cycle_ = 0;
  std::size_t arb_cursor_ = 0;    ///< merged-engine issue round-robin
  std::size_t drain_cursor_ = 0;  ///< switch drain round-robin
  bool finished_ = false;
};

/// Sorts `frames` by arrival cycle, drives them through the router, and
/// runs the clock until the data plane drains. Aborts (VR_REQUIRE) if the
/// model stops making progress — a deadlock is a bug, never a hang.
[[nodiscard]] CycleResult run_cycle_router(pipeline::VirtualRouter& lookup,
                                           std::vector<IngressFrame> frames,
                                           const CycleConfig& config);

}  // namespace vr::dataplane::cycle
