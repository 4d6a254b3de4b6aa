#include "dataplane/cycle/cycle_router.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace vr::dataplane::cycle {

namespace {

/// Folds one cycle-level run into the process-wide registry
/// ("dataplane.cycle.*") so `--metrics` reports flit flow, stall and
/// arbitration behaviour across every run a binary performed.
void publish_run_metrics(const CycleResult& result) {
  obs::Registry& registry = obs::Registry::global();
  registry.counter("dataplane.cycle.flits_in").add(result.cycle.flits_in);
  registry.counter("dataplane.cycle.flits_out").add(result.cycle.flits_out);
  registry.counter("dataplane.cycle.flits_dropped")
      .add(result.cycle.flits_dropped);
  registry.counter("dataplane.cycle.vc_alloc_stalls")
      .add(result.cycle.vc_alloc_stalls);
  registry.counter("dataplane.cycle.credit_stalls")
      .add(result.cycle.credit_stalls);
  registry.counter("dataplane.cycle.arbiter_grants")
      .add(result.cycle.arbiter_grants);
  registry.counter("dataplane.cycle.arbiter_comparisons")
      .add(result.cycle.arbiter_comparisons);
  registry.histogram("dataplane.cycle.vc_occupancy")
      .merge(result.vc_occupancy);
  registry.histogram("dataplane.cycle.source_queue_depth")
      .merge(result.source_queue_depth);
}

/// Counts one sample of `value` in a by-value tally.
void count_sample(std::vector<std::uint64_t>* counts, std::size_t value) {
  if (value >= counts->size()) counts->resize(value + 1, 0);
  ++(*counts)[value];
}

/// The histogram of a by-value tally: one weighted observe per value seen.
obs::HistogramSnapshot fold_counts(const std::vector<std::uint64_t>& counts) {
  obs::Histogram histogram;
  for (std::size_t value = 0; value < counts.size(); ++value) {
    if (counts[value] != 0) {
      histogram.observe(static_cast<double>(value), counts[value]);
    }
  }
  return histogram.snapshot();
}

}  // namespace

CycleRouter::CycleRouter(pipeline::VirtualRouter& lookup, CycleConfig config)
    : config_(config),
      lookup_(&lookup),
      parser_(config.vc.vn_count),
      scheduler_(config.scheduler),
      allocator_(config.vc) {
  VR_REQUIRE(config_.vc.vn_count == config_.scheduler.vn_count,
             "VC pool and egress scheduler must agree on the VN count");
  VR_REQUIRE(lookup.vn_count() == config_.vc.vn_count,
             "lookup arrangement and VC pool must agree on the VN count");
  if (separate_engines(config_.vc.policy)) {
    VR_REQUIRE(lookup.engine_count() == lookup.vn_count(),
               "NV/VS policies need one lookup engine per VN");
  } else {
    VR_REQUIRE(lookup.engine_count() == 1,
               "VM/DVC policies need one time-shared lookup engine");
  }
  VR_REQUIRE(config_.vc_capacity_flits >= 1, "VC buffers need capacity");
  VR_REQUIRE(config_.flit_bytes >= 1, "flits need a positive size");
  VR_REQUIRE(config_.ingress_flits_per_cycle >= 1,
             "ingress needs positive flit bandwidth");
  VR_REQUIRE(config_.switch_flits_per_cycle >= 1,
             "switch needs positive flit bandwidth");
  const std::size_t k = config_.vc.vn_count;
  vcs_.resize(config_.vc.vc_count);
  for (VcState& vc : vcs_) vc.credits = config_.vc_capacity_flits;
  source_.resize(k);
  issued_order_.resize(k);
  activity_ = power::ActivityCounters(k, lookup.engine(0).stage_count());
  stats_.alloc_stalls_per_vn.assign(k, 0);
  stats_.grants_per_vn.assign(k, 0);
}

void CycleRouter::accept_frame(const IngressFrame& frame) {
  VR_REQUIRE(!finished_, "router already finished");
  // Every arriving frame pays the parse, accepted or dropped.
  if (frame.vnid < activity_.vn_count()) {
    ++activity_.parser_headers[frame.vnid];
  }
  const auto parsed =
      parser_.accept(frame.vnid, frame.header, frame.payload_bytes);
  if (!parsed) return;
  SourcePacket packet;
  packet.parsed = *parsed;
  const std::size_t total_bytes =
      net::Ipv4Header::kSize + parsed->payload_bytes;
  packet.flits_total =
      (total_bytes + config_.flit_bytes - 1) / config_.flit_bytes;
  source_[parsed->vnid].push_back(packet);
}

void CycleRouter::allocate_vcs() {
  for (std::size_t vn = 0; vn < source_.size(); ++vn) {
    if (source_[vn].empty()) continue;
    SourcePacket& head = source_[vn].front();
    if (head.vc != kNoVc) continue;
    const auto vc =
        allocator_.allocate(static_cast<net::VnId>(vn));  // narrow-ok: vn <
    // source_.size() == vn_count, which fits VnId by construction
    if (!vc) {
      ++stats_.vc_alloc_stalls;
      ++stats_.alloc_stalls_per_vn[vn];
      continue;
    }
    head.vc = *vc;
    VcState& state = vcs_[*vc];
    VR_REQUIRE(!state.busy, "allocator granted an occupied VC");
    VR_REQUIRE(state.credits == config_.vc_capacity_flits,
               "freed VC must have returned all credits");
    state.busy = true;
    state.vn = head.parsed.vnid;
    state.parsed = head.parsed;
    state.flits_total = head.flits_total;
    state.flits_received = 0;
    state.flits_drained = 0;
    state.buffered = 0;
    state.transfer_done = false;
    state.issued = false;
    state.decided = false;
    state.forward.reset();
  }
}

void CycleRouter::ingress_flits() {
  for (std::size_t vn = 0; vn < source_.size(); ++vn) {
    if (source_[vn].empty()) continue;
    SourcePacket& head = source_[vn].front();
    if (head.vc == kNoVc) continue;
    VcState& vc = vcs_[head.vc];
    std::size_t budget = config_.ingress_flits_per_cycle;
    while (budget > 0 && head.flits_sent < head.flits_total) {
      if (vc.credits == 0) {
        ++stats_.credit_stalls;
        break;
      }
      --vc.credits;
      ++vc.buffered;
      ++vc.flits_received;
      ++head.flits_sent;
      ++stats_.flits_in;
      ++activity_.buffer_writes[vn];
      --budget;
    }
    if (head.flits_sent == head.flits_total) {
      vc.transfer_done = true;
      source_[vn].pop_front();
    }
  }
}

bool CycleRouter::issue_one(std::optional<net::VnId> vn_filter,
                            std::size_t* cursor) {
  // The arbiter examines every requesting candidate (its comparator
  // work, charged per comparison by the activity layer) and grants the
  // first one at or after the round-robin cursor.
  std::optional<std::size_t> grant;
  std::size_t vc = *cursor;
  for (std::size_t i = 0; i < vcs_.size(); ++i, vc = next_vc(vc)) {
    const VcState& state = vcs_[vc];
    const bool requesting = state.busy && !state.issued && !state.decided &&
                            state.flits_received >= 1 &&
                            (!vn_filter || state.vn == *vn_filter);
    if (!requesting) continue;
    ++stats_.arbiter_comparisons;
    ++activity_.arbiter_comparisons[state.vn];
    if (!grant) grant = vc;
  }
  if (!grant) return false;
  VcState& state = vcs_[*grant];
  const net::Packet request{state.parsed.header.destination, state.vn};
  if (!lookup_->offer(request)) return false;  // input slot taken: retry
  state.issued = true;
  issued_order_[state.vn].push_back(*grant);
  ++stats_.arbiter_grants;
  ++stats_.grants_per_vn[state.vn];
  ++activity_.arbiter_decisions[state.vn];
  // The issue reads the head flit's header out of the VC buffer.
  ++activity_.buffer_reads[state.vn];
  *cursor = next_vc(*grant);
  return true;
}

void CycleRouter::issue_lookups() {
  if (separate_engines(config_.vc.policy)) {
    // One issue slot per VN engine; each VN arbitrates only its own VCs.
    // Cursors are per-VN in effect because the scan filters by VN.
    for (std::size_t vn = 0; vn < source_.size(); ++vn) {
      std::size_t cursor = arb_cursor_;
      // narrow-ok: vn < vn_count fits VnId by construction
      (void)issue_one(static_cast<net::VnId>(vn), &cursor);
    }
    arb_cursor_ = next_vc(arb_cursor_);
  } else {
    // One merged engine: a single issue slot all VNs contend for.
    (void)issue_one(std::nullopt, &arb_cursor_);
  }
}

void CycleRouter::apply_decision(const pipeline::LookupResult& done) {
  const net::VnId vn = done.packet.vnid;
  VR_REQUIRE(vn < issued_order_.size(), "lookup result for unknown VN");
  VR_REQUIRE(!issued_order_[vn].empty(),
             "lookup completed with no issued VC for its VN");
  const std::size_t vc = issued_order_[vn].front();
  issued_order_[vn].pop_front();
  VcState& state = vcs_[vc];
  VR_REQUIRE(state.busy && state.issued && !state.decided,
             "completion arrived for a VC in the wrong state");
  VR_REQUIRE(state.parsed.header.destination == done.packet.addr,
             "per-VN lookup completion order violated");
  state.decided = true;
  const auto forwarded = editor_.edit(state.parsed, done.next_hop);
  if (forwarded) {
    ++activity_.editor_rewrites[vn];
    state.forward = *forwarded;
    return;
  }
  // Drop verdict (no route / TTL expiry): discard what is buffered,
  // return its credits, and cancel any flits still upstream.
  stats_.flits_dropped += state.buffered;
  state.credits += state.buffered;
  state.buffered = 0;
  if (!state.transfer_done) {
    VR_REQUIRE(!source_[vn].empty() && source_[vn].front().vc == vc,
               "partially transferred packet must be its VN's head");
    source_[vn].pop_front();
  }
  free_vc(vc);
}

void CycleRouter::drain_switch() {
  std::size_t budget = config_.switch_flits_per_cycle;
  std::size_t vc = drain_cursor_;
  for (std::size_t i = 0; i < vcs_.size() && budget > 0;
       ++i, vc = next_vc(vc)) {
    VcState& state = vcs_[vc];
    if (!state.busy || !state.decided || !state.forward.has_value() ||
        state.buffered == 0) {
      continue;
    }
    const std::size_t moved = std::min(budget, state.buffered);
    state.buffered -= moved;
    state.credits += moved;
    state.flits_drained += moved;
    budget -= moved;
    stats_.flits_out += moved;
    activity_.buffer_reads[state.vn] += moved;
    activity_.crossbar_traversals[state.vn] += moved;
    if (state.flits_drained == state.flits_total) {
      // Tail flit crossed: the whole packet enters the egress stage.
      if (scheduler_.enqueue(*state.forward, cycle_)) {
        ++activity_.buffer_writes[state.vn];
      }
      free_vc(vc);
    }
  }
  drain_cursor_ = next_vc(drain_cursor_);
}

void CycleRouter::free_vc(std::size_t vc) {
  VcState& state = vcs_[vc];
  VR_REQUIRE(state.buffered == 0, "freeing a VC with buffered flits");
  VR_REQUIRE(state.credits == config_.vc_capacity_flits,
             "freeing a VC before all credits returned");
  state = VcState{};
  state.credits = config_.vc_capacity_flits;
  allocator_.release(vc);
}

void CycleRouter::step() {
  VR_REQUIRE(!finished_, "router already finished");
  allocate_vcs();
  ingress_flits();
  issue_lookups();
  lookup_done_.clear();
  lookup_->tick(&lookup_done_);
  for (const pipeline::LookupResult& done : lookup_done_) {
    apply_decision(done);
  }
  drain_switch();
  const std::size_t egress_before = egress_.size();
  scheduler_.tick(cycle_, &egress_);
  for (std::size_t i = egress_before; i < egress_.size(); ++i) {
    ++activity_.buffer_reads[egress_[i].vnid];
  }
  count_sample(&vc_occupancy_counts_, in_flight_flits());
  for (const auto& queue : source_) {
    count_sample(&source_depth_counts_, queue.size());
  }
  ++cycle_;
}

bool CycleRouter::drained() const {
  if (allocator_.allocated_count() != 0) return false;
  for (const auto& queue : source_) {
    if (!queue.empty()) return false;
  }
  for (const auto& fifo : issued_order_) {
    if (!fifo.empty()) return false;
  }
  return lookup_->drained() && scheduler_.empty();
}

std::size_t CycleRouter::vc_credits(std::size_t vc) const {
  VR_REQUIRE(vc < vcs_.size(), "VC index out of range");
  return vcs_[vc].credits;
}

std::size_t CycleRouter::vc_buffered(std::size_t vc) const {
  VR_REQUIRE(vc < vcs_.size(), "VC index out of range");
  return vcs_[vc].buffered;
}

bool CycleRouter::vc_busy(std::size_t vc) const {
  VR_REQUIRE(vc < vcs_.size(), "VC index out of range");
  return vcs_[vc].busy;
}

std::uint64_t CycleRouter::in_flight_flits() const {
  std::uint64_t total = 0;
  for (const VcState& vc : vcs_) total += vc.buffered;
  return total;
}

CycleResult CycleRouter::finish() {
  VR_REQUIRE(!finished_, "finish() may only be called once");
  VR_REQUIRE(drained(), "finish() requires a drained data plane");
  finished_ = true;
  CycleResult result;
  result.parser = parser_.stats();
  result.editor = editor_.stats();
  result.scheduler = scheduler_.stats();
  result.cycle = stats_;
  result.egress = std::move(egress_);
  result.cycles = cycle_;
  activity_.cycles = cycle_;
  // The egress DRR arbiter's grants and comparator examinations join the
  // issue arbiter's in the same per-VN activity columns.
  for (std::size_t vn = 0; vn < activity_.vn_count(); ++vn) {
    activity_.arbiter_decisions[vn] +=
        result.scheduler.arbiter_grants_per_vn[vn];
    activity_.arbiter_comparisons[vn] +=
        result.scheduler.arbiter_comparisons_per_vn[vn];
  }
  power::ActivityCounters lookup_activity = lookup_->activity();
  activity_.stage_busy = std::move(lookup_activity.stage_busy);
  activity_.stage_reads = std::move(lookup_activity.stage_reads);
  result.activity = std::move(activity_);
  result.vc_occupancy = fold_counts(vc_occupancy_counts_);
  result.source_queue_depth = fold_counts(source_depth_counts_);
  publish_run_metrics(result);
  return result;
}

CycleResult run_cycle_router(pipeline::VirtualRouter& lookup,
                             std::vector<IngressFrame> frames,
                             const CycleConfig& config) {
  std::sort(frames.begin(), frames.end(),
            [](const IngressFrame& a, const IngressFrame& b) {
              return a.cycle < b.cycle;
            });
  CycleRouter router(lookup, config);
  // Generous progress bound: a drained run never comes close, so hitting
  // it means the model deadlocked — abort loudly instead of hanging.
  const std::uint64_t last_arrival = frames.empty() ? 0 : frames.back().cycle;
  const std::uint64_t deadline = last_arrival + 10000 + 200 * frames.size();
  std::size_t next_frame = 0;
  while (next_frame < frames.size() || !router.drained()) {
    while (next_frame < frames.size() &&
           frames[next_frame].cycle <= router.now()) {
      router.accept_frame(frames[next_frame]);
      ++next_frame;
    }
    router.step();
    VR_REQUIRE(router.now() < deadline,
               "cycle model failed to drain (deadlock?)");
  }
  return router.finish();
}

}  // namespace vr::dataplane::cycle
