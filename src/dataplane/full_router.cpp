#include "dataplane/full_router.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace vr::dataplane {

namespace {

// Folds one end-to-end run into the process-wide registry ("dataplane.*")
// so `--metrics` reports drop and latency behaviour across every run a
// binary performed.
void publish_run_metrics(const FullRouterResult& result) {
  obs::Registry& registry = obs::Registry::global();
  registry.counter("dataplane.parser_accepted").add(result.parser.accepted);
  registry.counter("dataplane.parser_dropped").add(result.parser.dropped());
  registry.counter("dataplane.editor_forwarded").add(result.editor.forwarded);
  registry.counter("dataplane.editor_no_route").add(result.editor.no_route);
  registry.counter("dataplane.editor_ttl_expired")
      .add(result.editor.ttl_expired);
  registry.counter("dataplane.enqueued").add(result.scheduler.enqueued);
  registry.counter("dataplane.transmitted").add(result.scheduler.transmitted);
  registry.counter("dataplane.tail_drops").add(result.scheduler.tail_drops);
  registry.counter("dataplane.rejected").add(result.scheduler.rejected);
  for (std::size_t vn = 0; vn < result.scheduler.bytes_per_vn.size(); ++vn) {
    registry
        .counter("dataplane.vn_bytes", {{"vn", std::to_string(vn)}})
        .add(result.scheduler.bytes_per_vn[vn]);
  }
  registry.histogram("dataplane.queue_depth").merge(result.queue_depths);
  registry.histogram("dataplane.egress_wait_cycles").merge(result.egress_wait);
  const power::ActivityCounters& act = result.activity;
  for (std::size_t vn = 0; vn < act.vn_count(); ++vn) {
    const obs::Labels labels{{"vn", std::to_string(vn)}};
    registry.counter("dataplane.activity.parser_headers", labels)
        .add(act.parser_headers[vn]);
    registry.counter("dataplane.activity.buffer_writes", labels)
        .add(act.buffer_writes[vn]);
    registry.counter("dataplane.activity.buffer_reads", labels)
        .add(act.buffer_reads[vn]);
    registry.counter("dataplane.activity.crossbar_traversals", labels)
        .add(act.crossbar_traversals[vn]);
    registry.counter("dataplane.activity.arbiter_decisions", labels)
        .add(act.arbiter_decisions[vn]);
    registry.counter("dataplane.activity.editor_rewrites", labels)
        .add(act.editor_rewrites[vn]);
  }
}

}  // namespace

std::vector<double> FullRouterResult::goodput_shares() const {
  std::vector<double> shares(scheduler.bytes_per_vn.size(), 0.0);
  std::uint64_t total = 0;
  for (const std::uint64_t b : scheduler.bytes_per_vn) total += b;
  if (total == 0) return shares;
  for (std::size_t v = 0; v < shares.size(); ++v) {
    shares[v] = static_cast<double>(scheduler.bytes_per_vn[v]) /
                static_cast<double>(total);
  }
  return shares;
}

std::vector<double> FullRouterResult::mean_queueing_cycles(
    std::size_t vn_count) const {
  std::vector<double> sums(vn_count, 0.0);
  std::vector<std::uint64_t> counts(vn_count, 0);
  for (const EgressRecord& record : egress) {
    sums[record.vnid] += static_cast<double>(record.queueing_cycles);
    ++counts[record.vnid];
  }
  for (std::size_t v = 0; v < vn_count; ++v) {
    if (counts[v] > 0) sums[v] /= static_cast<double>(counts[v]);
  }
  return sums;
}

FullRouterResult run_full_router(pipeline::VirtualRouter& lookup,
                                 std::vector<IngressFrame> frames,
                                 const FullRouterConfig& config) {
  VR_REQUIRE(config.scheduler.vn_count == lookup.vn_count(),
             "scheduler and lookup must agree on the VN count");
  // Stable: frames that share an arrival cycle keep the caller's order.
  std::stable_sort(frames.begin(), frames.end(),
                   [](const IngressFrame& a, const IngressFrame& b) {
                     return a.cycle < b.cycle;
                   });

  FullRouterResult result;
  Parser parser(lookup.vn_count());
  Editor editor;
  DrrScheduler scheduler(config.scheduler);
  VR_REQUIRE(lookup.engine_count() >= 1, "router needs at least one engine");
  power::ActivityCounters activity(lookup.vn_count(),
                                   lookup.engine(0).stage_count());

  // 1. Every frame through the parser. An accepted packet is written into
  //    the lookup backlog and read out when the pipe takes it, and waits in
  //    its VN's FIFO for the lookup result. Both the separate router
  //    (per-engine in-order pipelines) and the merged router (single
  //    in-order pipeline) preserve per-VN completion order, so a FIFO per
  //    VN reassociates results with full packets.
  std::vector<std::deque<ParsedPacket>> awaiting(lookup.vn_count());
  std::vector<net::TimedPacket> trace;
  trace.reserve(frames.size());
  for (const IngressFrame& frame : frames) {
    // Every arriving frame pays the parse, accepted or dropped.
    if (frame.vnid < activity.vn_count()) {
      ++activity.parser_headers[frame.vnid];
    }
    if (const auto parsed = parser.accept(frame.vnid, frame.header,
                                          frame.payload_bytes)) {
      ++activity.buffer_writes[parsed->vnid];
      ++activity.buffer_reads[parsed->vnid];
      awaiting[parsed->vnid].push_back(*parsed);
      trace.push_back(
          {frame.cycle, net::Packet{parsed->header.destination, parsed->vnid}});
    }
  }

  // 2. The accepted packets through the lookup pipe at their arrival
  //    cycles (back-pressure respected). Exit cycles count on the
  //    router's own clock, which reads `start` when this run begins.
  const std::uint64_t start = lookup.engine(0).now();
  const pipeline::SimulationResult lookups = pipeline::run_trace(lookup, trace);
  result.max_lookup_queue = lookups.max_queue_depth;

  // 3. Each completed lookup goes to the editor and the scheduler in the
  //    cycle it leaves the pipe. The run lasts past the last arrival,
  //    dropped or not, and until every egress queue has drained.
  const std::uint64_t end =
      frames.empty() ? 0 : std::max(lookups.cycles, frames.back().cycle + 1);
  const std::uint64_t deadline =
      end + drain_bound_cycles(frames,
                               min_service_bytes_per_cycle(config.scheduler));
  std::size_t next = 0;
  std::uint64_t cycle = 0;
  for (; cycle < end || !scheduler.empty(); ++cycle) {
    VR_REQUIRE(cycle < deadline, "full router failed to drain (deadlock?)");
    for (; next < lookups.results.size() &&
           lookups.results[next].exit_cycle == start + cycle + 1;
         ++next) {
      const pipeline::LookupResult& done = lookups.results[next];
      auto& fifo = awaiting[done.packet.vnid];
      VR_REQUIRE(!fifo.empty(), "lookup completed with no awaiting packet");
      const ParsedPacket parsed = fifo.front();
      fifo.pop_front();
      VR_REQUIRE(parsed.header.destination == done.packet.addr,
                 "per-VN completion order violated");
      if (const auto forwarded = editor.edit(parsed, done.next_hop)) {
        ++activity.editor_rewrites[forwarded->vnid];
        ++activity.crossbar_traversals[forwarded->vnid];
        if (scheduler.enqueue(*forwarded, cycle)) {
          ++activity.buffer_writes[forwarded->vnid];
        }
      }
    }

    // Egress transmission (each transmit reads its queue once).
    const std::size_t egress_before = result.egress.size();
    scheduler.tick(cycle, &result.egress);
    for (std::size_t i = egress_before; i < result.egress.size(); ++i) {
      ++activity.buffer_reads[result.egress[i].vnid];
    }
  }

  result.parser = parser.stats();
  result.editor = editor.stats();
  result.scheduler = scheduler.stats();
  result.cycles = cycle;
  activity.cycles = cycle;
  activity.arbiter_decisions = result.scheduler.arbiter_grants_per_vn;
  power::ActivityCounters lookup_activity = lookup.activity();
  activity.stage_busy = std::move(lookup_activity.stage_busy);
  activity.stage_reads = std::move(lookup_activity.stage_reads);
  result.activity = std::move(activity);
  result.queue_depths = scheduler.queue_depth_histogram();
  result.egress_wait = scheduler.egress_wait_histogram();
  publish_run_metrics(result);
  return result;
}

}  // namespace vr::dataplane
