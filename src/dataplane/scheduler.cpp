#include "dataplane/scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace vr::dataplane {

/// DRR quantum per VN per round, bytes, before the VN's weight.
constexpr double kBaseQuantumBytes = 1500.0;

DrrScheduler::DrrScheduler(SchedulerConfig config)
    : config_(std::move(config)) {
  VR_REQUIRE(config_.port_count >= 1, "need at least one port");
  VR_REQUIRE(config_.vn_count >= 1, "need at least one VN");
  // tick() reports VN and port indices as 16-bit VnId and NextHop.
  VR_REQUIRE(config_.port_count <= 0xffffu,
             "port count exceeds the next-hop width");
  VR_REQUIRE(config_.vn_count <= 0xffffu, "VN count exceeds the VNID width");
  VR_REQUIRE(config_.queue_capacity >= 1, "queues need capacity");
  VR_REQUIRE(config_.bytes_per_cycle > 0.0, "link rate must be positive");
  if (!config_.vn_weights.empty()) {
    VR_REQUIRE(config_.vn_weights.size() == config_.vn_count,
               "vn_weights size must equal vn_count");
    for (const double w : config_.vn_weights) {
      VR_REQUIRE(w > 0.0, "DRR weights must be positive");
    }
  }
  ports_.resize(config_.port_count);
  for (PortState& port : ports_) {
    port.queues.resize(config_.vn_count);
    port.deficit.assign(config_.vn_count, 0.0);
  }
  // Every port starts with no credit, below the cap.
  active_ports_.resize(config_.port_count);
  std::iota(active_ports_.begin(), active_ports_.end(), std::size_t{0});
  stats_.bytes_per_vn.assign(config_.vn_count, 0);
  stats_.tail_drops_per_vn.assign(config_.vn_count, 0);
  stats_.arbiter_grants_per_vn.assign(config_.vn_count, 0);
}

double min_service_bytes_per_cycle(const SchedulerConfig& config) {
  const double weight =
      config.vn_weights.empty()
          ? 1.0
          : *std::min_element(config.vn_weights.begin(),
                              config.vn_weights.end());
  return std::min(config.bytes_per_cycle, kBaseQuantumBytes * weight);
}

double DrrScheduler::quantum_for(net::VnId vn) const {
  const double weight =
      config_.vn_weights.empty() ? 1.0 : config_.vn_weights[vn];
  return kBaseQuantumBytes * weight;
}

bool DrrScheduler::enqueue(const ForwardedPacket& packet,
                           std::uint64_t cycle) {
  VR_REQUIRE(packet.vnid < config_.vn_count, "VNID out of range");
  // An out-of-range port is a wiring bug (the lookup tables name more next
  // hops than the scheduler has ports). Silently folding it with
  // `% port_count` used to credit the traffic — and its DRR share — to an
  // unrelated port, which no per-port statistic could ever surface.
  VR_REQUIRE(packet.port < config_.port_count, "egress port out of range");
  PortState& port = ports_[packet.port];
  auto& queue = port.queues[packet.vnid];
  if (queue.size() >= config_.queue_capacity) {
    ++stats_.tail_drops;
    ++stats_.tail_drops_per_vn[packet.vnid];
    ++stats_.rejected;
    return false;
  }
  queue.push_back(QueuedPacket{
      // narrow-ok: total_bytes = 20-byte header + uint16 payload < 2^17
      cycle, packet.vnid, static_cast<std::uint32_t>(packet.total_bytes())});
  ++port.queued;
  const auto slot = std::lower_bound(active_ports_.begin(),
                                     active_ports_.end(), packet.port);
  if (slot == active_ports_.end() || *slot != packet.port) {
    active_ports_.insert(slot, packet.port);
  }
  ++stats_.enqueued;
  queue_depth_hist_.observe(static_cast<double>(queue.size()));
  return true;
}

void DrrScheduler::tick(std::uint64_t cycle, std::vector<EgressRecord>* out) {
  VR_REQUIRE(out != nullptr, "tick needs an output sink");
  // Cap the idle credit so a long-idle port cannot burst unboundedly —
  // but never below one MTU. While a packet waits at the DRR cursor the
  // cap grows to its size, so the cap limits only an idle port's burst
  // and a packet of any size leaves once the link has carried it.
  constexpr double kMtuBytes = 1600.0;
  const double credit_cap =
      std::max(kMtuBytes, 4.0 * config_.bytes_per_cycle);
  // A port with nothing queued only gains credit: its cursor, (zero)
  // deficits and round state stay as they were. Once idle at the credit
  // cap it changes no state at all, so tick() visits only the active
  // ports.
  std::size_t still_active = 0;
  for (std::size_t i = 0; i < active_ports_.size(); ++i) {
    const std::size_t port_index = active_ports_[i];
    PortState& port = ports_[port_index];
    port.byte_credit += config_.bytes_per_cycle;
    if (port.queued != 0) serve(port, port_index, cycle, out);
    const auto& head = port.queues[port.round_robin_cursor];
    const double cap =
        head.empty() ? credit_cap
                     : std::max(credit_cap,
                                static_cast<double>(head.front().bytes));
    port.byte_credit = std::min(port.byte_credit, cap);
    if (port.queued != 0 || port.byte_credit < credit_cap) {
      active_ports_[still_active++] = port_index;
    }
  }
  active_ports_.resize(still_active);
}

void DrrScheduler::serve(PortState& port, std::size_t port_index,
                         std::uint64_t cycle, std::vector<EgressRecord>* out) {
  const auto advance_cursor = [&port, this] {
    port.quantum_added = false;
    if (++port.round_robin_cursor == config_.vn_count) {
      port.round_robin_cursor = 0;
    }
  };
  // DRR: the cursor parks on one queue per service round; the round
  // (quantum) may span many cycles when the link is slower than a
  // packet, which is what makes DRR byte-fair rather than packet-fair.
  std::size_t visited = 0;
  while (port.byte_credit >= 1.0 && visited < config_.vn_count) {
    const std::size_t vn = port.round_robin_cursor;
    auto& queue = port.queues[vn];
    if (queue.empty()) {
      port.deficit[vn] = 0.0;  // idle queues accumulate nothing
      advance_cursor();
      ++visited;
      continue;
    }
    if (!port.quantum_added) {
      // narrow-ok: vn < vn_count <= 0xffff, required by the constructor
      port.deficit[vn] += quantum_for(static_cast<net::VnId>(vn));
      port.quantum_added = true;
      ++stats_.arbiter_grants_per_vn[vn];
    }
    while (!queue.empty() &&
           port.deficit[vn] >= static_cast<double>(queue.front().bytes) &&
           port.byte_credit >= static_cast<double>(queue.front().bytes)) {
      const QueuedPacket packet = queue.front();
      queue.pop_front();
      --port.queued;
      port.deficit[vn] -= packet.bytes;
      port.byte_credit -= packet.bytes;
      ++stats_.transmitted;
      stats_.bytes_per_vn[packet.vnid] += packet.bytes;
      egress_wait_hist_.observe(
          static_cast<double>(cycle - packet.enqueue_cycle));
      out->push_back(EgressRecord{
          // narrow-ok: port_index < port_count <= 0xffff, required by
          // the constructor
          cycle, packet.vnid, static_cast<net::NextHop>(port_index),
          packet.bytes, cycle - packet.enqueue_cycle});
    }
    if (queue.empty() ||
        port.deficit[vn] < static_cast<double>(queue.front().bytes)) {
      // This queue's round is over: move on.
      if (queue.empty()) port.deficit[vn] = 0.0;
      advance_cursor();
      ++visited;
    } else {
      // Link credit exhausted mid-round: resume the SAME queue next
      // cycle so large packets accumulate the credit they need.
      break;
    }
  }
}

bool DrrScheduler::empty() const {
  // A queued packet leaves only by transmission.
  return stats_.transmitted == stats_.enqueued;
}

std::size_t DrrScheduler::queue_depth(std::size_t port, net::VnId vn) const {
  VR_REQUIRE(port < ports_.size(), "port out of range");
  VR_REQUIRE(vn < config_.vn_count, "VN out of range");
  return ports_[port].queues[vn].size();
}

}  // namespace vr::dataplane
