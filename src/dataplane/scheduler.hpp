// Output scheduling stage with per-virtual-network QoS isolation.
//
// Router virtualization "must be transparent to the user ... ensuring the
// throughput and latency requirements guaranteed originally" (paper
// Sec. I). This stage realizes that guarantee at the egress: every output
// port runs Deficit Round Robin (DRR) across per-VN queues with
// configurable weights, so one tenant's burst cannot starve another's
// share of the link.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "dataplane/editor.hpp"
#include "obs/metrics.hpp"

namespace vr::dataplane {

struct SchedulerConfig {
  std::size_t port_count = 16;
  std::size_t vn_count = 1;
  /// DRR quantum per VN per round, bytes. Per-VN weights scale the
  /// quantum; empty = equal weights.
  std::uint32_t base_quantum_bytes = 1500;
  std::vector<double> vn_weights;
  /// Per-(port, VN) queue capacity in packets; arrivals beyond it tail-drop.
  std::size_t queue_capacity = 64;
  /// Link rate in bytes per cycle per port (40 B/cycle = the minimum-size
  /// packet line rate the paper's throughput metric assumes).
  double bytes_per_cycle = 40.0;
};

/// One transmitted packet.
struct EgressRecord {
  std::uint64_t cycle = 0;
  net::VnId vnid = 0;
  net::NextHop port = 0;
  std::uint32_t bytes = 0;
  std::uint64_t queueing_cycles = 0;
};

struct SchedulerStats {
  std::uint64_t enqueued = 0;
  std::uint64_t transmitted = 0;
  std::uint64_t tail_drops = 0;
  /// Packets enqueue() refused for any reason. Today every refusal is a
  /// tail drop (out-of-range ports and VNIDs abort via VR_REQUIRE instead
  /// of being silently remapped); future non-fatal admission checks count
  /// here too, so "refused" has one total regardless of cause.
  std::uint64_t rejected = 0;
  std::vector<std::uint64_t> bytes_per_vn;  ///< transmitted bytes by VN
  /// Tail drops resolved by VN — the backpressure each tenant felt.
  std::vector<std::uint64_t> tail_drops_per_vn;
  /// DRR grant decisions (a quantum awarded to a VN's queue) by VN; the
  /// arbiter events the activity power model charges.
  std::vector<std::uint64_t> arbiter_grants_per_vn;
};

class DrrScheduler {
 public:
  explicit DrrScheduler(SchedulerConfig config);

  /// Queues a forwarded packet at `cycle`. Returns false on tail drop.
  bool enqueue(const ForwardedPacket& packet, std::uint64_t cycle);

  /// Advances one cycle: each port transmits up to its byte budget,
  /// serving VN queues in DRR order. Appends egress records.
  void tick(std::uint64_t cycle, std::vector<EgressRecord>* out);

  [[nodiscard]] bool empty() const;
  [[nodiscard]] const SchedulerStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return config_;
  }
  /// Current depth of the (port, vn) queue.
  [[nodiscard]] std::size_t queue_depth(std::size_t port,
                                        net::VnId vn) const;

  /// Distribution of per-queue depth, sampled after every accepted
  /// enqueue (packets, not bytes).
  [[nodiscard]] obs::HistogramSnapshot queue_depth_histogram() const {
    return queue_depth_hist_.snapshot();
  }
  /// Distribution of egress queueing delay (cycles from enqueue to
  /// transmit), one sample per transmitted packet.
  [[nodiscard]] obs::HistogramSnapshot egress_wait_histogram() const {
    return egress_wait_hist_.snapshot();
  }

 private:
  struct QueuedPacket {
    std::uint64_t enqueue_cycle = 0;
    net::VnId vnid = 0;
    std::uint32_t bytes = 0;
  };
  struct PortState {
    std::vector<std::deque<QueuedPacket>> queues;  ///< one per VN
    std::vector<double> deficit;
    std::size_t round_robin_cursor = 0;
    /// Whether the cursor's queue already received its quantum for the
    /// current service round (service may span cycles when the link is
    /// slower than a packet).
    bool quantum_added = false;
    double byte_credit = 0.0;
    /// Packets across this port's VN queues. At zero every deficit is
    /// zero and no round is open, so tick() need not walk the queues.
    std::size_t queued = 0;
  };

  [[nodiscard]] double quantum_for(net::VnId vn) const;
  /// Runs one cycle of DRR service on a port with packets queued.
  void serve(PortState& port, std::size_t port_index, std::uint64_t cycle,
             std::vector<EgressRecord>* out);

  SchedulerConfig config_;
  std::vector<PortState> ports_;
  /// The ports tick() visits: packets queued, or link credit below the
  /// cap. Ascending, so egress records keep their port order.
  std::vector<std::size_t> active_ports_;
  SchedulerStats stats_;
  obs::Histogram queue_depth_hist_;
  obs::Histogram egress_wait_hist_;
};

}  // namespace vr::dataplane
