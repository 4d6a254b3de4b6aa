// Fleet — the mutable state of the simulated device pool. Devices are
// plain slots holding the VNs placed on them; the fleet maintains three
// indices the policies and the controller lean on:
//
//   * groups():  devices keyed by their DeviceShape. Policies scan shapes,
//     not devices, so a decision over a 10k-device fleet costs O(#distinct
//     shapes) — hundreds, not thousands — per request.
//   * idle_devices():  devices hosting nothing, candidates for opening.
//   * a request-id locator for O(log n) departures and migrations.
//
// All indices are std::map/std::set (deterministic iteration: the vrlint
// determinism gate and the bit-identical-replay test both depend on it).
// Every shape is built by one rule, add(): a device's shape is add()
// folded over its VNs from {mode}, recomputed on mutation — sums of
// quantized integers, so shapes can never drift from the truth. A group's
// key is therefore its members' shape, and add(key, vn) is the shape any
// member takes with `vn` placed: candidate enumeration pays one add() and
// one oracle probe per group and walks no device's VNs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "placement/oracle.hpp"

namespace vr::placement {

/// One VN resident on a device (the placed form of a VnRequest).
struct PlacedVn {
  std::uint64_t request_id = 0;
  std::uint32_t bucket = 0;  ///< oracle table-size bucket
  std::uint32_t mu_q = 0;    ///< load in 1/kMuQuantum units
  SlaClass sla = SlaClass::kBronze;
  std::uint64_t departure_tick = 0;
};

/// `shape` with `vn` added — the one rule every fleet shape is built by.
[[nodiscard]] constexpr DeviceShape add(DeviceShape shape,
                                       const PlacedVn& vn) noexcept {
  ++shape.vn_count;
  shape.max_bucket = std::max(shape.max_bucket, vn.bucket);
  shape.mu_total_q += vn.mu_q;
  shape.sla_floor = std::max(shape.sla_floor, vn.sla);
  return shape;
}

struct DeviceState {
  DeviceMode mode = DeviceMode::kDedicated;
  /// Hosted VNs keyed by request id (deterministic iteration).
  std::map<std::uint64_t, PlacedVn> vns;

  [[nodiscard]] bool active() const noexcept { return !vns.empty(); }
};

class Fleet {
 public:
  explicit Fleet(std::size_t device_count);

  [[nodiscard]] std::size_t size() const noexcept { return devices_.size(); }
  [[nodiscard]] std::size_t active_devices() const noexcept {
    return devices_.size() - idle_.size();
  }
  [[nodiscard]] const DeviceState& device(std::size_t index) const;

  /// The shape of a device right now (idle devices have vn_count == 0).
  [[nodiscard]] DeviceShape shape_of(std::size_t index) const;

  /// The shape the device would take if `vn` were added. Idle devices
  /// open in `mode_if_idle`; active devices keep their mode. Walks the
  /// device's VNs; candidate enumeration adds to the group key instead.
  [[nodiscard]] DeviceShape shape_with(std::size_t index, const PlacedVn& vn,
                                       DeviceMode mode_if_idle) const;

  /// Adds `vn` to the device (opening it in `mode_if_idle` when idle) and
  /// reindexes. The request id must not already be resident; feasibility
  /// is the caller's contract (the controller checks the oracle first).
  void place(std::size_t index, const PlacedVn& vn, DeviceMode mode_if_idle);

  /// Removes a VN by request id and returns (device index, the VN).
  struct Removed {
    std::size_t device = 0;
    PlacedVn vn;
  };
  Removed remove(std::uint64_t request_id);

  [[nodiscard]] bool contains(std::uint64_t request_id) const {
    return locator_.find(request_id) != locator_.end();
  }
  [[nodiscard]] std::size_t device_of(std::uint64_t request_id) const;

  /// Active devices grouped by shape; map order is the deterministic scan
  /// order of every policy.
  [[nodiscard]] const std::map<DeviceShape, std::set<std::size_t>>& groups()
      const noexcept {
    return groups_;
  }
  [[nodiscard]] const std::set<std::size_t>& idle_devices() const noexcept {
    return idle_;
  }

  /// All resident VNs in request-id order (input to the offline bound).
  [[nodiscard]] std::vector<PlacedVn> resident_vns() const;

 private:
  [[nodiscard]] static DeviceShape compute_shape(const DeviceState& state);

  std::vector<DeviceState> devices_;
  std::set<std::size_t> idle_;
  std::map<DeviceShape, std::set<std::size_t>> groups_;
  std::map<std::uint64_t, std::size_t> locator_;
};

}  // namespace vr::placement
