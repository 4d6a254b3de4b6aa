// PlacementController — the online admission-and-placement loop. Consumes
// a VnRequest stream in arrival order; at each tick it retires VNs whose
// departure time passed, asks the configured policy where the arrival
// goes, places it (or rejects), and optionally consolidates: when a
// departure strands a lone VN on an otherwise-empty device, the controller
// asks the policy to re-home it and migrates if that empties a device for
// less marginal power than it saves.
//
// Accounting: fleet watts are tracked incrementally (Δ of the touched
// device per mutation, via the oracle) and integrated over ticks into
// watt-ticks — the energy proxy the competitive-ratio experiments compare
// against the offline bound. Every counter is mirrored into obs metrics
// under "placement.*" when a registry is supplied.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "obs/registry.hpp"
#include "placement/policy.hpp"
#include "placement/request.hpp"

namespace vr::placement {

struct ControllerConfig {
  PolicyKind policy = PolicyKind::kBestFitWatts;
  std::size_t fleet_size = 100;
  /// Re-home lone VNs stranded by departures when it saves power.
  bool consolidate = true;
  /// Record a PlacementRecord per request (tests; off for benches).
  bool keep_trace = false;
};

/// The controller's verdict on one request (trace entry).
struct PlacementRecord {
  std::uint64_t request_id = 0;
  bool accepted = false;
  std::size_t device = 0;
  DeviceMode mode = DeviceMode::kDedicated;
};

struct ControllerResult {
  std::uint64_t requests = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  /// Subset of `rejected` where no feasible device existed at all (the
  /// rest are the admission policy declining on cost grounds).
  std::uint64_t infeasible = 0;
  std::uint64_t departures = 0;
  std::uint64_t migrations = 0;
  std::size_t devices_active = 0;       ///< at end of run
  std::size_t peak_devices_active = 0;  ///< high-water mark
  double fleet_w = 0.0;                 ///< at end of run
  // units-ok: watt-ticks is the run's energy proxy (W × request tick);
  // there is no canonical suffix for the composite unit.
  double watt_ticks = 0.0;
  std::vector<PlacementRecord> trace;  ///< filled when keep_trace
};

class PlacementController {
 public:
  /// `oracle` outlives the controller and is shared with the offline
  /// bound so both price shapes identically. `registry` may be null.
  PlacementController(CostOracle* oracle, ControllerConfig config,
                      obs::Registry* registry = nullptr);

  /// Pulls `count` requests from the stream and runs them to completion.
  [[nodiscard]] ControllerResult run(RequestStream& stream,
                                     std::uint64_t count);
  /// Runs a pre-materialized request list (must be in arrival order).
  [[nodiscard]] ControllerResult run(const std::vector<VnRequest>& requests);

  [[nodiscard]] const Fleet& fleet() const noexcept { return fleet_; }

  /// Fleet watts recomputed from scratch over the group index; the
  /// invariant tests compare this against the incremental tracker.
  [[nodiscard]] double recomputed_fleet_w();

 private:
  void handle_departures_until(std::uint64_t tick, ControllerResult* result);
  void handle_arrival(const VnRequest& request, ControllerResult* result);
  void try_consolidate(std::size_t device, ControllerResult* result);
  void apply_place(std::size_t device, const PlacedVn& vn, DeviceMode mode);
  PlacedVn apply_remove(std::uint64_t request_id);
  void integrate_to(std::uint64_t tick, ControllerResult* result);
  void publish_gauges(const ControllerResult& result);

  CostOracle* oracle_;
  ControllerConfig config_;
  std::unique_ptr<PlacementPolicy> policy_;
  Fleet fleet_;
  /// Watts of each device in its current shape (0 when idle).
  std::vector<double> device_w_;
  double fleet_w_ = 0.0;
  std::uint64_t last_tick_ = 0;
  /// Pending departures: tick -> request ids departing at that tick.
  std::multimap<std::uint64_t, std::uint64_t> departures_;

  obs::Counter* requests_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* infeasible_ = nullptr;
  obs::Counter* departures_count_ = nullptr;
  obs::Counter* migrations_ = nullptr;
  obs::Gauge* devices_active_ = nullptr;
  obs::Gauge* fleet_mw_ = nullptr;
  obs::Histogram* device_w_hist_ = nullptr;
};

}  // namespace vr::placement
