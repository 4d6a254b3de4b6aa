#include "placement/controller.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace vr::placement {

namespace {

/// Bucket edges of the per-device watts histogram. Explicit bounds (not
/// the base-2 default): device watts cluster in [2, 60] W and base-2
/// buckets would collapse the whole fleet into three bins.
const std::vector<double>& device_watts_bounds() {
  static const std::vector<double> bounds = {2.0,  4.0,  6.0,  8.0,
                                             10.0, 12.0, 15.0, 20.0,
                                             25.0, 30.0, 40.0, 60.0};
  return bounds;
}

}  // namespace

PlacementController::PlacementController(CostOracle* oracle,
                                         ControllerConfig config,
                                         obs::Registry* registry)
    : oracle_(oracle),
      config_(config),
      policy_(make_policy(config.policy)),
      fleet_(config.fleet_size),
      device_w_(config.fleet_size, 0.0) {
  VR_REQUIRE(oracle_ != nullptr, "placement controller needs a cost oracle");
  if (registry != nullptr) {
    requests_ = &registry->counter("placement.requests");
    accepted_ = &registry->counter("placement.accepted");
    rejected_ = &registry->counter("placement.rejected");
    infeasible_ = &registry->counter("placement.infeasible");
    departures_count_ = &registry->counter("placement.departures");
    migrations_ = &registry->counter("placement.migrations");
    devices_active_ = &registry->gauge("placement.devices_active");
    fleet_mw_ = &registry->gauge("placement.fleet_mw");
    device_w_hist_ =
        &registry->histogram("placement.device_w", device_watts_bounds());
  }
}

void PlacementController::apply_place(std::size_t device, const PlacedVn& vn,
                                      DeviceMode mode) {
  fleet_.place(device, vn, mode);
  const double new_w = oracle_->watts(fleet_.shape_of(device));
  fleet_w_ += new_w - device_w_[device];
  device_w_[device] = new_w;
  if (device_w_hist_ != nullptr) device_w_hist_->observe(new_w);
}

PlacedVn PlacementController::apply_remove(std::uint64_t request_id) {
  const Fleet::Removed removed = fleet_.remove(request_id);
  const DeviceShape shape = fleet_.shape_of(removed.device);
  const double new_w = shape.idle() ? 0.0 : oracle_->watts(shape);
  fleet_w_ += new_w - device_w_[removed.device];
  device_w_[removed.device] = new_w;
  return removed.vn;
}

void PlacementController::integrate_to(std::uint64_t tick,
                                       ControllerResult* result) {
  if (tick <= last_tick_) return;
  result->watt_ticks +=
      fleet_w_ * static_cast<double>(tick - last_tick_);
  last_tick_ = tick;
}

void PlacementController::handle_departures_until(std::uint64_t tick,
                                                  ControllerResult* result) {
  while (!departures_.empty() && departures_.begin()->first <= tick) {
    const auto [departure_tick, request_id] = *departures_.begin();
    departures_.erase(departures_.begin());
    if (!fleet_.contains(request_id)) continue;
    integrate_to(departure_tick, result);
    const std::size_t device = fleet_.device_of(request_id);
    apply_remove(request_id);
    ++result->departures;
    if (departures_count_ != nullptr) departures_count_->add(1);
    if (config_.consolidate) try_consolidate(device, result);
  }
}

void PlacementController::try_consolidate(std::size_t device,
                                          ControllerResult* result) {
  // Only lone survivors are re-homed: their device runs a whole static
  // power budget for one tenant, and moving a single VN is the cheapest
  // migration the dataplane can absorb.
  const DeviceState& state = fleet_.device(device);
  if (state.vns.size() != 1) return;
  const PlacedVn vn = state.vns.begin()->second;
  const Decision decision = policy_->decide(fleet_, *oracle_, vn, device);
  if (!decision.accept || decision.device == device) return;
  const double before_target_w = device_w_[decision.device];
  const DeviceShape target_after =
      fleet_.shape_with(decision.device, vn, decision.mode);
  const double added_w = oracle_->watts(target_after) - before_target_w;
  // Migrate only when emptying the source device is a net win.
  if (added_w >= device_w_[device]) return;
  apply_remove(vn.request_id);
  apply_place(decision.device, vn, decision.mode);
  ++result->migrations;
  if (migrations_ != nullptr) migrations_->add(1);
}

void PlacementController::handle_arrival(const VnRequest& request,
                                         ControllerResult* result) {
  ++result->requests;
  if (requests_ != nullptr) requests_->add(1);

  PlacedVn vn;
  vn.request_id = request.id;
  vn.bucket = oracle_->bucket_for(request.prefix_count);
  vn.mu_q = request.mu_q;
  vn.sla = request.sla;
  vn.departure_tick = request.departure_tick;

  const Decision decision = policy_->decide(fleet_, *oracle_, vn);
  if (config_.keep_trace) {
    result->trace.push_back({request.id, decision.accept, decision.device,
                             decision.mode});
  }
  if (!decision.accept) {
    ++result->rejected;
    if (rejected_ != nullptr) rejected_->add(1);
    if (!decision.feasible_exists) {
      ++result->infeasible;
      if (infeasible_ != nullptr) infeasible_->add(1);
    }
    return;
  }
  apply_place(decision.device, vn, decision.mode);
  ++result->accepted;
  if (accepted_ != nullptr) accepted_->add(1);
  if (vn.departure_tick > 0) {
    departures_.emplace(vn.departure_tick, vn.request_id);
  }
  result->peak_devices_active =
      std::max(result->peak_devices_active, fleet_.active_devices());
}

ControllerResult PlacementController::run(RequestStream& stream,
                                          std::uint64_t count) {
  ControllerResult result;
  for (std::uint64_t i = 0; i < count; ++i) {
    const VnRequest request = stream.next();
    handle_departures_until(request.arrival_tick, &result);
    integrate_to(request.arrival_tick, &result);
    handle_arrival(request, &result);
  }
  // Close the integration window one tick past the final arrival so the
  // last placement contributes energy.
  integrate_to(last_tick_ + 1, &result);
  result.devices_active = fleet_.active_devices();
  result.fleet_w = fleet_w_;
  publish_gauges(result);
  return result;
}

ControllerResult PlacementController::run(
    const std::vector<VnRequest>& requests) {
  ControllerResult result;
  for (const VnRequest& request : requests) {
    handle_departures_until(request.arrival_tick, &result);
    integrate_to(request.arrival_tick, &result);
    handle_arrival(request, &result);
  }
  integrate_to(last_tick_ + 1, &result);
  result.devices_active = fleet_.active_devices();
  result.fleet_w = fleet_w_;
  publish_gauges(result);
  return result;
}

void PlacementController::publish_gauges(const ControllerResult& result) {
  if (devices_active_ != nullptr) {
    devices_active_->set(static_cast<std::int64_t>(result.devices_active));
  }
  if (fleet_mw_ != nullptr) {
    fleet_mw_->set(std::llround(result.fleet_w * 1000.0));
  }
}

double PlacementController::recomputed_fleet_w() {
  double total_w = 0.0;
  for (const auto& [shape, devices] : fleet_.groups()) {
    total_w += oracle_->watts(shape) * static_cast<double>(devices.size());
  }
  return total_w;
}

}  // namespace vr::placement
