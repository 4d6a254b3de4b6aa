#include "placement/fleet.hpp"

#include "common/error.hpp"

namespace vr::placement {

Fleet::Fleet(std::size_t device_count) : devices_(device_count) {
  VR_REQUIRE(device_count >= 1, "a fleet needs at least one device");
  for (std::size_t i = 0; i < device_count; ++i) idle_.insert(idle_.end(), i);
}

const DeviceState& Fleet::device(std::size_t index) const {
  VR_REQUIRE(index < devices_.size(), "device index out of range");
  return devices_[index];
}

DeviceShape Fleet::compute_shape(const DeviceState& state) {
  DeviceShape shape{.mode = state.mode};
  for (const auto& [id, vn] : state.vns) shape = add(shape, vn);
  return shape;
}

DeviceShape Fleet::shape_of(std::size_t index) const {
  return compute_shape(device(index));
}

DeviceShape Fleet::shape_with(std::size_t index, const PlacedVn& vn,
                              DeviceMode mode_if_idle) const {
  const DeviceState& state = device(index);
  return add(state.active() ? compute_shape(state)
                            : DeviceShape{.mode = mode_if_idle},
             vn);
}

void Fleet::place(std::size_t index, const PlacedVn& vn,
                  DeviceMode mode_if_idle) {
  VR_REQUIRE(index < devices_.size(), "device index out of range");
  VR_REQUIRE(locator_.find(vn.request_id) == locator_.end(),
             "request is already placed in the fleet");
  DeviceState& state = devices_[index];
  if (state.active()) {
    const auto group = groups_.find(compute_shape(state));
    VR_REQUIRE(group != groups_.end(), "fleet group index out of sync");
    group->second.erase(index);
    if (group->second.empty()) groups_.erase(group);
  } else {
    state.mode = mode_if_idle;
    idle_.erase(index);
  }
  state.vns.emplace(vn.request_id, vn);
  groups_[compute_shape(state)].insert(index);
  locator_.emplace(vn.request_id, index);
}

Fleet::Removed Fleet::remove(std::uint64_t request_id) {
  const auto loc = locator_.find(request_id);
  VR_REQUIRE(loc != locator_.end(), "request is not resident in the fleet");
  const std::size_t index = loc->second;
  DeviceState& state = devices_[index];
  const auto group = groups_.find(compute_shape(state));
  VR_REQUIRE(group != groups_.end(), "fleet group index out of sync");
  group->second.erase(index);
  if (group->second.empty()) groups_.erase(group);

  const auto it = state.vns.find(request_id);
  VR_REQUIRE(it != state.vns.end(), "fleet locator out of sync");
  Removed removed{index, it->second};
  state.vns.erase(it);
  locator_.erase(loc);
  if (state.active()) {
    groups_[compute_shape(state)].insert(index);
  } else {
    state.mode = DeviceMode::kDedicated;
    idle_.insert(index);
  }
  return removed;
}

std::size_t Fleet::device_of(std::uint64_t request_id) const {
  const auto loc = locator_.find(request_id);
  VR_REQUIRE(loc != locator_.end(), "request is not resident in the fleet");
  return loc->second;
}

std::vector<PlacedVn> Fleet::resident_vns() const {
  std::vector<PlacedVn> vns;
  vns.reserve(locator_.size());
  for (const auto& [id, index] : locator_) {
    vns.push_back(devices_[index].vns.at(id));
  }
  return vns;
}

}  // namespace vr::placement
