#include <algorithm>
#include <cmath>

#include "workloads.hpp"

namespace vrbench {

std::size_t count_next_hop_mismatches(
    std::span<const vr::net::NextHop> got,
    std::span<const vr::net::NextHop> expected) {
  if (got.size() != expected.size()) {
    return std::max(got.size(), expected.size());
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != expected[i]) ++mismatches;
  }
  return mismatches;
}

bool watts_valid(const vr::power::ActivityPower& power) {
  const auto ok = [](vr::units::Watts w) {
    return std::isfinite(w.value()) && w.value() >= 0.0;
  };
  for (const auto w : power.per_vn_w) {
    if (!ok(w)) return false;
  }
  for (const auto w : power.per_vn_overhead_w) {
    if (!ok(w)) return false;
  }
  return ok(power.logic_w) && ok(power.memory_w) && ok(power.memory_gated_w) &&
         ok(power.parser_w) && ok(power.buffer_w) && ok(power.crossbar_w) &&
         ok(power.arbiter_w) && ok(power.editor_w) &&
         power.dynamic_w().value() > 0.0;
}

}  // namespace vrbench
