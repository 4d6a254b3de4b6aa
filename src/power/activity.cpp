#include "power/activity.hpp"

#include "common/error.hpp"

namespace vr::power {

ActivityCounters::ActivityCounters(std::size_t vn_count,
                                   std::size_t stage_count)
    : parser_headers(vn_count, 0),
      buffer_writes(vn_count, 0),
      buffer_reads(vn_count, 0),
      crossbar_traversals(vn_count, 0),
      arbiter_decisions(vn_count, 0),
      editor_rewrites(vn_count, 0),
      stage_busy(vn_count * stage_count, 0),
      stage_reads(vn_count * stage_count, 0) {
  VR_REQUIRE(vn_count >= 1, "activity counters need at least one VN");
  VR_REQUIRE(stage_count >= 1, "activity counters need at least one stage");
}

double ActivityCounters::utilization(std::size_t vn) const noexcept {
  const std::size_t stages = stage_count();
  if (cycles == 0 || stages == 0) return 0.0;
  std::uint64_t busy_cycles = 0;
  for (std::size_t s = 0; s < stages; ++s) {
    busy_cycles += stage_busy[vn * stages + s];
  }
  return static_cast<double>(busy_cycles) /
         (static_cast<double>(stages) * static_cast<double>(cycles));
}

std::vector<double> ActivityCounters::utilization() const {
  std::vector<double> mu(vn_count());
  for (std::size_t v = 0; v < mu.size(); ++v) mu[v] = utilization(v);
  return mu;
}

std::uint64_t ActivityCounters::total(
    const std::vector<std::uint64_t>& per_vn) noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t v : per_vn) sum += v;
  return sum;
}

}  // namespace vr::power
