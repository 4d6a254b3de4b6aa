#include "fpga/bram.hpp"

#include <algorithm>

#include "common/bitops.hpp"

namespace vr::fpga {

const char* to_string(BramPolicy policy) noexcept {
  switch (policy) {
    case BramPolicy::k18Only:
      return "18Kb-only";
    case BramPolicy::k36Only:
      return "36Kb-only";
    case BramPolicy::kMixed:
      return "mixed";
  }
  return "?";
}

BramAllocation allocate_bram(std::uint64_t bits, BramPolicy policy) noexcept {
  BramAllocation alloc;
  if (bits == 0) return alloc;
  const std::uint64_t cap18 = bram_capacity_bits(BramKind::k18);
  const std::uint64_t cap36 = bram_capacity_bits(BramKind::k36);
  switch (policy) {
    case BramPolicy::k18Only:
      alloc.blocks18 = ceil_div(bits, cap18);
      break;
    case BramPolicy::k36Only:
      alloc.blocks36 = ceil_div(bits, cap36);
      break;
    case BramPolicy::kMixed: {
      alloc.blocks36 = bits / cap36;
      const std::uint64_t rest = bits - alloc.blocks36 * cap36;
      if (rest == 0) break;
      if (rest <= cap18) {
        alloc.blocks18 = 1;
      } else {
        ++alloc.blocks36;
      }
      break;
    }
  }
  return alloc;
}

StageBramPlan plan_stage_bram(const std::vector<std::uint64_t>& stage_bits,
                              BramPolicy policy) {
  StageBramPlan plan;
  plan.per_stage.reserve(stage_bits.size());
  for (const std::uint64_t bits : stage_bits) {
    const BramAllocation alloc = allocate_bram(bits, policy);
    plan.total += alloc;
    plan.max_stage_blocks36eq =
        std::max(plan.max_stage_blocks36eq, alloc.blocks36_equivalent());
    plan.per_stage.push_back(alloc);
  }
  return plan;
}

std::uint64_t device_bram_halves(const DeviceSpec& spec) noexcept {
  return spec.bram_bits / bram_capacity_bits(BramKind::k18);
}

}  // namespace vr::fpga
