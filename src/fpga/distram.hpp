// Distributed (LUT) RAM model — the alternative on-chip memory the paper
// sets aside ("for simplicity, we assume only BRAM is used", Sec. V-B).
// Virtex-6 6-input LUTs configure as 64-bit RAMs; distributed RAM has no
// block-granularity floor, so it beats BRAM for the tiny memories of the
// top trie levels, while its per-bit dynamic cost overtakes BRAM's
// block-amortized cost for large stages. The `ablation_memory_tech` bench
// quantifies how much the paper's simplification leaves on the table.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "fpga/bram.hpp"
#include "fpga/device.hpp"

namespace vr::fpga {

/// Dynamic power of an `bits`-bit distributed RAM at `freq_mhz`.
[[nodiscard]] units::Watts distram_power_w(std::uint64_t bits,
                                           units::Megahertz freq_mhz);

/// LUTs consumed by an `bits`-bit distributed RAM.
[[nodiscard]] std::uint64_t distram_luts(std::uint64_t bits);

/// Memory technology choice per pipeline stage.
enum class MemoryTech {
  kBram,     ///< the paper's assumption: block RAM regardless of size
  kDistRam,  ///< LUT RAM
};

/// One stage's memory decision under the hybrid policy.
struct StageMemoryChoice {
  MemoryTech tech = MemoryTech::kBram;
  units::Watts power_w;
  std::uint64_t luts = 0;
  std::uint64_t bram_halves = 0;
};

/// Picks the cheaper technology for one stage at the operating point.
[[nodiscard]] StageMemoryChoice choose_stage_memory(
    std::uint64_t bits, SpeedGrade grade, units::Megahertz freq_mhz,
    BramPolicy bram_policy = BramPolicy::kMixed);

/// Bit-size below which distRAM wins at any frequency (the technologies'
/// power ratio is frequency-independent since both are linear in f).
[[nodiscard]] std::uint64_t distram_crossover_bits(
    SpeedGrade grade, BramPolicy bram_policy = BramPolicy::kMixed);

}  // namespace vr::fpga
