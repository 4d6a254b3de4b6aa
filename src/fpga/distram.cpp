#include "fpga/distram.hpp"

#include "common/bitops.hpp"
#include "common/units.hpp"

namespace vr::fpga {

// Calibration of the distributed-RAM power model:
//   P(M) = (base + per_kbit * M/1Kb) * f   [µW, f in MHz]
// With these values, distRAM beats one 18 Kb BRAM block below ~11 Kbit
// and loses beyond it — the crossover that makes hybrid mapping useful.
/// Addressing/control overhead, µW per MHz.
constexpr double kBaseUwPerMhz = 0.4;
/// Per-Kbit read power, µW per MHz per Kbit (a compound coefficient the
/// quantity system does not model; the formula above fixes its meaning).
constexpr double kPerKbitUwPerMhz = 1.2;
constexpr unsigned kBitsPerLut = 64;  ///< Virtex-6 LUT-RAM capacity

units::Watts distram_power_w(std::uint64_t bits, units::Megahertz freq_mhz) {
  if (bits == 0) return units::Watts{0.0};
  const double kbits = static_cast<double>(bits) / 1024.0;
  return units::Watts{units::uw_to_w(
      (kBaseUwPerMhz + kPerKbitUwPerMhz * kbits) * freq_mhz.value())};
}

std::uint64_t distram_luts(std::uint64_t bits) {
  return ceil_div(bits, kBitsPerLut);
}

StageMemoryChoice choose_stage_memory(std::uint64_t bits, SpeedGrade grade,
                                      units::Megahertz freq_mhz,
                                      BramPolicy bram_policy) {
  StageMemoryChoice choice;
  if (bits == 0) return choice;
  const BramAllocation bram = allocate_bram(bits, bram_policy);
  const units::Watts bram_w = bram.power_w(grade, freq_mhz);
  const units::Watts dist_w = distram_power_w(bits, freq_mhz);
  if (dist_w < bram_w) {
    choice.tech = MemoryTech::kDistRam;
    choice.power_w = dist_w;
    choice.luts = distram_luts(bits);
  } else {
    choice.tech = MemoryTech::kBram;
    choice.power_w = bram_w;
    choice.bram_halves = bram.halves();
  }
  return choice;
}

std::uint64_t distram_crossover_bits(SpeedGrade grade,
                                     BramPolicy bram_policy) {
  // Both technologies scale linearly with f: compare at 1 MHz and walk up
  // in LUT-RAM granules until BRAM wins.
  std::uint64_t last_dist_win = 0;
  for (std::uint64_t bits = kBitsPerLut; bits <= 64 * 1024;
       bits += kBitsPerLut) {
    const StageMemoryChoice choice = choose_stage_memory(
        bits, grade, units::Megahertz{1.0}, bram_policy);
    if (choice.tech == MemoryTech::kDistRam) last_dist_win = bits;
  }
  return last_dist_win;
}

}  // namespace vr::fpga
