// MUST COMPILE: the legal subset of the quantity algebra, exercised the
// same way the fail_*.cpp cases exercise the illegal one. If this file
// ever stops compiling the fail cases prove nothing.
#include "common/units.hpp"
#include "fpga/thermal.hpp"
#include "fpga/xpe_tables.hpp"
#include "power/analytical_model.hpp"

int main() {
  using namespace vr::units;
  const Watts w = to_watts(Milliwatts{1500.0});
  const Watts doubled = w + w;
  const Microwatts from_coeff = PjPerCycle{2.5} * Megahertz{400.0};
  const Gbps gbps = lookup_throughput(Megahertz{400.0}, kMinPacketBytes);
  const MwPerGbps eff = to_milliwatts(doubled) / gbps;
  const double ratio = doubled / w;  // same-unit ratio is dimensionless

  // The typed fpga/power surface, called the way the fail cases misuse it.
  const Watts bram = vr::fpga::XpeTables::bram_power_w(
      vr::fpga::BramKind::k36, vr::fpga::SpeedGrade::kMinus2, 1,
      Megahertz{400.0});
  const Microwatts coeff_product =
      vr::fpga::XpeTables::bram_uw_per_mhz(vr::fpga::BramKind::k18,
                                           vr::fpga::SpeedGrade::kMinus2) *
      Megahertz{400.0};
  vr::power::OperatingPoint op;
  op.freq_mhz = Megahertz{300.0};
  const auto point = vr::fpga::solve_thermal(Watts{4.5}, Watts{0.25});
  const Nanoseconds cycle = period(Megahertz{250.0});

  const double sum = eff.value() + from_coeff.value() + ratio + bram.value() +
                     coeff_product.value() + op.freq_mhz.value() +
                     cycle.value() + (point.within_limits ? 1.0 : 0.0);
  return static_cast<int>(sum) > 1'000'000 ? 1 : 0;
}
