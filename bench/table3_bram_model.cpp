// Regenerates paper Table III: the BRAM power model, and cross-checks the
// closed form (⌈M/size⌉ · coeff · f) against the PnR simulator's
// block-level accounting for a sweep of memory sizes.
#include "bench_common.hpp"
#include "common/bitops.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "fpga/bram.hpp"
#include "fpga/xpe_tables.hpp"

int main(int argc, char** argv) {
  using namespace vr;
  using fpga::BramKind;
  using fpga::SpeedGrade;
  bench::parse_flags(argc, argv);

  TextTable table("Table III - BRAM power model (uW at f MHz)");
  table.set_header({"setup", "model", "coefficient uW/MHz"});
  const struct {
    BramKind kind;
    SpeedGrade grade;
  } rows[] = {{BramKind::k18, SpeedGrade::kMinus2},
              {BramKind::k36, SpeedGrade::kMinus2},
              {BramKind::k18, SpeedGrade::kMinus1L},
              {BramKind::k36, SpeedGrade::kMinus1L}};
  for (const auto& row : rows) {
    const double c =
        fpga::XpeTables::bram_uw_per_mhz(row.kind, row.grade).value();
    table.add_row({std::string(to_string(row.kind)) + " (" +
                       fpga::to_string(row.grade) + ")",
                   "ceil(M/" + std::string(to_string(row.kind)) + ") x " +
                       TextTable::num(c, 2) + " x f",
                   TextTable::num(c, 2)});
  }
  vr::bench::emit(table);

  // Cross-check: closed form vs block-level allocation power at 400 MHz.
  SeriesTable check("Closed form vs allocator (36Kb-only, -2, 400 MHz, W)",
                    "memory_kbits", {"closed form", "allocator"});
  for (std::uint64_t kbits = 9; kbits <= 720; kbits += 54) {
    const std::uint64_t bits = kbits * 1024;
    const double closed =
        units::uw_to_w(static_cast<double>(ceil_div(bits, 36 * 1024)) *
                       24.60 * 400.0);
    const auto alloc = fpga::allocate_bram(bits, fpga::BramPolicy::k36Only);
    const double from_alloc =
        alloc.power_w(SpeedGrade::kMinus2, units::Megahertz{400.0}).value();
    check.add_point(static_cast<double>(kbits), {closed, from_alloc});
  }
  vr::bench::emit(check);
  return 0;
}
