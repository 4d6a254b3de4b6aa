// Regenerates paper Table II: Virtex-6 XC6VLX760 device specifications as
// encoded in the device catalog, plus the derived quantities the models
// use (static power per grade, base Fmax, BRAM halves).
#include "bench_common.hpp"
#include "fpga/bram.hpp"

int main(int argc, char** argv) {
  using namespace vr;
  bench::parse_flags(argc, argv);
  const fpga::DeviceSpec spec = fpga::DeviceSpec::xc6vlx760();

  TextTable table("Table II - " + spec.name + " device specs");
  table.set_header({"resource", "amount"});
  table.add_row({"Logic cells", std::to_string(spec.logic_cells)});
  table.add_row({"Slices", std::to_string(spec.slices)});
  table.add_row({"LUTs", std::to_string(spec.luts)});
  table.add_row({"Flip-flops", std::to_string(spec.flip_flops)});
  table.add_row({"Max. distributed RAM",
                 std::to_string(spec.distributed_ram_bits / (1024 * 1024)) +
                     " Mb"});
  table.add_row({"Block RAM",
                 std::to_string(spec.bram_bits / (1024 * 1024)) + " Mb"});
  table.add_row(
      {"BRAM 18Kb halves", std::to_string(fpga::device_bram_halves(spec))});
  table.add_row({"Max. I/O pins", std::to_string(spec.io_pins)});
  table.add_row({"Static power (-2)",
                 TextTable::num(spec.static_power_w(
                                        fpga::SpeedGrade::kMinus2)
                                    .value(),
                                2) +
                     " W"});
  table.add_row({"Static power (-1L)",
                 TextTable::num(spec.static_power_w(
                                        fpga::SpeedGrade::kMinus1L)
                                    .value(),
                                2) +
                     " W"});
  table.add_row({"Base Fmax (-2)",
                 TextTable::num(spec.base_fmax_mhz(fpga::SpeedGrade::kMinus2)
                                    .value(),
                                0) +
                     " MHz"});
  table.add_row(
      {"Base Fmax (-1L)",
       TextTable::num(spec.base_fmax_mhz(fpga::SpeedGrade::kMinus1L).value(),
                      0) +
           " MHz"});
  vr::bench::emit(table);
  return 0;
}
