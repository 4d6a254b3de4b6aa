// Regenerates paper Fig. 2: BRAM power of a single 18 Kb / 36 Kb block vs
// operating frequency for speed grades -2 and -1L.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace vr;
  bench::parse_flags(argc, argv);
  const core::FigureBuilder builder(fpga::DeviceSpec::xc6vlx760(),
                                    bench::paper_options());
  bench::emit(builder.fig2_bram_power());
  return 0;
}
