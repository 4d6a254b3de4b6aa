// Regenerates paper Fig. 3: per-pipeline-stage logic + signal power vs
// operating frequency for speed grades -2 and -1L.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace vr;
  bench::parse_flags(argc, argv);
  const core::FigureBuilder builder(fpga::DeviceSpec::xc6vlx760(),
                                    bench::paper_options());
  bench::emit(builder.fig3_logic_power());
  return 0;
}
