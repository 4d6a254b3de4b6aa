// MUST NOT COMPILE: ActivityModel prices the pipeline's measured activity
// at the operating point's clock, a units::Megahertz; a raw double clock
// must be rejected.
#include "power/analytical_model.hpp"

int main() {
  vr::power::OperatingPoint op;
  op.freq_mhz = 300.0;
  return static_cast<int>(op.freq_mhz.value());
}
