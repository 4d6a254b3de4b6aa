// vrpower_report — command-line front end to the estimator/validator:
// describe a deployment on the command line, get the full power report
// (analytical model, simulated post-PnR experiment, error, resources,
// efficiency).
//
// Usage:
//   vrpower_report [--scheme nv|vs|vm] [--vns K] [--grade -2|-1L]
//                  [--alpha F] [--freq MHZ] [--stages N]
//                  [--prefixes P] [--seed S] [--structural]
//
// Example: ./build/examples/vrpower_report --scheme vm --vns 12 --alpha 0.3
//
// Each value is read whole: K, N and P are positive integers, F lies in
// [0, 1], MHZ is a finite number >= 0 (0 runs at the achievable Fmax) and
// S an unsigned integer. Anything else (`--alpha abc`, `--vns 4x`) exits 2
// and names the flag.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common/table.hpp"
#include "core/validator.hpp"
#include "parse_value.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--scheme nv|vs|vm] [--vns K] [--grade -2|-1L] [--alpha F]\n"
         "       [--freq MHZ] [--stages N] [--prefixes P] [--seed S]\n"
         "       [--structural]\n";
  std::exit(2);
}

/// The value of `flag`, read whole as a T that `ok` accepts; anything else
/// exits 2 and names the flag.
template <typename T, typename Ok>
T flag_value(const std::string& flag, const char* text, Ok ok) {
  const std::optional<T> value = vr::examples::parse_value<T>(text);
  if (value && ok(*value)) return *value;
  std::cerr << "vrpower_report: bad value for " << flag << ": \"" << text
            << "\"\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vr;
  core::Scenario scenario;
  scenario.scheme = power::Scheme::kSeparate;
  scenario.vn_count = 8;

  const auto positive = [](auto v) { return v > 0; };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scheme") {
      const std::string v = need_value();
      if (v == "nv") {
        scenario.scheme = power::Scheme::kNonVirtualized;
      } else if (v == "vs") {
        scenario.scheme = power::Scheme::kSeparate;
      } else if (v == "vm") {
        scenario.scheme = power::Scheme::kMerged;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--vns") {
      scenario.vn_count = flag_value<std::size_t>(arg, need_value(), positive);
    } else if (arg == "--grade") {
      const std::string v = need_value();
      if (v == "-2") {
        scenario.grade = fpga::SpeedGrade::kMinus2;
      } else if (v == "-1L" || v == "-1l") {
        scenario.grade = fpga::SpeedGrade::kMinus1L;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--alpha") {
      scenario.alpha = flag_value<double>(
          arg, need_value(), [](double a) { return a >= 0.0 && a <= 1.0; });
    } else if (arg == "--freq") {
      scenario.freq_mhz = units::Megahertz{flag_value<double>(
          arg, need_value(), [](double mhz) { return mhz >= 0.0; })};
    } else if (arg == "--stages") {
      scenario.stages = flag_value<std::size_t>(arg, need_value(), positive);
    } else if (arg == "--prefixes") {
      scenario.table_profile.prefix_count =
          flag_value<std::size_t>(arg, need_value(), positive);
    } else if (arg == "--seed") {
      scenario.seed = flag_value<std::uint64_t>(
          arg, need_value(), [](std::uint64_t) { return true; });
    } else if (arg == "--structural") {
      scenario.merged_source = core::MergedSource::kStructural;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(argv[0]);
    }
  }

  const fpga::DeviceSpec device = fpga::DeviceSpec::xc6vlx760();
  const core::ModelValidator validator(device);
  try {
    const core::ValidationPoint point = validator.validate(scenario);

    std::cout << "Scenario: " << scenario.describe() << "\n";
    std::cout << "Device:   " << device.name << "\n\n";

    TextTable table("Power report");
    table.set_header({"quantity", "model", "experimental"});
    table.add_row({"static W",
                   TextTable::num(point.model.power.static_w.value(), 3),
                   TextTable::num(point.experiment.power.static_w.value(),
                                  3)});
    table.add_row({"logic W",
                   TextTable::num(point.model.power.logic_w.value(), 4),
                   TextTable::num(point.experiment.power.logic_w.value(),
                                  4)});
    table.add_row({"memory W",
                   TextTable::num(point.model.power.memory_w.value(), 4),
                   TextTable::num(point.experiment.power.memory_w.value(),
                                  4)});
    table.add_row({"total W",
                   TextTable::num(point.model.power.total_w().value(), 3),
                   TextTable::num(point.experiment.power.total_w().value(),
                                  3)});
    table.add_row({"error %", TextTable::num(point.error_total_pct, 2), "-"});
    table.add_row({"clock MHz",
                   TextTable::num(point.model.freq_mhz.value(), 1),
                   TextTable::num(point.experiment.freq_mhz.value(), 1)});
    table.add_row({"throughput Gbps",
                   TextTable::num(point.model.throughput_gbps.value(), 1),
                   TextTable::num(point.experiment.throughput_gbps.value(),
                                  1)});
    table.add_row({"mW/Gbps",
                   TextTable::num(point.model.mw_per_gbps.value(), 2),
                   TextTable::num(point.experiment.mw_per_gbps.value(),
                                  2)});
    table.render(std::cout);

    const auto& r = point.model.resources;
    std::cout << "\nResources: " << r.devices << " device(s), " << r.engines
              << " engine(s), " << r.stages_per_engine << " stages each; "
              << TextTable::num(units::bits_to_kbits(r.pointer_bits), 1)
              << " Kb pointer + "
              << TextTable::num(units::bits_to_kbits(r.nhi_bits), 1)
              << " Kb NHI memory; "
              << r.bram_per_device.total.halves()
              << " BRAM halves on the busiest device; " << r.io_pins
              << " I/O pins.\n";
    std::cout << "Fits device: " << (point.model.fit.fits ? "yes" : "NO")
              << (point.model.fit.io_ok ? "" : " (I/O pins exceeded)")
              << (point.model.fit.bram_ok ? "" : " (BRAM exceeded)")
              << (point.model.fit.luts_ok ? "" : " (LUTs exceeded)")
              << "\n";
    if (scenario.scheme == power::Scheme::kMerged) {
      std::cout << "Merging efficiency used: "
                << TextTable::num(point.model.alpha_used, 3) << "\n";
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
