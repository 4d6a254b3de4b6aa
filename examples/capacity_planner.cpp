// Capacity planner: how many virtual networks fit on one XC6VLX760, per
// scheme? Reproduces the paper's scalability discussion (Sec. IV-B/C and
// VI-A): the separate scheme is I/O-pin limited (K = 15 on 1200 pins); the
// merged scheme is BRAM- and throughput-limited, with the limit depending
// strongly on the merging efficiency α. The planner also reports the
// per-VN throughput each deployment can still guarantee.
//
// Run: ./build/examples/capacity_planner [prefixes-per-table] [min-gbps-per-vn]
//
// Each argument is read whole: the prefix count must be a positive
// integer and the Gbps floor a finite positive number. Anything else
// (`12x`, `abc`, `0`, `inf`) or a third argument exits 2 and names it.
#include <iostream>
#include <optional>
#include <string_view>

#include "common/table.hpp"
#include "core/estimator.hpp"
#include "parse_value.hpp"

namespace {

int refuse(std::string_view what, const char* text) {
  std::cerr << "capacity_planner: " << what << " \"" << text << "\"\n"
            << "usage: capacity_planner [prefixes] [min-gbps-per-vn]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vr;
  std::size_t prefixes = 3725;
  double min_gbps_per_vn = 5.0;  // the SLA each VN was originally promised
  if (argc > 3) return refuse("unexpected argument", argv[3]);
  if (argc > 1) {
    const std::optional<std::size_t> count =
        examples::parse_value<std::size_t>(argv[1]);
    if (!count || *count == 0) {
      return refuse("prefixes is not a positive integer:", argv[1]);
    }
    prefixes = *count;
  }
  if (argc > 2) {
    const std::optional<double> gbps = examples::parse_value<double>(argv[2]);
    if (!gbps || *gbps <= 0.0) {
      return refuse("min-gbps-per-vn is not a finite positive number:",
                    argv[2]);
    }
    min_gbps_per_vn = *gbps;
  }

  const fpga::DeviceSpec device = fpga::DeviceSpec::xc6vlx760();
  const core::PowerEstimator estimator{device};
  constexpr std::size_t kScanLimit = 64;

  // A deployment is feasible when it fits the device AND still sustains
  // each VN's guaranteed throughput — the merged scheme's second limit
  // (Sec. IV-C: "the lookup engine may fail to sustain the required
  // throughput").
  const auto max_k = [&](power::Scheme scheme, double alpha) {
    std::size_t best = 0;
    for (std::size_t k = 1; k <= kScanLimit; ++k) {
      core::Scenario s;
      s.scheme = scheme;
      s.vn_count = k;
      s.alpha = alpha;
      s.table_profile.prefix_count = prefixes;
      try {
        const core::Estimate est = estimator.estimate(s);
        if (!est.fit.fits) break;
        if (est.throughput_gbps.value() / static_cast<double>(k) <
            min_gbps_per_vn) {
          break;
        }
      } catch (const CapacityError&) {
        break;
      }
      best = k;
    }
    return best;
  };

  TextTable table("Max virtual networks on " + device.name + " (" +
                  std::to_string(prefixes) + "-prefix tables)");
  table.set_header(
      {"scheme", "alpha", "max K", "limiting factor", "per-VN Gbps at max"});
  const struct {
    power::Scheme scheme;
    double alpha;
    const char* limit;
  } cases[] = {
      {power::Scheme::kSeparate, 1.0, "I/O pins"},
      {power::Scheme::kMerged, 0.8, "throughput SLA"},
      {power::Scheme::kMerged, 0.5, "throughput SLA"},
      {power::Scheme::kMerged, 0.2, "throughput SLA"},
  };
  for (const auto& c : cases) {
    const std::size_t k = max_k(c.scheme, c.alpha);
    double per_vn_gbps = 0.0;
    if (k > 0) {
      core::Scenario s;
      s.scheme = c.scheme;
      s.vn_count = k;
      s.alpha = c.alpha;
      s.table_profile.prefix_count = prefixes;
      const core::Estimate est = estimator.estimate(s);
      per_vn_gbps = est.throughput_gbps.value() / static_cast<double>(k);
    }
    table.add_row({power::to_string(c.scheme),
                   c.scheme == power::Scheme::kMerged
                       ? TextTable::num(c.alpha, 1)
                       : "-",
                   std::to_string(k), c.limit,
                   TextTable::num(per_vn_gbps, 1)});
  }
  table.render(std::cout);

  std::cout
      << "\nReading: the separate scheme scales until the device runs out\n"
         "of I/O interfaces; the merged scheme can pack more tables when\n"
         "they overlap heavily (high alpha), but each VN's guaranteed\n"
         "throughput shrinks because the single pipeline is time-shared\n"
         "and its clock degrades with the memory footprint (Sec. IV-C).\n";
  return 0;
}
