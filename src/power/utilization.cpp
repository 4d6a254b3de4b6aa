#include "power/utilization.hpp"

#include <cmath>

#include "common/error.hpp"

namespace vr::power {

std::vector<double> zipf_utilization(std::size_t vn_count, double skew,
                                     double total_load) {
  VR_REQUIRE(vn_count >= 1, "need at least one VN");
  VR_REQUIRE(skew >= 0.0, "skew must be non-negative");
  std::vector<double> mu(vn_count);
  double total = 0.0;
  for (std::size_t i = 0; i < vn_count; ++i) {
    mu[i] = 1.0 / std::pow(static_cast<double>(i + 1), skew);
    total += mu[i];
  }
  for (double& m : mu) m *= total_load / total;
  return mu;
}

}  // namespace vr::power
