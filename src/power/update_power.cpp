#include "power/update_power.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/units.hpp"

namespace vr::power {

units::Watts adjusted_bram_power_w(units::Watts table3_power,
                                   double write_rate,
                                   const UpdateRateModel& model) {
  VR_REQUIRE(write_rate >= 0.0 && write_rate <= 1.0,
             "write rate must be in [0,1]");
  return table3_power *
         (1.0 + model.write_power_sensitivity *
                    (write_rate - model.baseline_write_rate));
}

units::Gbps effective_lookup_gbps(units::Megahertz freq,
                                  const UpdateLoad& load) {
  const double stolen = std::min(1.0, load.write_slot_fraction(freq));
  return (1.0 - stolen) *
         units::lookup_throughput(freq, units::kMinPacketBytes);
}

UpdateLoad measure_update_load(const net::RoutingTable& base,
                               const std::vector<net::RouteUpdate>& updates,
                               double updates_per_second) {
  UpdateLoad load;
  load.updates_per_second = updates_per_second;
  if (updates.empty()) return load;
  trie::UpdatableTrie trie(base);
  std::size_t words = 0;
  for (const net::RouteUpdate& update : updates) {
    words += trie.apply(0, update).words_written;
  }
  load.words_per_update =
      static_cast<double>(words) / static_cast<double>(updates.size());
  return load;
}

}  // namespace vr::power
