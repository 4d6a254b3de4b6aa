// Dynamic provisioning on a merged virtual router: tenants come and go
// and push BGP-style updates at run time, all served in place by the
// incrementally updatable merged trie (the direction of the paper's
// reference [6] — no rebuild, no downtime). The example tracks the
// structural merging efficiency α, the memory footprint and the resulting
// power estimate as the tenant set evolves over a simulated day.
//
// Run: ./build/examples/dynamic_provisioning
#include <iostream>

#include "common/table.hpp"
#include "core/estimator.hpp"
#include "netbase/update_gen.hpp"
#include "trie/updatable_trie.hpp"
#include "virt/table_set_gen.hpp"

int main() {
  using namespace vr;

  // Capacity for up to 6 tenants; 4 are active at boot.
  constexpr std::size_t kMaxTenants = 6;
  net::TableProfile profile;
  profile.prefix_count = 1200;
  // Regional tenants share most of their routes (the case merging is for):
  // derive all prospective tables from one base with 25 % mutation.
  virt::TableSetConfig set_config;
  set_config.profile = profile;
  set_config.leaf_push = false;
  const virt::CorrelatedTableSetGenerator set_gen(set_config);
  std::vector<net::RoutingTable> all_tables =
      set_gen.generate(kMaxTenants, 0.25, 7).tables;
  std::vector<net::RoutingTable> tables(kMaxTenants);
  for (std::uint64_t v = 0; v < 4; ++v) {
    tables[v] = all_tables[v];
  }
  std::vector<const net::RoutingTable*> ptrs;
  for (const auto& t : tables) ptrs.push_back(&t);
  trie::UpdatableTrie merged{
      std::span<const net::RoutingTable* const>(ptrs)};

  const core::PowerEstimator estimator{fpga::DeviceSpec::xc6vlx760()};
  TextTable table("A day on a merged virtual router (grade -2)");
  table.set_header({"event", "tenants", "merged nodes", "alpha",
                    "words written", "est. power W"});

  std::size_t active = 4;
  const auto snapshot = [&](const std::string& event,
                            std::size_t words_written) {
    // Analytical estimate driven by the live structure's α.
    core::Scenario s;
    s.scheme = power::Scheme::kMerged;
    s.vn_count = std::max<std::size_t>(active, 1);
    s.alpha = merged.alpha_effective();
    s.table_profile = profile;
    const core::Estimate est = estimator.estimate(s);
    table.add_row({event, std::to_string(active),
                   std::to_string(merged.node_count()),
                   TextTable::num(merged.alpha_effective(), 3),
                   std::to_string(words_written),
                   TextTable::num(est.power.total_w().value(), 3)});
  };
  snapshot("boot: 4 tenants", 0);

  // Morning: two new tenants are provisioned by streaming announcements.
  for (std::uint64_t v = 4; v < 6; ++v) {
    tables[v] = all_tables[v];
    std::size_t words = 0;
    for (const net::Route& route : tables[v].routes()) {
      words +=
          merged.announce(static_cast<net::VnId>(v), route).words_written;
    }
    ++active;
    snapshot("provision tenant " + std::to_string(v), words);
  }

  // Midday: every tenant churns 5% of its table (BGP path changes).
  net::UpdateStreamConfig churn;
  churn.update_count = 60;
  churn.profile = profile;
  const net::UpdateStreamGenerator churn_gen(churn);
  std::size_t churn_words = 0;
  for (net::VnId v = 0; v < 6; ++v) {
    for (const net::RouteUpdate& update :
         churn_gen.generate(merged.table_of(v), 100 + v)) {
      churn_words += merged.apply(v, update).words_written;
    }
  }
  snapshot("midday churn (6x60 updates)", churn_words);

  // Evening: tenant 2 is decommissioned route by route.
  {
    std::size_t words = 0;
    const net::RoutingTable leaving = merged.table_of(2);
    for (const net::Route& route : leaving.routes()) {
      words += merged.withdraw(2, route.prefix).words_written;
    }
    --active;
    snapshot("decommission tenant 2", words);
  }

  table.render(std::cout);
  std::cout << "\nEvery transition ran in place on the shared trie: no\n"
               "rebuild, no service interruption for the other tenants,\n"
               "with write costs small enough to stay far below the\n"
               "paper's 1% BRAM write-rate assumption.\n";
  return 0;
}
