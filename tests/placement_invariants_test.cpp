// Seeded property tests over the placement controller, parametrized over
// all three policies × fleet sizes {100, 1000} (the acceptance matrix of
// the competitive-ratio study). Each run replays a fixed request stream
// and asserts the structural invariants that must survive any policy:
//
//   * capacity: every occupied device's shape passes the oracle's
//     feasibility check (FitReport, co-location cap, SLA floors);
//   * conservation: accepted - departed VNs are exactly the residents;
//   * accounting: the incremental fleet-watts tracker matches a from-
//     scratch recomputation over the group index;
//   * determinism: the same (policy, seed) replays bit-identically;
//   * bounds: online fleet watts never beat the fractional lower bound.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "fpga/device.hpp"
#include "placement/controller.hpp"
#include "placement/offline.hpp"

namespace vr::placement {
namespace {

struct Case {
  PolicyKind policy;
  std::size_t fleet_size;
};

// Without a printer gtest names each case by its raw bytes, padding
// included, so the listed test names would change from run to run.
void PrintTo(const Case& c, std::ostream* os) {
  *os << to_string(c.policy) << " fleet " << c.fleet_size;
}

class PlacementInvariantsTest : public ::testing::TestWithParam<Case> {
 protected:
  // Shared across all parametrizations: the oracle is a deterministic
  // pure cache, and sharing it means each distinct shape's trie is built
  // once for the whole suite.
  static CostOracle& oracle() {
    static CostOracle instance{fpga::DeviceSpec::xc6vlx760()};
    return instance;
  }

  static RequestStreamConfig stream_config(std::size_t fleet_size) {
    RequestStreamConfig config;
    config.seed = 42;
    // Short holding at the small fleet saturates it (admission pressure);
    // the large fleet stays partly empty (growth phase). Both regimes are
    // covered without a million-request run.
    config.mean_holding_ticks = fleet_size <= 100 ? 1000 : 3000;
    return config;
  }

  static constexpr std::uint64_t kRequests = 4000;

  static ControllerConfig controller_config(const Case& c) {
    ControllerConfig config;
    config.policy = c.policy;
    config.fleet_size = c.fleet_size;
    config.keep_trace = true;
    return config;
  }
};

TEST_P(PlacementInvariantsTest, StructuralInvariantsHoldAfterTheRun) {
  const Case c = GetParam();
  PlacementController controller(&oracle(), controller_config(c));
  RequestStream stream(stream_config(c.fleet_size));
  const ControllerResult result = controller.run(stream, kRequests);
  const Fleet& fleet = controller.fleet();

  // Bookkeeping closes: every request was either accepted or rejected,
  // infeasible rejections are a subset, and the trace saw all of them.
  EXPECT_EQ(result.requests, kRequests);
  EXPECT_EQ(result.accepted + result.rejected, result.requests);
  EXPECT_LE(result.infeasible, result.rejected);
  ASSERT_EQ(result.trace.size(), kRequests);
  std::uint64_t trace_accepted = 0;
  for (const PlacementRecord& record : result.trace) {
    if (record.accepted) {
      ++trace_accepted;
      EXPECT_LT(record.device, c.fleet_size);
    }
  }
  EXPECT_EQ(trace_accepted, result.accepted);

  // VN conservation: accepted minus departed VNs are exactly the
  // residents, and each resident is locatable.
  const std::vector<PlacedVn> residents = fleet.resident_vns();
  EXPECT_EQ(result.accepted - result.departures, residents.size());
  for (const PlacedVn& vn : residents) {
    EXPECT_TRUE(fleet.contains(vn.request_id));
  }

  // Index coherence: the group index partitions exactly the active
  // devices, shapes match a per-device recomputation, and peak/current
  // device counts are consistent.
  EXPECT_EQ(result.devices_active, fleet.active_devices());
  EXPECT_GE(result.peak_devices_active, result.devices_active);
  EXPECT_LE(result.peak_devices_active, c.fleet_size);
  std::set<std::size_t> grouped;
  for (const auto& [shape, devices] : fleet.groups()) {
    for (const std::size_t device : devices) {
      EXPECT_TRUE(grouped.insert(device).second);
      EXPECT_EQ(fleet.shape_of(device), shape);
    }
    // Capacity is never exceeded: every occupied shape is feasible.
    EXPECT_TRUE(oracle().feasible(shape))
        << to_string(shape.mode) << " K=" << shape.vn_count
        << " bucket=" << shape.max_bucket << " mu_q=" << shape.mu_total_q;
    // SLA floors: gold tenants never sit on a time-shared engine.
    if (shape.mode == DeviceMode::kTimeShared) {
      for (const std::size_t device : devices) {
        for (const auto& [id, vn] : fleet.device(device).vns) {
          EXPECT_NE(vn.sla, SlaClass::kGold) << "request " << id;
        }
      }
    }
  }
  EXPECT_EQ(grouped.size(), fleet.active_devices());

  // Accounting: the incremental watts tracker never drifts from a
  // from-scratch recomputation over the group index.
  const double recomputed = controller.recomputed_fleet_w();
  EXPECT_NEAR(result.fleet_w, recomputed,
              1e-6 * std::max(1.0, recomputed));
  EXPECT_GE(result.watt_ticks, 0.0);
  if (result.accepted > 0) {
    EXPECT_GT(result.watt_ticks, 0.0);
  }
}

TEST_P(PlacementInvariantsTest, ReplayFromTheSameSeedIsBitIdentical) {
  const Case c = GetParam();
  auto run_once = [&] {
    PlacementController controller(&oracle(), controller_config(c));
    RequestStream stream(stream_config(c.fleet_size));
    return controller.run(stream, kRequests);
  };
  const ControllerResult a = run_once();
  const ControllerResult b = run_once();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.infeasible, b.infeasible);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.devices_active, b.devices_active);
  EXPECT_EQ(a.peak_devices_active, b.peak_devices_active);
  // Bit-identical, not approximately equal: every float the controller
  // touches flows through deterministic std::map/std::set iteration.
  EXPECT_EQ(a.fleet_w, b.fleet_w);
  EXPECT_EQ(a.watt_ticks, b.watt_ticks);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].request_id, b.trace[i].request_id);
    EXPECT_EQ(a.trace[i].accepted, b.trace[i].accepted);
    EXPECT_EQ(a.trace[i].device, b.trace[i].device);
    EXPECT_EQ(a.trace[i].mode, b.trace[i].mode);
  }
}

TEST_P(PlacementInvariantsTest, OnlineNeverBeatsTheFractionalLowerBound) {
  const Case c = GetParam();
  PlacementController controller(&oracle(), controller_config(c));
  RequestStream stream(stream_config(c.fleet_size));
  const ControllerResult result = controller.run(stream, kRequests);
  const std::vector<PlacedVn> residents = controller.fleet().resident_vns();
  if (residents.empty()) GTEST_SKIP() << "no residents to bound";
  const OfflineBound bound = offline_bound(residents, oracle());
  // The relaxation drops all packing constraints, so OPT — and any
  // online run — can only cost at least as much.
  EXPECT_GT(bound.fractional_lower_w, 0.0);
  EXPECT_GE(result.fleet_w, bound.fractional_lower_w - 1e-9);
  // The greedy packing is a feasible integral solution, so it can never
  // beat the relaxation either.
  EXPECT_GE(bound.greedy_w, bound.fractional_lower_w - 1e-9);
}

TEST_P(PlacementInvariantsTest, StreamAndVectorRunsAgree) {
  const Case c = GetParam();
  // Only at the small fleet — this doubles the run count and the large
  // fleet adds no coverage for the equivalence itself.
  if (c.fleet_size > 100) GTEST_SKIP() << "covered at fleet 100";
  PlacementController from_stream(&oracle(), controller_config(c));
  RequestStream stream(stream_config(c.fleet_size));
  const ControllerResult a = from_stream.run(stream, kRequests);
  PlacementController from_vector(&oracle(), controller_config(c));
  const ControllerResult b = from_vector.run(
      generate_requests(stream_config(c.fleet_size), kRequests));
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.fleet_w, b.fleet_w);
  EXPECT_EQ(a.watt_ticks, b.watt_ticks);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndFleets, PlacementInvariantsTest,
    ::testing::Values(Case{PolicyKind::kFirstFit, 100},
                      Case{PolicyKind::kFirstFit, 1000},
                      Case{PolicyKind::kBestFitWatts, 100},
                      Case{PolicyKind::kBestFitWatts, 1000},
                      Case{PolicyKind::kExpCost, 100},
                      Case{PolicyKind::kExpCost, 1000}),
    [](const ::testing::TestParamInfo<Case>& param) {
      std::string name = to_string(param.param.policy);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_fleet" + std::to_string(param.param.fleet_size);
    });

}  // namespace
}  // namespace vr::placement
