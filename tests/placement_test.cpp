// Placement layer unit tests: the seeded request stream, the cost
// oracle's bucketing/memoization/feasibility rules, the fleet's shape
// indices, the three policies' scoring behavior, the controller's
// departure/trace/metrics plumbing, recorded digests of every policy's
// decisions in two regimes, and the offline bound ordering.
// Everything is seeded — no test depends on wall-clock or ordering luck.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "fpga/device.hpp"
#include "obs/registry.hpp"
#include "placement/controller.hpp"
#include "placement/offline.hpp"

namespace vr::placement {
namespace {

// One oracle per binary: the memo is shared across tests (it is purely
// a cache over a deterministic estimator, so sharing cannot couple
// tests) and the trie builds behind it are the expensive part.
CostOracle& shared_oracle() {
  static CostOracle oracle{fpga::DeviceSpec::xc6vlx760()};
  return oracle;
}

PlacedVn placed(std::uint64_t id, std::uint32_t bucket, std::uint32_t mu_q,
                SlaClass sla = SlaClass::kBronze) {
  PlacedVn vn;
  vn.request_id = id;
  vn.bucket = bucket;
  vn.mu_q = mu_q;
  vn.sla = sla;
  return vn;
}

DeviceShape shape_of(DeviceMode mode, std::uint32_t vn_count,
                     std::uint32_t bucket, std::uint32_t mu_total_q,
                     SlaClass sla = SlaClass::kBronze) {
  DeviceShape shape;
  shape.mode = mode;
  shape.vn_count = vn_count;
  shape.max_bucket = bucket;
  shape.mu_total_q = mu_total_q;
  shape.sla_floor = sla;
  return shape;
}

// ---------------------------------------------------------------- stream --

TEST(RequestStreamTest, SameSeedReproducesTheExactSequence) {
  RequestStreamConfig config;
  config.seed = 7;
  config.mean_holding_ticks = 500;
  const std::vector<VnRequest> a = generate_requests(config, 2000);
  const std::vector<VnRequest> b = generate_requests(config, 2000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].arrival_tick, b[i].arrival_tick);
    EXPECT_EQ(a[i].departure_tick, b[i].departure_tick);
    EXPECT_EQ(a[i].prefix_count, b[i].prefix_count);
    EXPECT_EQ(a[i].mu_q, b[i].mu_q);
    EXPECT_EQ(a[i].sla, b[i].sla);
  }
}

TEST(RequestStreamTest, DifferentSeedsDiverge) {
  RequestStreamConfig config;
  config.seed = 1;
  const std::vector<VnRequest> a = generate_requests(config, 64);
  config.seed = 2;
  const std::vector<VnRequest> b = generate_requests(config, 64);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].prefix_count != b[i].prefix_count || a[i].mu_q != b[i].mu_q) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(RequestStreamTest, FieldsStayInConfiguredRanges) {
  RequestStreamConfig config;
  config.seed = 11;
  config.mean_holding_ticks = 300;
  const std::vector<VnRequest> requests = generate_requests(config, 5000);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const VnRequest& r = requests[i];
    EXPECT_EQ(r.id, i);
    EXPECT_EQ(r.arrival_tick, i);  // one arrival per tick
    EXPECT_GE(r.mu_q, 1u);
    EXPECT_LE(r.mu_q, kMuLevels);
    EXPECT_GE(r.prefix_count, 1u);
    // Largest class draws around base * 2^(classes-1), plus jitter < base.
    EXPECT_LT(r.prefix_count, kBasePrefixCount * (std::size_t{1} << 4));
    ASSERT_NE(r.departure_tick, 0u);  // holding configured, so VNs leave
    EXPECT_GT(r.departure_tick, r.arrival_tick);
    EXPECT_LE(r.departure_tick,
              r.arrival_tick + 2 * config.mean_holding_ticks);
  }
}

TEST(RequestStreamTest, PermanentVnsWhenHoldingIsZero) {
  RequestStreamConfig config;
  config.mean_holding_ticks = 0;
  for (const VnRequest& r : generate_requests(config, 100)) {
    EXPECT_EQ(r.departure_tick, 0u);
  }
}

TEST(RequestStreamTest, SlaMixTracksConfiguredFractions) {
  RequestStreamConfig config;
  config.seed = 3;
  const std::size_t n = 20000;
  std::size_t gold = 0;
  std::size_t silver = 0;
  for (const VnRequest& r : generate_requests(config, n)) {
    gold += r.sla == SlaClass::kGold ? 1 : 0;
    silver += r.sla == SlaClass::kSilver ? 1 : 0;
  }
  const double gold_frac = static_cast<double>(gold) / n;
  const double silver_frac = static_cast<double>(silver) / n;
  EXPECT_NEAR(gold_frac, kGoldFraction, 0.02);
  EXPECT_NEAR(silver_frac, kSilverFraction, 0.03);
}

// ---------------------------------------------------------------- oracle --

TEST(OracleTest, BucketForCoversAndClampsTheSizeAxis) {
  CostOracle& oracle = shared_oracle();
  const auto& buckets = kBucketPrefixCounts;
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(oracle.bucket_for(1), 0u);
  EXPECT_EQ(oracle.bucket_for(buckets[0]), 0u);
  EXPECT_EQ(oracle.bucket_for(buckets[0] + 1), 1u);
  EXPECT_EQ(oracle.bucket_for(buckets[2]), 2u);
  // Past the largest bucket requests clamp to it (priced as full-size).
  EXPECT_EQ(oracle.bucket_for(buckets.back() + 1'000'000),
            static_cast<std::uint32_t>(buckets.size() - 1));
}

TEST(OracleTest, EstimateIsMemoizedAndIgnoresSlaFloor) {
  CostOracle oracle{fpga::DeviceSpec::xc6vlx760()};
  const DeviceShape bronze =
      shape_of(DeviceMode::kTimeShared, 2, 0, 8, SlaClass::kBronze);
  const DeviceShape silver =
      shape_of(DeviceMode::kTimeShared, 2, 0, 8, SlaClass::kSilver);
  const double w1 = oracle.watts(bronze);
  EXPECT_EQ(oracle.estimates_computed(), 1u);
  const double w2 = oracle.watts(bronze);
  EXPECT_EQ(oracle.estimates_computed(), 1u);
  EXPECT_EQ(w1, w2);
  // The SLA floor affects feasibility only — same memo entry.
  EXPECT_EQ(oracle.watts(silver), w1);
  EXPECT_EQ(oracle.estimates_computed(), 1u);
}

TEST(OracleTest, FeasibilityEnforcesStructuralRules) {
  CostOracle& oracle = shared_oracle();
  // Baseline shapes that should fit the xc6vlx760 comfortably.
  EXPECT_TRUE(oracle.feasible(shape_of(DeviceMode::kDedicated, 1, 0, 8)));
  EXPECT_TRUE(oracle.feasible(shape_of(DeviceMode::kTimeShared, 4, 0, 16)));
  // Idle shapes are never placement targets.
  EXPECT_FALSE(oracle.feasible(shape_of(DeviceMode::kDedicated, 0, 0, 0)));
  // Dedicated means exactly one VN.
  EXPECT_FALSE(oracle.feasible(shape_of(DeviceMode::kDedicated, 2, 0, 8)));
  // Co-location cap.
  const std::uint32_t cap = kMaxVnsPerDevice;
  EXPECT_FALSE(
      oracle.feasible(shape_of(DeviceMode::kTimeShared, cap + 1, 0, 8)));
  // A time-shared engine saturates at aggregate load 1.
  EXPECT_TRUE(oracle.feasible(
      shape_of(DeviceMode::kTimeShared, 4, 0, kMuQuantum)));
  EXPECT_FALSE(oracle.feasible(
      shape_of(DeviceMode::kTimeShared, 4, 0, kMuQuantum + 1)));
}

TEST(OracleTest, GoldNeverSharesATimeSharedEngine) {
  CostOracle& oracle = shared_oracle();
  const DeviceShape bronze =
      shape_of(DeviceMode::kTimeShared, 2, 0, 8, SlaClass::kBronze);
  DeviceShape gold = bronze;
  gold.sla_floor = SlaClass::kGold;
  // Identical physical shape: only the SLA rule separates the verdicts.
  EXPECT_TRUE(oracle.feasible(bronze));
  EXPECT_FALSE(oracle.feasible(gold));
  // Gold on its own engine is fine.
  EXPECT_TRUE(oracle.feasible(
      shape_of(DeviceMode::kDedicated, 1, 0, 8, SlaClass::kGold)));
}

TEST(OracleTest, CongestionIsAUnitIntervalLoadMeasure) {
  CostOracle& oracle = shared_oracle();
  const double light =
      oracle.congestion(shape_of(DeviceMode::kTimeShared, 1, 0, 2));
  const double heavy =
      oracle.congestion(shape_of(DeviceMode::kTimeShared, 8, 3, 32));
  EXPECT_GE(light, 0.0);
  EXPECT_LE(heavy, 1.0);
  EXPECT_LT(light, heavy);
  // Slot occupancy alone floors the measure: 8 of 8 slots is full load.
  EXPECT_DOUBLE_EQ(heavy, 1.0);
  EXPECT_DOUBLE_EQ(
      oracle.congestion(shape_of(DeviceMode::kDedicated, 0, 0, 0)), 0.0);
}

// ----------------------------------------------------------------- fleet --

TEST(FleetTest, PlaceAndRemoveKeepEveryIndexCoherent) {
  Fleet fleet(4);
  EXPECT_EQ(fleet.size(), 4u);
  EXPECT_EQ(fleet.active_devices(), 0u);
  EXPECT_EQ(fleet.idle_devices().size(), 4u);

  fleet.place(1, placed(10, 0, 4), DeviceMode::kTimeShared);
  fleet.place(1, placed(11, 1, 6), DeviceMode::kDedicated);  // stays merged
  fleet.place(3, placed(12, 2, 8, SlaClass::kGold), DeviceMode::kDedicated);

  EXPECT_EQ(fleet.active_devices(), 2u);
  EXPECT_TRUE(fleet.contains(10));
  EXPECT_EQ(fleet.device_of(11), 1u);
  EXPECT_EQ(fleet.device_of(12), 3u);

  const DeviceShape s1 = fleet.shape_of(1);
  EXPECT_EQ(s1.mode, DeviceMode::kTimeShared);  // mode_if_idle only opens
  EXPECT_EQ(s1.vn_count, 2u);
  EXPECT_EQ(s1.max_bucket, 1u);
  EXPECT_EQ(s1.mu_total_q, 10u);
  EXPECT_EQ(s1.sla_floor, SlaClass::kBronze);

  const DeviceShape s3 = fleet.shape_of(3);
  EXPECT_EQ(s3.mode, DeviceMode::kDedicated);
  EXPECT_EQ(s3.sla_floor, SlaClass::kGold);

  // The group index holds exactly the active devices under their shapes.
  ASSERT_EQ(fleet.groups().size(), 2u);
  EXPECT_TRUE(fleet.groups().at(s1).contains(1));
  EXPECT_TRUE(fleet.groups().at(s3).contains(3));

  const Fleet::Removed removed = fleet.remove(11);
  EXPECT_EQ(removed.device, 1u);
  EXPECT_EQ(removed.vn.request_id, 11u);
  EXPECT_EQ(removed.vn.bucket, 1u);
  EXPECT_FALSE(fleet.contains(11));
  EXPECT_EQ(fleet.shape_of(1).vn_count, 1u);
  EXPECT_EQ(fleet.shape_of(1).max_bucket, 0u);  // shrinks back down

  // Emptying a device returns it to the idle pool with a reset mode.
  (void)fleet.remove(10);
  EXPECT_EQ(fleet.active_devices(), 1u);
  EXPECT_TRUE(fleet.idle_devices().contains(1));
  EXPECT_TRUE(fleet.shape_of(1).idle());
  EXPECT_EQ(fleet.device(1).mode, DeviceMode::kDedicated);
}

TEST(FleetTest, ShapeWithPredictsPlaceExactly) {
  Fleet fleet(2);
  const PlacedVn a = placed(1, 1, 5, SlaClass::kSilver);
  const PlacedVn b = placed(2, 0, 3, SlaClass::kGold);
  const DeviceShape predicted_a =
      fleet.shape_with(0, a, DeviceMode::kTimeShared);
  fleet.place(0, a, DeviceMode::kTimeShared);
  EXPECT_EQ(fleet.shape_of(0), predicted_a);
  const DeviceShape predicted_ab =
      fleet.shape_with(0, b, DeviceMode::kDedicated);
  fleet.place(0, b, DeviceMode::kDedicated);
  EXPECT_EQ(fleet.shape_of(0), predicted_ab);
  EXPECT_EQ(predicted_ab.sla_floor, SlaClass::kGold);
}

// Candidate enumeration prices add(group key, vn) instead of shape_with on
// a member; under seeded churn the two must agree for every member of
// every group, and add({mode}, vn) for every idle device and mode.
TEST(FleetTest, AddingToTheGroupKeyEqualsShapeWithUnderChurn) {
  constexpr DeviceMode kModes[] = {DeviceMode::kDedicated,
                                   DeviceMode::kSpaceShared,
                                   DeviceMode::kTimeShared};
  Fleet fleet(12);
  Rng rng(23);
  std::vector<std::uint64_t> resident;
  // Few distinct VNs, so devices often share a shape group.
  const auto random_vn = [&](std::uint64_t id) {
    return placed(id, static_cast<std::uint32_t>(rng.next_below(2)),
                  static_cast<std::uint32_t>(rng.next_in(1, 3)),
                  static_cast<SlaClass>(rng.next_below(3)));
  };
  std::size_t shared_members = 0;
  std::size_t idle_probes = 0;
  for (std::uint64_t step = 0; step < 3000; ++step) {
    // Around 16 residents on 12 devices: some idle, some crowded.
    if (resident.empty() || rng.next_bool(resident.size() < 16 ? 0.7 : 0.3)) {
      const std::size_t device = rng.next_below(fleet.size());
      fleet.place(device, random_vn(step), kModes[rng.next_below(3)]);
      resident.push_back(step);
    } else {
      const std::size_t pick = rng.next_below(resident.size());
      (void)fleet.remove(resident[pick]);
      resident[pick] = resident.back();
      resident.pop_back();
    }
    const PlacedVn probe = random_vn(1'000'000 + step);
    for (const auto& [key, devices] : fleet.groups()) {
      for (const std::size_t device : devices) {
        ASSERT_EQ(add(key, probe),
                  fleet.shape_with(device, probe, kModes[step % 3]))
            << "step " << step << " device " << device;
      }
      if (devices.size() > 1) shared_members += devices.size();
    }
    for (const std::size_t device : fleet.idle_devices()) {
      for (const DeviceMode mode : kModes) {
        ASSERT_EQ(add(DeviceShape{.mode = mode}, probe),
                  fleet.shape_with(device, probe, mode))
            << "step " << step << " idle device " << device;
        ++idle_probes;
      }
    }
  }
  // The churn reaches groups of several devices and the idle pool.
  EXPECT_GT(shared_members, 1000u);
  EXPECT_GT(idle_probes, 1000u);
}

TEST(FleetTest, ResidentVnsComeBackInRequestIdOrder) {
  Fleet fleet(3);
  fleet.place(2, placed(30, 0, 1), DeviceMode::kTimeShared);
  fleet.place(0, placed(10, 0, 1), DeviceMode::kTimeShared);
  fleet.place(1, placed(20, 0, 1), DeviceMode::kTimeShared);
  const std::vector<PlacedVn> vns = fleet.resident_vns();
  ASSERT_EQ(vns.size(), 3u);
  EXPECT_EQ(vns[0].request_id, 10u);
  EXPECT_EQ(vns[1].request_id, 20u);
  EXPECT_EQ(vns[2].request_id, 30u);
}

// -------------------------------------------------------------- policies --

TEST(PolicyTest, FirstFitOpensTheLowestIndexedDevice) {
  Fleet fleet(8);
  const auto policy = make_policy(PolicyKind::kFirstFit);
  const Decision decision =
      policy->decide(fleet, shared_oracle(), placed(1, 0, 4));
  EXPECT_TRUE(decision.accept);
  EXPECT_TRUE(decision.feasible_exists);
  EXPECT_EQ(decision.device, 0u);
}

TEST(PolicyTest, BestFitCoLocatesWhenMarginalWattsBeatOpening) {
  Fleet fleet(8);
  fleet.place(0, placed(1, 0, 4), DeviceMode::kTimeShared);
  const auto policy = make_policy(PolicyKind::kBestFitWatts);
  const Decision decision =
      policy->decide(fleet, shared_oracle(), placed(2, 0, 4));
  ASSERT_TRUE(decision.accept);
  // Adding a tenant to the merged engine costs the power delta of the
  // shared trie; opening a fresh device pays its full static floor.
  EXPECT_EQ(decision.device, 0u);
}

TEST(PolicyTest, GoldRequestIsNeverSentToATimeSharedDevice) {
  Fleet fleet(4);
  fleet.place(0, placed(1, 0, 2), DeviceMode::kTimeShared);
  for (const PolicyKind kind :
       {PolicyKind::kFirstFit, PolicyKind::kBestFitWatts,
        PolicyKind::kExpCost}) {
    const auto policy = make_policy(kind);
    const Decision decision = policy->decide(
        fleet, shared_oracle(), placed(99, 0, 2, SlaClass::kGold));
    ASSERT_TRUE(decision.accept) << to_string(kind);
    EXPECT_NE(decision.device, 0u) << to_string(kind);
    EXPECT_NE(decision.mode, DeviceMode::kTimeShared) << to_string(kind);
  }
}

TEST(PolicyTest, ExpCostAdmitsOnAnUncongestedFleet) {
  Fleet fleet(8);
  const auto policy = make_policy(PolicyKind::kExpCost);
  const Decision decision =
      policy->decide(fleet, shared_oracle(), placed(1, 0, 4));
  EXPECT_TRUE(decision.accept);
  EXPECT_TRUE(decision.feasible_exists);
}

TEST(PolicyTest, CandidatesAreOneRepresentativePerGroupPlusOpenings) {
  Fleet fleet(6);
  // Two devices in the same shape group, one in another.
  fleet.place(0, placed(1, 0, 4), DeviceMode::kTimeShared);
  fleet.place(1, placed(2, 0, 4), DeviceMode::kTimeShared);
  fleet.place(2, placed(3, 1, 4), DeviceMode::kTimeShared);
  const std::vector<Candidate> candidates =
      feasible_candidates(fleet, shared_oracle(), placed(4, 0, 4));
  // Group representatives are the lowest-indexed member; device 1 (the
  // twin of device 0's group) must not appear.
  std::set<std::size_t> devices;
  for (const Candidate& c : candidates) {
    devices.insert(c.device);
    EXPECT_TRUE(shared_oracle().feasible(c.after));
  }
  EXPECT_TRUE(devices.contains(0));
  EXPECT_FALSE(devices.contains(1));
  EXPECT_TRUE(devices.contains(2));
  // Idle openings use the lowest idle device (3) once per opening mode.
  EXPECT_TRUE(devices.contains(3));
  EXPECT_FALSE(devices.contains(4));
}

// ------------------------------------------------------------ controller --

TEST(ControllerTest, DeparturesRetireVnsAndFreeDevices) {
  CostOracle& oracle = shared_oracle();
  ControllerConfig config;
  config.fleet_size = 4;
  config.keep_trace = true;
  PlacementController controller(&oracle, config);
  std::vector<VnRequest> requests;
  for (std::uint64_t i = 0; i < 4; ++i) {
    VnRequest r;
    r.id = i;
    r.arrival_tick = i;
    r.departure_tick = i + 2;
    r.prefix_count = 400;
    r.mu_q = 4;
    requests.push_back(r);
  }
  // A late permanent arrival forces the departure queue to drain first.
  VnRequest sentinel;
  sentinel.id = 4;
  sentinel.arrival_tick = 100;
  sentinel.prefix_count = 400;
  sentinel.mu_q = 4;
  requests.push_back(sentinel);
  const ControllerResult result = controller.run(requests);
  EXPECT_EQ(result.requests, 5u);
  EXPECT_EQ(result.accepted, 5u);
  EXPECT_EQ(result.departures, 4u);  // all short-lived VNs retired
  EXPECT_EQ(result.devices_active, 1u);  // only the sentinel remains
  ASSERT_EQ(controller.fleet().resident_vns().size(), 1u);
  EXPECT_EQ(controller.fleet().resident_vns()[0].request_id, 4u);
  EXPECT_GE(result.peak_devices_active, 1u);
  ASSERT_EQ(result.trace.size(), 5u);
  for (const PlacementRecord& record : result.trace) {
    EXPECT_TRUE(record.accepted);
  }
}

TEST(ControllerTest, FullFleetRejectionsCountAsInfeasible) {
  CostOracle& oracle = shared_oracle();
  ControllerConfig config;
  config.policy = PolicyKind::kFirstFit;
  config.fleet_size = 1;
  PlacementController controller(&oracle, config);
  RequestStreamConfig stream_config;
  stream_config.seed = 5;
  stream_config.mean_holding_ticks = 0;  // permanent: the device only fills
  RequestStream stream(stream_config);
  const ControllerResult result = controller.run(stream, 200);
  EXPECT_GT(result.accepted, 0u);
  EXPECT_GT(result.rejected, 0u);
  // First-fit has no admission control: every rejection is a capacity one.
  EXPECT_EQ(result.infeasible, result.rejected);
  EXPECT_EQ(result.accepted + result.rejected, result.requests);
}

TEST(ControllerTest, MetricsMirrorTheResultCounters) {
  CostOracle& oracle = shared_oracle();
  obs::Registry registry;
  ControllerConfig config;
  config.fleet_size = 8;
  PlacementController controller(&oracle, config, &registry);
  RequestStreamConfig stream_config;
  stream_config.seed = 9;
  stream_config.mean_holding_ticks = 100;
  RequestStream stream(stream_config);
  const ControllerResult result = controller.run(stream, 500);
  EXPECT_EQ(registry.counter("placement.requests").value(), result.requests);
  EXPECT_EQ(registry.counter("placement.accepted").value(), result.accepted);
  EXPECT_EQ(registry.counter("placement.rejected").value(), result.rejected);
  EXPECT_EQ(registry.counter("placement.infeasible").value(),
            result.infeasible);
  EXPECT_EQ(registry.counter("placement.departures").value(),
            result.departures);
  EXPECT_EQ(registry.counter("placement.migrations").value(),
            result.migrations);
  EXPECT_EQ(registry.gauge("placement.devices_active").value(),
            static_cast<std::int64_t>(result.devices_active));
  EXPECT_EQ(registry.gauge("placement.fleet_mw").value(),
            std::llround(result.fleet_w * 1000.0));
  // The per-device watts histogram uses watt-scaled bucket bounds and
  // records one sample per placement.
  const obs::Histogram& hist = registry.histogram("placement.device_w");
  EXPECT_FALSE(hist.bounds().empty());
  EXPECT_GE(hist.snapshot().count(), result.accepted);
}

// ---------------------------------------------------- recorded decisions --

/// FNV-1a over the little-endian bytes of 64-bit words.
class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (unsigned byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3u;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325u;
};

/// Runs first-fit, best-fit-watts and exp-cost, in that order and with
/// consolidation on, over one seeded stream each, sharing a fresh oracle
/// as perf_placement's runs do. Each run's digest covers every
/// PlacementRecord, the migration and departure counts, the bits of
/// fleet_w and watt_ticks, and the oracle's estimates_computed after it.
std::vector<std::uint64_t> decision_digests(std::size_t fleet_size,
                                            std::uint64_t mean_holding_ticks,
                                            std::uint64_t requests) {
  CostOracle oracle{fpga::DeviceSpec::xc6vlx760()};
  std::vector<std::uint64_t> digests;
  for (const PolicyKind kind : {PolicyKind::kFirstFit,
                                PolicyKind::kBestFitWatts,
                                PolicyKind::kExpCost}) {
    ControllerConfig config;
    config.policy = kind;
    config.fleet_size = fleet_size;
    config.consolidate = true;
    config.keep_trace = true;
    PlacementController controller(&oracle, config);
    RequestStreamConfig stream_config;
    stream_config.seed = 42;
    stream_config.mean_holding_ticks = mean_holding_ticks;
    RequestStream stream(stream_config);
    const ControllerResult result = controller.run(stream, requests);
    Fnv1a digest;
    for (const PlacementRecord& record : result.trace) {
      digest.add(record.request_id);
      digest.add(record.accepted ? 1 : 0);
      digest.add(record.device);
      digest.add(static_cast<std::uint64_t>(record.mode));
    }
    digest.add(result.migrations);
    digest.add(result.departures);
    digest.add(std::bit_cast<std::uint64_t>(result.fleet_w));
    digest.add(std::bit_cast<std::uint64_t>(result.watt_ticks));
    digest.add(oracle.estimates_computed());
    digests.push_back(digest.value());
  }
  return digests;
}

// The digests were recorded from a candidate enumeration that rebuilt
// each group representative's shape from its hosted VNs and an oracle
// that kept its estimates in an ordered map; a change to which device,
// mode or admission any policy picks, or to how many shapes it prices,
// moves them.
TEST(PlacementDigestTest, QuickProfileDecisionsMatchRecordedDigests) {
  // perf_placement --quick: 100 devices, mean holding 2,000, saturating.
  const std::vector<std::uint64_t> digests =
      decision_digests(100, 2000, 20000);
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], 17332738990936948776u) << "first-fit";
  EXPECT_EQ(digests[1], 11836666160704456595u) << "best-fit-watts";
  EXPECT_EQ(digests[2], 10035651877946071043u) << "exp-cost";
}

TEST(PlacementDigestTest, FleetOnlineRegimeDecisionsMatchRecordedDigests) {
  // perfbench fleet-online's regime: 1,000 devices, mean holding 4,000,
  // unsaturated.
  const std::vector<std::uint64_t> digests =
      decision_digests(1000, 4000, 10000);
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], 16262769387915019646u) << "first-fit";
  EXPECT_EQ(digests[1], 2870935069403200992u) << "best-fit-watts";
  EXPECT_EQ(digests[2], 2096634157431528922u) << "exp-cost";
}

// --------------------------------------------------------------- offline --

TEST(OfflineTest, BoundsBracketAndStayOrdered) {
  CostOracle& oracle = shared_oracle();
  std::vector<PlacedVn> vns;
  for (std::uint64_t i = 0; i < 24; ++i) {
    vns.push_back(placed(i, static_cast<std::uint32_t>(i % 3),
                         static_cast<std::uint32_t>(2 + i % 6),
                         i % 7 == 0 ? SlaClass::kGold : SlaClass::kBronze));
  }
  const OfflineBound bound = offline_bound(vns, oracle);
  EXPECT_GT(bound.fractional_lower_w, 0.0);
  EXPECT_GT(bound.greedy_w, 0.0);
  EXPECT_GE(bound.greedy_devices, 1u);
  // The relaxation can only be cheaper than any integral packing.
  EXPECT_LE(bound.fractional_lower_w, bound.greedy_w + 1e-9);

  const OfflineBound empty = offline_bound({}, oracle);
  EXPECT_EQ(empty.greedy_devices, 0u);
  EXPECT_DOUBLE_EQ(empty.greedy_w, 0.0);
  EXPECT_DOUBLE_EQ(empty.fractional_lower_w, 0.0);
}

}  // namespace
}  // namespace vr::placement
