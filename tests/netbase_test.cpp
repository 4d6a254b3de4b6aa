#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "netbase/ipv4.hpp"
#include "netbase/prefix.hpp"
#include "netbase/routing_table.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/traffic.hpp"

namespace vr::net {
namespace {

// ------------------------------------------------------------------ ipv4 --

TEST(Ipv4Test, RoundTripsText) {
  for (const char* text : {"0.0.0.0", "192.0.2.1", "255.255.255.255",
                           "10.0.0.1", "1.2.3.4"}) {
    const auto addr = Ipv4::parse(text);
    ASSERT_TRUE(addr.has_value()) << text;
    EXPECT_EQ(addr->to_string(), text);
  }
}

TEST(Ipv4Test, OctetsAndValueAgree) {
  const Ipv4 addr(192, 0, 2, 33);
  EXPECT_EQ(addr.value(), 0xc0000221u);
  EXPECT_EQ(addr.octet(0), 192);
  EXPECT_EQ(addr.octet(1), 0);
  EXPECT_EQ(addr.octet(2), 2);
  EXPECT_EQ(addr.octet(3), 33);
}

TEST(Ipv4Test, RejectsMalformedText) {
  for (const char* text :
       {"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.x", " 1.2.3.4",
        "1.2.3.4 ", "01.2.3.4", "-1.2.3.4", "1..2.3"}) {
    EXPECT_FALSE(Ipv4::parse(text).has_value()) << text;
  }
}

TEST(Ipv4Test, OrdersNumerically) {
  EXPECT_LT(Ipv4(1, 0, 0, 0), Ipv4(2, 0, 0, 0));
  EXPECT_LT(Ipv4(1, 0, 0, 0), Ipv4(1, 0, 0, 1));
}

// ---------------------------------------------------------------- prefix --

TEST(PrefixTest, CanonicalizesHostBits) {
  const Prefix p(Ipv4(192, 0, 2, 255), 24);
  EXPECT_EQ(p.address(), Ipv4(192, 0, 2, 0));
  EXPECT_EQ(p.length(), 24u);
}

TEST(PrefixTest, ZeroLengthMatchesEverything) {
  const Prefix def(Ipv4(0, 0, 0, 0), 0);
  EXPECT_TRUE(def.contains(Ipv4(255, 255, 255, 255)));
  EXPECT_TRUE(def.contains(Ipv4(0, 0, 0, 0)));
}

TEST(PrefixTest, ContainsRespectsLength) {
  const Prefix p(Ipv4(10, 1, 0, 0), 16);
  EXPECT_TRUE(p.contains(Ipv4(10, 1, 200, 9)));
  EXPECT_FALSE(p.contains(Ipv4(10, 2, 0, 0)));
}

TEST(PrefixTest, CoversNestedPrefixes) {
  const Prefix outer(Ipv4(10, 0, 0, 0), 8);
  const Prefix inner(Ipv4(10, 5, 0, 0), 16);
  EXPECT_TRUE(outer.covers(inner));
  EXPECT_FALSE(inner.covers(outer));
  EXPECT_TRUE(outer.covers(outer));
}

TEST(PrefixTest, BitsAreMsbFirst) {
  const Prefix p(Ipv4(0x80, 0, 0, 0), 2);  // binary 10...
  EXPECT_TRUE(p.bit(0));
  EXPECT_FALSE(p.bit(1));
}

TEST(PrefixTest, ParseRoundTrip) {
  const auto p = Prefix::parse("10.20.0.0/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "10.20.0.0/16");
}

TEST(PrefixTest, ParseRejectsNonCanonical) {
  EXPECT_FALSE(Prefix::parse("10.20.0.1/16").has_value());
  EXPECT_FALSE(Prefix::parse("10.20.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.20.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("10.20.0.0/").has_value());
  EXPECT_FALSE(Prefix::parse("10.20.0.0/1x").has_value());
}

TEST(PrefixTest, SlashZeroParses) {
  const auto p = Prefix::parse("0.0.0.0/0");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 0u);
}

// --------------------------------------------------------- routing table --

TEST(RoutingTableTest, AddKeepsSortedUnique) {
  RoutingTable t;
  t.add(*Prefix::parse("10.0.0.0/8"), 1);
  t.add(*Prefix::parse("10.1.0.0/16"), 2);
  t.add(*Prefix::parse("10.0.0.0/8"), 3);  // replaces
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.lookup(Ipv4(10, 200, 0, 1)), 3);
}

TEST(RoutingTableTest, LongestPrefixWins) {
  RoutingTable t;
  t.add(*Prefix::parse("10.0.0.0/8"), 1);
  t.add(*Prefix::parse("10.1.0.0/16"), 2);
  t.add(*Prefix::parse("10.1.2.0/24"), 3);
  EXPECT_EQ(t.lookup(Ipv4(10, 1, 2, 3)), 3);
  EXPECT_EQ(t.lookup(Ipv4(10, 1, 9, 9)), 2);
  EXPECT_EQ(t.lookup(Ipv4(10, 9, 9, 9)), 1);
  EXPECT_EQ(t.lookup(Ipv4(11, 0, 0, 0)), std::nullopt);
}

TEST(RoutingTableTest, DefaultRouteCatchesAll) {
  RoutingTable t;
  t.add(*Prefix::parse("0.0.0.0/0"), 9);
  EXPECT_EQ(t.lookup(Ipv4(1, 2, 3, 4)), 9);
}

TEST(RoutingTableTest, RemoveExistingAndMissing) {
  RoutingTable t;
  t.add(*Prefix::parse("10.0.0.0/8"), 1);
  EXPECT_TRUE(t.remove(*Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(t.remove(*Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(t.empty());
}

TEST(RoutingTableTest, ConstructorDeduplicatesLastWins) {
  std::vector<Route> routes{{*Prefix::parse("10.0.0.0/8"), 1},
                            {*Prefix::parse("10.0.0.0/8"), 2}};
  const RoutingTable t(std::move(routes));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(Ipv4(10, 0, 0, 1)), 2);
}

TEST(RoutingTableTest, MaxPrefixLength) {
  RoutingTable t;
  EXPECT_EQ(t.max_prefix_length(), 0u);
  t.add(*Prefix::parse("10.0.0.0/8"), 1);
  t.add(*Prefix::parse("11.0.0.0/8"), 1);
  t.add(*Prefix::parse("10.1.0.0/16"), 2);
  EXPECT_EQ(t.max_prefix_length(), 16u);
}

// -------------------------------------------------------------- table gen --

TEST(TableGenTest, ProducesExactCountDeterministically) {
  const SyntheticTableGenerator gen(TableProfile::edge_default());
  const RoutingTable a = gen.generate(1);
  const RoutingTable b = gen.generate(1);
  EXPECT_EQ(a.size(), TableProfile::edge_default().prefix_count);
  EXPECT_EQ(a, b);
}

TEST(TableGenTest, DifferentSeedsGiveDifferentTables) {
  const SyntheticTableGenerator gen(TableProfile::edge_default());
  EXPECT_NE(gen.generate(1), gen.generate(2));
}

TEST(TableGenTest, LengthsWithinConfiguredRange) {
  TableProfile profile;
  profile.prefix_count = 500;
  const SyntheticTableGenerator gen(profile);
  const RoutingTable t = gen.generate(3);
  for (const Route& r : t.routes()) {
    EXPECT_GE(r.prefix.length(), profile.min_length);
    EXPECT_LE(r.prefix.length(),
              profile.min_length + profile.length_weights.size() - 1);
  }
}

TEST(TableGenTest, DistributionPeaksAtSlash24) {
  const SyntheticTableGenerator gen(TableProfile::edge_default());
  const RoutingTable table = gen.generate(5);
  std::vector<std::size_t> hist(33, 0);
  for (const Route& r : table.routes()) ++hist[r.prefix.length()];
  const auto peak = std::max_element(hist.begin(), hist.end());
  EXPECT_EQ(peak - hist.begin(), 24);
}

TEST(TableGenTest, NextHopsWithinRange) {
  TableProfile profile;
  profile.prefix_count = 300;
  profile.next_hop_count = 4;
  const SyntheticTableGenerator gen(profile);
  const RoutingTable table = gen.generate(7);
  for (const Route& r : table.routes()) {
    EXPECT_LT(r.next_hop, 4);
  }
}

TEST(TableGenTest, WorstCaseProfileSizes) {
  const SyntheticTableGenerator gen(TableProfile::worst_case());
  EXPECT_EQ(gen.generate(1).size(), 10000u);
}

TEST(TableGenTest, InfeasibleProfileThrows) {
  TableProfile profile;
  profile.prefix_count = 100000;
  profile.provider_blocks = 1;
  profile.density_span = 4;
  profile.length_weights = {1.0};  // only /16
  EXPECT_THROW(SyntheticTableGenerator(profile).generate(1),
               InvalidArgumentError);
}

TEST(TableGenTest, RejectsBadProfiles) {
  TableProfile zero;
  zero.prefix_count = 0;
  EXPECT_DEATH(SyntheticTableGenerator{zero}, "prefix_count");
  TableProfile deep;
  deep.min_length = 30;
  deep.length_weights = {1.0, 1.0, 1.0, 1.0};  // extends past /32
  EXPECT_DEATH(SyntheticTableGenerator{deep}, "past /32");
}

// ---------------------------------------------------------------- traffic --

class TrafficTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableProfile profile;
    profile.prefix_count = 200;
    const SyntheticTableGenerator gen(profile);
    for (std::uint64_t s = 0; s < 3; ++s) {
      tables_.push_back(gen.generate(s + 10));
    }
    for (const auto& t : tables_) ptrs_.push_back(&t);
  }

  std::vector<RoutingTable> tables_;
  std::vector<const RoutingTable*> ptrs_;
};

TEST_F(TrafficTest, DeterministicTraces) {
  TrafficConfig config;
  config.cycles = 2000;
  const TrafficGenerator gen(config, ptrs_);
  EXPECT_EQ(gen.generate(42), gen.generate(42));
}

TEST_F(TrafficTest, EveryPacketMatchesItsTable) {
  TrafficConfig config;
  config.cycles = 2000;
  const TrafficGenerator gen(config, ptrs_);
  for (const TimedPacket& tp : gen.generate(1)) {
    ASSERT_LT(tp.packet.vnid, tables_.size());
    EXPECT_TRUE(
        tables_[tp.packet.vnid].lookup(tp.packet.addr).has_value());
  }
}

TEST_F(TrafficTest, LoadControlsVolume) {
  TrafficConfig config;
  config.cycles = 20000;
  config.load = 0.25;
  const TrafficGenerator gen(config, ptrs_);
  const auto trace = gen.generate(2);
  EXPECT_NEAR(static_cast<double>(trace.size()) / 20000.0, 0.25, 0.02);
}

// Share of a trace's packets per VN.
std::vector<double> measured_shares(const std::vector<TimedPacket>& trace,
                                    std::size_t vn_count) {
  std::vector<double> shares(vn_count, 0.0);
  for (const TimedPacket& tp : trace) shares[tp.packet.vnid] += 1.0;
  for (double& s : shares) s /= static_cast<double>(trace.size());
  return shares;
}

TEST_F(TrafficTest, UniformSharesByDefault) {
  TrafficConfig config;
  config.cycles = 30000;
  const TrafficGenerator gen(config, ptrs_);
  const auto shares = measured_shares(gen.generate(3), 3);
  for (const double share : shares) EXPECT_NEAR(share, 1.0 / 3.0, 0.02);
}

TEST_F(TrafficTest, WeightedShares) {
  TrafficConfig config;
  config.cycles = 30000;
  config.vn_weights = {1.0, 1.0, 2.0};
  const TrafficGenerator gen(config, ptrs_);
  const auto shares = measured_shares(gen.generate(4), 3);
  EXPECT_NEAR(shares[2], 0.5, 0.02);
}

TEST_F(TrafficTest, DutyCycleGatesArrivals) {
  TrafficConfig config;
  config.cycles = 10000;
  config.duty_period = 100;
  config.duty_on_fraction = 0.2;
  const TrafficGenerator gen(config, ptrs_);
  const auto trace = gen.generate(5);
  for (const TimedPacket& tp : trace) {
    EXPECT_LT(tp.cycle % 100, 20u);
  }
  EXPECT_NEAR(static_cast<double>(trace.size()) / 10000.0, 0.2, 0.02);
}

TEST_F(TrafficTest, CyclesAreMonotonic) {
  TrafficConfig config;
  config.cycles = 5000;
  const TrafficGenerator gen(config, ptrs_);
  const auto trace = gen.generate(6);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LT(trace[i - 1].cycle, trace[i].cycle);
  }
}

TEST_F(TrafficTest, RejectsBadConfig) {
  TrafficConfig config;
  config.load = 2.0;
  EXPECT_DEATH(TrafficGenerator(config, ptrs_), "load");
  TrafficConfig weights;
  weights.vn_weights = {1.0};  // wrong size for 3 tables
  EXPECT_DEATH(TrafficGenerator(weights, ptrs_), "vn_weights");
}

TEST_F(TrafficTest, PhasedWindowsGateEachVnSeparately) {
  TrafficConfig config;
  config.cycles = 12000;
  config.duty_period = 1000;
  config.duty_on_fraction = 0.25;
  config.vn_phase_offsets = {0.0, 0.25, 0.5};
  const TrafficGenerator gen(config, ptrs_);
  for (const TimedPacket& tp : gen.generate(41)) {
    const std::uint64_t phase = tp.cycle % 1000;
    const std::uint64_t start = 250ull * tp.packet.vnid;
    const std::uint64_t rel = (phase + 1000 - start) % 1000;
    EXPECT_LT(rel, 250u) << "vn " << tp.packet.vnid << " cycle "
                         << tp.cycle;
  }
}

TEST_F(TrafficTest, AlignedPhasesOfferIndependentLoads) {
  // Three tenants aligned at full load: ~3 packets per on-cycle.
  TrafficConfig config;
  config.cycles = 8000;
  config.duty_period = 1000;
  config.duty_on_fraction = 0.5;
  config.load = 1.0;
  config.vn_phase_offsets = {0.0, 0.0, 0.0};
  const TrafficGenerator gen(config, ptrs_);
  const auto trace = gen.generate(43);
  EXPECT_NEAR(static_cast<double>(trace.size()), 3.0 * 4000.0, 10.0);
}

TEST_F(TrafficTest, PhaseOffsetsValidated) {
  TrafficConfig config;
  config.vn_phase_offsets = {0.0, 0.5};  // wrong size for 3 tables
  EXPECT_DEATH(TrafficGenerator(config, ptrs_), "vn_phase_offsets");
  TrafficConfig bad;
  bad.vn_phase_offsets = {0.0, 0.5, 1.5};
  EXPECT_DEATH(TrafficGenerator(bad, ptrs_), "phase offsets");
}

TEST_F(TrafficTest, SamplePacketRandomizesHostBits) {
  TrafficConfig config;
  const TrafficGenerator gen(config, ptrs_);
  Rng rng(9);
  std::set<std::uint32_t> addrs;
  for (int i = 0; i < 200; ++i) {
    addrs.insert(gen.sample_packet(rng, 0).addr.value());
  }
  EXPECT_GT(addrs.size(), 50u);
}

}  // namespace
}  // namespace vr::net
