#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "netbase/table_gen.hpp"
#include "tcam/tcam.hpp"
#include "tcam/tcam_power.hpp"

namespace vr::tcam {
namespace {

using net::Ipv4;
using net::Prefix;
using net::RoutingTable;

RoutingTable gen_table(std::uint64_t seed, std::size_t prefixes = 500) {
  net::TableProfile profile;
  profile.prefix_count = prefixes;
  return net::SyntheticTableGenerator(profile).generate(seed);
}

// ------------------------------------------------------------- flat TCAM --

TEST(FlatTcamTest, EntriesAreLongestFirst) {
  const FlatTcam tcam(gen_table(1));
  const auto& entries = tcam.entries();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].prefix_length, entries[i].prefix_length);
  }
}

TEST(FlatTcamTest, SearchEqualsTableOracle) {
  const RoutingTable table = gen_table(2);
  const FlatTcam tcam(table);
  Rng rng(2);
  for (int i = 0; i < 3000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(tcam.search(addr), table.lookup(addr));
  }
}

TEST(FlatTcamTest, AllEntriesTriggeredPerSearch) {
  const FlatTcam tcam(gen_table(3));
  EXPECT_EQ(tcam.entries_triggered_per_search(), tcam.entry_count());
  EXPECT_EQ(tcam.entry_count(), 500u);
}

TEST(FlatTcamTest, EmptyTable) {
  const FlatTcam tcam((RoutingTable()));
  EXPECT_EQ(tcam.entry_count(), 0u);
  EXPECT_EQ(tcam.search(Ipv4(1, 2, 3, 4)), std::nullopt);
}

TEST(FlatTcamTest, DefaultRouteMatchesLast) {
  RoutingTable table;
  table.add(*Prefix::parse("0.0.0.0/0"), 1);
  table.add(*Prefix::parse("10.0.0.0/8"), 2);
  const FlatTcam tcam(table);
  EXPECT_EQ(tcam.search(Ipv4(10, 1, 1, 1)), 2);
  EXPECT_EQ(tcam.search(Ipv4(11, 1, 1, 1)), 1);
}

// ------------------------------------------------------ partitioned TCAM --

class PartitionedTcamProperty
    : public ::testing::TestWithParam<unsigned /*index_bits*/> {};

TEST_P(PartitionedTcamProperty, SearchEqualsFlat) {
  const RoutingTable table = gen_table(4);
  const FlatTcam flat(table);
  const PartitionedTcam partitioned(table, GetParam());
  Rng rng(4);
  for (int i = 0; i < 3000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(partitioned.search(addr), flat.search(addr));
  }
}

TEST_P(PartitionedTcamProperty, TriggersFewerEntriesThanFlat) {
  const RoutingTable table = gen_table(5);
  const FlatTcam flat(table);
  const PartitionedTcam partitioned(table, GetParam());
  EXPECT_LT(partitioned.entries_triggered_per_search(),
            flat.entries_triggered_per_search());
}

INSTANTIATE_TEST_SUITE_P(IndexBits, PartitionedTcamProperty,
                         ::testing::Values(2u, 4u, 6u, 8u));

TEST(PartitionedTcamTest, BankCountAndSelection) {
  const PartitionedTcam tcam(gen_table(6), 4);
  EXPECT_EQ(tcam.bank_count(), 16u);
  EXPECT_EQ(tcam.index_bits(), 4u);
}

TEST(PartitionedTcamTest, ShortPrefixesReplicate) {
  RoutingTable table;
  table.add(*Prefix::parse("0.0.0.0/1"), 1);  // covers 8 of 16 banks at /4
  const PartitionedTcam tcam(table, 4);
  EXPECT_EQ(tcam.entry_count(), 8u);
  // The replicated entry must match in every covered bank.
  EXPECT_EQ(tcam.search(Ipv4(0x10, 0, 0, 0)), 1);
  EXPECT_EQ(tcam.search(Ipv4(0x70, 0, 0, 0)), 1);
  EXPECT_EQ(tcam.search(Ipv4(0x90, 0, 0, 0)), std::nullopt);
}

TEST(PartitionedTcamTest, LongPrefixesLandInOneBank) {
  RoutingTable table;
  table.add(*Prefix::parse("192.0.2.0/24"), 3);
  const PartitionedTcam tcam(table, 8);
  EXPECT_EQ(tcam.entry_count(), 1u);
  EXPECT_EQ(tcam.bank(192).size(), 1u);
}

TEST(PartitionedTcamTest, RejectsBadIndexBits) {
  const RoutingTable table = gen_table(7, 50);
  EXPECT_DEATH(PartitionedTcam(table, 0), "index_bits");
  EXPECT_DEATH(PartitionedTcam(table, 13), "index_bits");
}

// ------------------------------------------------------------- power --

TEST(TcamPowerTest, DynamicScalesWithTriggeredEntries) {
  const TcamPowerReport full = tcam_power(1000, 1000);
  const TcamPowerReport banked = tcam_power(1000, 125);
  EXPECT_NEAR(full.dynamic_w / banked.dynamic_w, 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(full.static_w.value(),
                   banked.static_w.value());  // same stored bits
}

TEST(TcamPowerTest, MagnitudeMatchesLiterature) {
  // A 512K x 36b (18 Mbit-class) TCAM searching every entry at 150 MHz
  // lands in the ~15 W regime the paper's related work describes.
  const TcamPowerReport report = tcam_power(512 * 1024, 512 * 1024);
  EXPECT_GT(report.total_w().value(), 10.0);
  EXPECT_LT(report.total_w().value(), 25.0);
}

TEST(TcamPowerTest, PartitioningCutsMwPerGbps) {
  const RoutingTable table = gen_table(8, 2000);
  const FlatTcam flat(table);
  const PartitionedTcam banked(table, 6);
  const TcamPowerReport flat_power = tcam_power(flat);
  const TcamPowerReport banked_power = tcam_power(banked);
  EXPECT_LT(banked_power.dynamic_w, flat_power.dynamic_w);
  EXPECT_LT(banked_power.mw_per_gbps(), flat_power.mw_per_gbps());
}

TEST(TcamPowerTest, ThroughputFromClock) {
  TcamPowerParams params;
  params.clock_mhz = units::Megahertz{150.0};
  const TcamPowerReport report = tcam_power(100, 100, params);
  EXPECT_NEAR(report.throughput_gbps.value(), 48.0, 1e-9);  // 0.32 * 150
}

}  // namespace
}  // namespace vr::tcam
