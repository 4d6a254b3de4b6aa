#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "multipipe/multipipe_power.hpp"
#include "multipipe/partition.hpp"
#include "netbase/table_gen.hpp"
#include "trie/trie_stats.hpp"

namespace vr::multipipe {
namespace {

using net::Ipv4;
using net::RoutingTable;
using trie::UnibitTrie;

UnibitTrie make_trie(std::uint64_t seed, std::size_t prefixes = 800,
                     bool leaf_push = true) {
  net::TableProfile profile;
  profile.prefix_count = prefixes;
  const RoutingTable table =
      net::SyntheticTableGenerator(profile).generate(seed);
  UnibitTrie trie(table);
  return leaf_push ? trie.leaf_pushed() : trie;
}

// --------------------------------------------------------------- lookup --

class PartitionLookupProperty
    : public ::testing::TestWithParam<unsigned /*split level*/> {};

TEST_P(PartitionLookupProperty, LookupMatchesTrie) {
  const UnibitTrie trie = make_trie(GetParam());
  PartitionConfig config;
  config.split_level = GetParam() % 12 + 2;
  config.pipeline_count = 4;
  const PartitionedTrie partition(trie, config);
  Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(partition.lookup(addr), trie.lookup(addr));
  }
}

TEST_P(PartitionLookupProperty, NonPushedTrieAlsoMatches) {
  const UnibitTrie trie = make_trie(GetParam() + 40, 600, false);
  PartitionConfig config;
  config.split_level = 8;
  config.pipeline_count = 3;
  const PartitionedTrie partition(trie, config);
  Rng rng(GetParam() ^ 0x55);
  for (int i = 0; i < 2000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(partition.lookup(addr), trie.lookup(addr));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionLookupProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ------------------------------------------------------------ structure --

TEST(PartitionTest, DepthBoundShrinksWithSplitLevel) {
  const UnibitTrie trie = make_trie(1);
  std::size_t prev = trie.level_count() + 1;
  for (const unsigned s : {2u, 6u, 10u, 14u}) {
    PartitionConfig config;
    config.split_level = s;
    config.pipeline_count = 4;
    const PartitionedTrie partition(trie, config);
    EXPECT_LE(partition.pipeline_depth(), prev);
    EXPECT_LE(partition.pipeline_depth(), trie.level_count() - s + 1);
    prev = partition.pipeline_depth();
  }
}

TEST(PartitionTest, AllSubtrieNodesAssignedExactlyOnce) {
  const UnibitTrie trie = make_trie(2);
  PartitionConfig config;
  config.split_level = 8;
  config.pipeline_count = 4;
  const PartitionedTrie partition(trie, config);
  std::size_t assigned = 0;
  for (std::size_t p = 0; p < config.pipeline_count; ++p) {
    assigned += partition.pipeline_nodes(p);
  }
  // Nodes above the split live in the index, not the pipelines.
  const trie::TrieStats stats = trie::compute_stats(trie);
  std::size_t below_split = 0;
  for (std::size_t l = config.split_level; l < stats.nodes_per_level.size();
       ++l) {
    below_split += stats.nodes_per_level[l];
  }
  EXPECT_EQ(assigned, below_split);
}

TEST(PartitionTest, BalanceFactorReasonable) {
  const UnibitTrie trie = make_trie(3, 2000);
  PartitionConfig config;
  config.split_level = 10;
  config.pipeline_count = 8;
  const PartitionedTrie partition(trie, config);
  EXPECT_GE(partition.balance_factor(), 1.0);
  EXPECT_LE(partition.balance_factor(), 1.5);  // greedy largest-first
}

TEST(PartitionTest, IndexBitsAccountPipelineIdPointerNhi) {
  const UnibitTrie trie = make_trie(4);
  PartitionConfig config;
  config.split_level = 6;
  config.pipeline_count = 4;  // 2 id bits
  const PartitionedTrie partition(trie, config);
  EXPECT_EQ(partition.index_bits(), 64u * (2u + 18u + 8u));
}

TEST(PartitionTest, RejectsBadConfig) {
  const UnibitTrie trie = make_trie(6, 100);
  EXPECT_DEATH(PartitionedTrie(trie, {0, 2}), "split_level");
  EXPECT_DEATH(PartitionedTrie(trie, {17, 2}), "split_level");
  EXPECT_DEATH(PartitionedTrie(trie, {8, 0}), "pipeline");
}

// ---------------------------------------------------------------- power --

class MultipipePowerTest : public ::testing::Test {
 protected:
  fpga::DeviceSpec device_ = fpga::DeviceSpec::xc6vlx760();
};

TEST_F(MultipipePowerTest, DeeperSplitCutsLogicPower) {
  const UnibitTrie trie = make_trie(7, 3725);
  MultipipeReport prev;
  bool first = true;
  for (const unsigned s : {2u, 6u, 10u}) {
    PartitionConfig config;
    config.split_level = s;
    config.pipeline_count = 4;
    const PartitionedTrie partition(trie, config);
    MultipipeModelOptions options;
    const MultipipeReport report =
        evaluate_multipipe(partition, device_, options);
    if (!first) {
      EXPECT_LT(report.pipeline_depth, prev.pipeline_depth);
    }
    first = false;
    prev = report;
  }
}

TEST_F(MultipipePowerTest, MorePipelinesRaiseThroughput) {
  const UnibitTrie trie = make_trie(8, 2000);
  units::Gbps prev_gbps{0.0};
  for (const std::size_t p : {1ul, 2ul, 4ul}) {
    PartitionConfig config;
    config.split_level = 8;
    config.pipeline_count = p;
    const PartitionedTrie partition(trie, config);
    const MultipipeReport report = evaluate_multipipe(partition, device_);
    EXPECT_GT(report.throughput_gbps, prev_gbps);
    prev_gbps = report.throughput_gbps;
  }
}

TEST_F(MultipipePowerTest, BeatsLinearPipelineOnEfficiency) {
  // The green-router claim ([7]/[8]): depth-bounded multi-pipeline gives
  // better mW/Gbps than the 28-stage linear pipeline at the same load.
  const UnibitTrie trie = make_trie(9, 3725);
  PartitionConfig config;
  config.split_level = 12;
  config.pipeline_count = 8;
  const PartitionedTrie multi(trie, config);
  const MultipipeReport multi_report = evaluate_multipipe(multi, device_);

  // Linear baseline: same trie in one 28-stage pipeline at full load.
  PartitionConfig linear_config;
  linear_config.split_level = 1;
  linear_config.pipeline_count = 1;
  const PartitionedTrie linear(trie, linear_config);
  const MultipipeReport linear_report =
      evaluate_multipipe(linear, device_);

  EXPECT_LT(multi_report.mw_per_gbps(), linear_report.mw_per_gbps());
}

TEST_F(MultipipePowerTest, LoadScalesDynamicOnly) {
  const UnibitTrie trie = make_trie(10, 1000);
  PartitionConfig config;
  config.split_level = 8;
  config.pipeline_count = 4;
  const PartitionedTrie partition(trie, config);
  MultipipeModelOptions half;
  half.load = 0.5;
  const MultipipeReport full = evaluate_multipipe(partition, device_);
  const MultipipeReport halved = evaluate_multipipe(partition, device_, half);
  EXPECT_NEAR(halved.logic_w.value(), 0.5 * full.logic_w.value(), 1e-12);
  EXPECT_NEAR(halved.memory_w.value(), 0.5 * full.memory_w.value(), 1e-12);
  EXPECT_DOUBLE_EQ(halved.static_w.value(), full.static_w.value());
}

}  // namespace
}  // namespace vr::multipipe
