#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "netbase/table_gen.hpp"
#include "trie/flat_multibit_trie.hpp"
#include "trie/memory_layout.hpp"
#include "trie/stage_mapping.hpp"
#include "trie/trie_stats.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::trie {
namespace {

using net::Ipv4;
using net::Prefix;
using net::RoutingTable;

RoutingTable small_table() {
  RoutingTable t;
  t.add(*Prefix::parse("0.0.0.0/1"), 1);     // bit0 = 0
  t.add(*Prefix::parse("128.0.0.0/2"), 2);   // 10
  t.add(*Prefix::parse("192.0.0.0/2"), 3);   // 11
  t.add(*Prefix::parse("192.0.2.0/24"), 4);
  return t;
}

// ------------------------------------------------------------ basic build --

TEST(UnibitTrieTest, EmptyTableIsRootOnly) {
  const UnibitTrie trie((RoutingTable()));
  EXPECT_EQ(trie.node_count(), 1u);
  EXPECT_EQ(trie.height(), 0u);
  EXPECT_EQ(trie.level_count(), 1u);
  EXPECT_EQ(trie.lookup(Ipv4(1, 2, 3, 4)), std::nullopt);
}

TEST(UnibitTrieTest, SingleSlashZeroRoute) {
  RoutingTable t;
  t.add(*Prefix::parse("0.0.0.0/0"), 7);
  const UnibitTrie trie(t);
  EXPECT_EQ(trie.node_count(), 1u);
  EXPECT_EQ(trie.lookup(Ipv4(9, 9, 9, 9)), 7);
}

TEST(UnibitTrieTest, HandCheckedLookups) {
  const UnibitTrie trie(small_table());
  EXPECT_EQ(trie.lookup(Ipv4(1, 0, 0, 0)), 1);
  EXPECT_EQ(trie.lookup(Ipv4(130, 0, 0, 0)), 2);
  EXPECT_EQ(trie.lookup(Ipv4(200, 0, 0, 0)), 3);
  EXPECT_EQ(trie.lookup(Ipv4(192, 0, 2, 55)), 4);
}

TEST(UnibitTrieTest, NodeCountMatchesHandCount) {
  // Paths: /1(0) -> 1 node; /2(10),/2(11) -> 3 nodes at depths 1,2 shared
  // root-right; /24 under 11 -> 22 more. Root + 1 + 1 + 2 + 22 = 27.
  const UnibitTrie trie(small_table());
  EXPECT_EQ(trie.node_count(), 27u);
  EXPECT_EQ(trie.height(), 24u);
}

TEST(UnibitTrieTest, LevelOrderIsContiguousAndComplete) {
  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  const UnibitTrie trie(gen.generate(1));
  const auto offsets = trie.level_offsets();
  ASSERT_EQ(offsets.size(), trie.level_count() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), trie.node_count());
  std::size_t total = 0;
  for (std::size_t l = 0; l < trie.level_count(); ++l) {
    total += trie.level(l).size();
    EXPECT_GT(trie.level(l).size(), 0u);
  }
  EXPECT_EQ(total, trie.node_count());
}

TEST(UnibitTrieTest, ChildrenLiveOnNextLevel) {
  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  const UnibitTrie trie(gen.generate(2));
  for (NodeIndex i = 0; i < trie.node_count(); ++i) {
    const std::size_t level = trie.level_of(i);
    const TrieNode& node = trie.node(i);
    if (node.left != kNullNode) {
      EXPECT_EQ(trie.level_of(node.left), level + 1);
    }
    if (node.right != kNullNode) {
      EXPECT_EQ(trie.level_of(node.right), level + 1);
    }
  }
}

TEST(UnibitTrieTest, EveryNodeReachableExactlyOnce) {
  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  const UnibitTrie trie(gen.generate(3));
  std::vector<int> seen(trie.node_count(), 0);
  seen[trie.root()] = 1;
  for (NodeIndex i = 0; i < trie.node_count(); ++i) {
    const TrieNode& node = trie.node(i);
    if (node.left != kNullNode) ++seen[node.left];
    if (node.right != kNullNode) ++seen[node.right];
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

// ---------------------------------------------------- lookup vs. oracle --

class TrieLookupProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieLookupProperty, MatchesLinearScanOracle) {
  net::TableProfile profile;
  profile.prefix_count = 600;
  const net::SyntheticTableGenerator gen(profile);
  const RoutingTable table = gen.generate(GetParam());
  const UnibitTrie trie(table);
  Rng rng(GetParam() ^ 0xabcdef);
  for (int i = 0; i < 2000; ++i) {
    // Half uniform-random addresses, half in-table addresses.
    Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    if (i % 2 == 0) {
      const auto routes = table.routes();
      const net::Route& r = routes[rng.next_below(routes.size())];
      const unsigned host = 32 - r.prefix.length();
      std::uint32_t v = r.prefix.address().value();
      if (host > 0) {
        v |= static_cast<std::uint32_t>(
            rng.next_below(std::uint64_t{1} << host));
      }
      addr = Ipv4(v);
    }
    EXPECT_EQ(trie.lookup(addr), table.lookup(addr));
  }
}

TEST_P(TrieLookupProperty, LeafPushedLookupIdentical) {
  net::TableProfile profile;
  profile.prefix_count = 400;
  const net::SyntheticTableGenerator gen(profile);
  const RoutingTable table = gen.generate(GetParam() + 100);
  const UnibitTrie trie(table);
  const UnibitTrie pushed = trie.leaf_pushed();
  Rng rng(GetParam() ^ 0x1234);
  for (int i = 0; i < 2000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(pushed.lookup(addr), trie.lookup(addr));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieLookupProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------------ leaf push --

class LeafPushProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  UnibitTrie make_pushed() const {
    net::TableProfile profile;
    profile.prefix_count = 500;
    const net::SyntheticTableGenerator gen(profile);
    return UnibitTrie(gen.generate(GetParam())).leaf_pushed();
  }
};

TEST_P(LeafPushProperty, InternalNodesHaveBothChildren) {
  const UnibitTrie pushed = make_pushed();
  for (const TrieNode& node : pushed.nodes()) {
    if (!node.is_leaf()) {
      EXPECT_NE(node.left, kNullNode);
      EXPECT_NE(node.right, kNullNode);
    }
  }
}

TEST_P(LeafPushProperty, OnlyLeavesCarryRoutes) {
  const UnibitTrie pushed = make_pushed();
  for (const TrieNode& node : pushed.nodes()) {
    if (!node.is_leaf()) {
      EXPECT_FALSE(node.has_route());
    }
  }
}

TEST_P(LeafPushProperty, NodeCountIsTwiceInternalPlusOne) {
  const UnibitTrie pushed = make_pushed();
  const TrieStats stats = compute_stats(pushed);
  EXPECT_EQ(stats.total_nodes, 2 * stats.internal_nodes + 1);
}

TEST_P(LeafPushProperty, HeightDoesNotGrow) {
  net::TableProfile profile;
  profile.prefix_count = 500;
  const net::SyntheticTableGenerator gen(profile);
  const UnibitTrie raw(gen.generate(GetParam()));
  EXPECT_EQ(raw.leaf_pushed().height(), raw.height());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeafPushProperty,
                         ::testing::Values(11, 12, 13, 14, 15));

TEST(LeafPushTest, EmptyTrieStaysRootLeaf) {
  const UnibitTrie pushed = UnibitTrie(RoutingTable()).leaf_pushed();
  EXPECT_EQ(pushed.node_count(), 1u);
  EXPECT_TRUE(pushed.is_leaf_pushed());
  EXPECT_EQ(pushed.lookup(Ipv4(1, 1, 1, 1)), std::nullopt);
}

TEST(LeafPushTest, PushesInternalRouteToSyntheticSibling) {
  // /1 route with a deeper /2: the /1's hop must surface on the pushed
  // sibling leaf.
  RoutingTable t;
  t.add(*Prefix::parse("0.0.0.0/1"), 1);
  t.add(*Prefix::parse("0.0.0.0/2"), 2);
  const UnibitTrie pushed = UnibitTrie(t).leaf_pushed();
  EXPECT_EQ(pushed.lookup(Ipv4(0x20, 0, 0, 0)), 2);  // 00...
  EXPECT_EQ(pushed.lookup(Ipv4(0x60, 0, 0, 0)), 1);  // 01...
  EXPECT_EQ(pushed.lookup(Ipv4(0xa0, 0, 0, 0)), std::nullopt);  // 10...
}

// -------------------------------------------------------------- stats --

TEST(TrieStatsTest, CountsSumUp) {
  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  const UnibitTrie trie(gen.generate(1));
  const TrieStats stats = compute_stats(trie);
  EXPECT_EQ(stats.total_nodes, trie.node_count());
  EXPECT_EQ(stats.internal_nodes + stats.leaf_nodes, stats.total_nodes);
  EXPECT_EQ(std::accumulate(stats.nodes_per_level.begin(),
                            stats.nodes_per_level.end(), std::size_t{0}),
            stats.total_nodes);
  for (std::size_t l = 0; l < stats.nodes_per_level.size(); ++l) {
    EXPECT_EQ(stats.internal_per_level[l] + stats.leaves_per_level[l],
              stats.nodes_per_level[l]);
  }
}

TEST(TrieStatsTest, DeepestLevelIsAllLeaves) {
  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  const UnibitTrie trie(gen.generate(2));
  const TrieStats stats = compute_stats(trie);
  EXPECT_EQ(stats.internal_per_level.back(), 0u);
  EXPECT_GT(stats.leaves_per_level.back(), 0u);
}

TEST(TrieStatsTest, CalibrationNearPaperReportedTable) {
  // Sec. V-E: 3 725 prefixes -> 9 726 nodes -> 16 127 leaf-pushed. The
  // synthetic generator is calibrated to land near these (DESIGN.md).
  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  const net::RoutingTable table = gen.generate(1);
  const UnibitTrie raw(table);
  const UnibitTrie pushed = raw.leaf_pushed();
  const double nodes_per_prefix =
      static_cast<double>(raw.node_count()) /
      static_cast<double>(table.size());
  const double expansion = static_cast<double>(pushed.node_count()) /
                           static_cast<double>(raw.node_count());
  EXPECT_NEAR(nodes_per_prefix, 9726.0 / 3725.0, 0.35);
  EXPECT_NEAR(expansion, 16127.0 / 9726.0, 0.15);
  EXPECT_NEAR(static_cast<double>(pushed.node_count()), 16127.0, 1300.0);
}

TEST(TrieStatsTest, NodesPerPrefixHelper) {
  TrieStats stats;
  stats.total_nodes = 100;
  EXPECT_DOUBLE_EQ(stats.nodes_per_prefix(50), 2.0);
  EXPECT_DOUBLE_EQ(stats.nodes_per_prefix(0), 0.0);
}

// ------------------------------------------------------- stage mapping --

TEST(StageMappingTest, OneLevelPerStageIdentity) {
  const StageMapping mapping(10, 28, MappingPolicy::kOneLevelPerStage);
  EXPECT_EQ(mapping.level_count(), 10u);
  EXPECT_EQ(mapping.stage_count(), 28u);
  TrieStats stats;
  for (std::size_t l = 0; l < 10; ++l) {
    stats.internal_per_level.push_back(l + 1);
    stats.leaves_per_level.push_back(2 * l);
    stats.nodes_per_level.push_back(3 * l + 1);
  }
  const StageOccupancy occ = occupancy(stats, mapping);
  ASSERT_EQ(occ.nodes.size(), 28u);
  for (std::size_t s = 0; s < 28; ++s) {
    const bool used = s < 10;
    EXPECT_EQ(occ.nodes[s], used ? 3 * s + 1 : 0u);
    EXPECT_EQ(occ.internal_nodes[s], used ? s + 1 : 0u);
    EXPECT_EQ(occ.leaf_nodes[s], used ? 2 * s : 0u);
  }
}

TEST(StageMappingTest, OneLevelPerStageOverflowThrows) {
  EXPECT_THROW(StageMapping(33, 28, MappingPolicy::kOneLevelPerStage),
               CapacityError);
}

TEST(StageMappingTest, OccupancyAggregatesLevels) {
  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  const UnibitTrie trie(gen.generate(4));
  const TrieStats stats = compute_stats(trie);
  const StageMapping mapping(stats.nodes_per_level.size(), 28,
                             MappingPolicy::kOneLevelPerStage);
  const StageOccupancy occ = occupancy(stats, mapping);
  EXPECT_EQ(std::accumulate(occ.nodes.begin(), occ.nodes.end(),
                            std::size_t{0}),
            stats.total_nodes);
  // Stages past the trie height are empty.
  for (std::size_t s = stats.nodes_per_level.size(); s < 28; ++s) {
    EXPECT_EQ(occ.nodes[s], 0u);
  }
}

// ------------------------------------------------------- memory layout --

TEST(MemoryLayoutTest, WordWidths) {
  const NodeEncoding enc;
  EXPECT_EQ(enc.internal_word_bits(), 36u);  // two 18-bit pointers
  EXPECT_EQ(enc.leaf_word_bits(1), 8u);
  EXPECT_EQ(enc.leaf_word_bits(15), 120u);  // vector leaf, Sec. V-D
}

TEST(MemoryLayoutTest, StageMemoryMatchesHandComputation) {
  StageOccupancy occ;
  occ.nodes = {3, 2};
  occ.internal_nodes = {3, 0};
  occ.leaf_nodes = {0, 2};
  const NodeEncoding enc;
  const StageMemory mem = stage_memory(occ, enc, 4);
  EXPECT_EQ(mem.pointer_bits[0], 3u * 36u);
  EXPECT_EQ(mem.nhi_bits[1], 2u * 8u * 4u);
  EXPECT_EQ(mem.total_bits(), 3u * 36u + 2u * 32u);
  EXPECT_EQ(mem.stage_bits(0), 108u);
}

TEST(MemoryLayoutTest, VnCountScalesOnlyLeaves) {
  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  const UnibitTrie trie(gen.generate(5));
  const TrieStats stats = compute_stats(trie);
  const StageMapping mapping(stats.nodes_per_level.size(), 28,
                             MappingPolicy::kOneLevelPerStage);
  const StageOccupancy occ = occupancy(stats, mapping);
  const NodeEncoding enc;
  const StageMemory one = stage_memory(occ, enc, 1);
  const StageMemory eight = stage_memory(occ, enc, 8);
  EXPECT_EQ(one.total_pointer_bits(), eight.total_pointer_bits());
  EXPECT_EQ(eight.total_nhi_bits(), 8 * one.total_nhi_bits());
}

// ------------------------------------------------- stride-1 flattening --
// FlatMultibitTrie(const UnibitTrie&) keeps every node at its breadth-first
// index: entry (n, b) holds child b of n and that child's next hop, and the
// root's own hop backs the root entries whose child has none.

TEST(FlatTrieTest, EmptyTableFlatViewIsRootOnly) {
  const UnibitTrie trie((RoutingTable()));
  const FlatMultibitTrie flat(trie);
  EXPECT_EQ(flat.stride(), 1u);
  EXPECT_EQ(flat.node_count(), 1u);
  EXPECT_EQ(flat.level_count(), 1u);
  EXPECT_EQ(flat.vn_count(), 1u);
  EXPECT_EQ(flat.child(0, 0), kNullNode);
  EXPECT_EQ(flat.child(0, 1), kNullNode);
  EXPECT_EQ(flat.lookup(Ipv4(1, 2, 3, 4)), std::nullopt);
}

TEST(FlatTrieTest, MirrorsSourceTrieNodeForNode) {
  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  RoutingTable table = gen.generate(3);
  table.add(*Prefix::parse("0.0.0.0/0"), 9);  // the root carries a hop too
  const UnibitTrie trie(table);
  const FlatMultibitTrie flat(trie);
  const std::span<const TrieNode> nodes = trie.nodes();
  ASSERT_EQ(flat.node_count(), nodes.size());
  ASSERT_EQ(flat.level_count(), trie.level_count());
  for (std::size_t l = 0; l < trie.level_count(); ++l) {
    EXPECT_EQ(flat.level_node_counts()[l], trie.level(l).size()) << l;
  }
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const NodeIndex idx = static_cast<NodeIndex>(n);
    const NodeIndex children[2] = {nodes[n].left, nodes[n].right};
    for (std::size_t b = 0; b < 2; ++b) {
      EXPECT_EQ(flat.child(idx, b), children[b]);
      net::NextHop expected = children[b] == kNullNode
                                  ? net::kNoRoute
                                  : nodes[children[b]].next_hop;
      if (n == 0 && expected == net::kNoRoute) expected = nodes[0].next_hop;
      EXPECT_EQ(flat.next_hop(idx, b), expected) << n << '/' << b;
    }
  }
}

TEST(FlatTrieTest, LookupMatchesRoutingTableReference) {
  // The routing table's linear longest-prefix match is an independent
  // reference implementation for both the trie walk and its flattening.
  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  const RoutingTable table = gen.generate(4);
  const UnibitTrie trie(table);
  const FlatMultibitTrie flat(trie);
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(trie.lookup(addr), table.lookup(addr));
    EXPECT_EQ(flat.lookup(addr), table.lookup(addr));
  }
}

TEST(FlatTrieTest, BatchMatchesScalarLoop) {
  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  const UnibitTrie trie = UnibitTrie(gen.generate(5)).leaf_pushed();
  const FlatMultibitTrie flat(trie);
  Rng rng(12);
  std::vector<Ipv4> addrs;
  for (int i = 0; i < 4096; ++i) {
    addrs.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
  }
  const std::vector<net::NextHop> batch = flat.lookup_batch(addrs);
  ASSERT_EQ(batch.size(), addrs.size());
  EXPECT_EQ(trie.lookup_batch(addrs), batch);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    EXPECT_EQ(batch[i], trie.lookup(addrs[i]).value_or(net::kNoRoute)) << i;
  }
}

TEST(FlatTrieTest, FlatteningGuardsItsInput) {
  using Flattener = FlatMultibitTrie::BinaryFlattener;
  const std::vector<std::size_t> one_level{0, 1};
  const std::vector<std::size_t> two_levels{0, 1, 2};
  const net::NextHop none = net::kNoRoute;
  const std::vector<net::NextHop> two_hops{none, 3};
  const auto root_only = [&](NodeIndex left) {
    Flattener flattener(1);
    flattener.add_node(left, kNullNode, {&none, 1});
    return flattener;
  };
  EXPECT_DEATH(Flattener(0), "at least one VN");
  EXPECT_DEATH((void)Flattener(1).finish(one_level), "root");
  EXPECT_DEATH(Flattener(1).add_node(kNullNode, kNullNode, two_hops),
               "one next hop per VN");
  EXPECT_DEATH((void)root_only(kNullNode).finish(two_levels),
               "level offsets");
  // The root points at node 1, which never arrives.
  EXPECT_DEATH((void)root_only(1).finish(one_level),
               "child index out of range");
  // Node 1 arrives where the root's entry names node 2.
  EXPECT_DEATH(root_only(2).add_node(kNullNode, kNullNode, {&none, 1}),
               "breadth-first order");
}

}  // namespace
}  // namespace vr::trie
