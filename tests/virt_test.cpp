#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "netbase/table_gen.hpp"
#include "trie/trie_stats.hpp"
#include "virt/merged_trie.hpp"
#include "virt/overlap_model.hpp"
#include "virt/table_set_gen.hpp"

namespace vr::virt {
namespace {

using net::Ipv4;
using net::Prefix;
using net::RoutingTable;
using trie::UnibitTrie;

std::vector<UnibitTrie> build_tries(const std::vector<RoutingTable>& tables,
                                    bool leaf_push) {
  std::vector<UnibitTrie> tries;
  tries.reserve(tables.size());
  for (const auto& t : tables) {
    UnibitTrie trie(t);
    tries.push_back(leaf_push ? trie.leaf_pushed() : std::move(trie));
  }
  return tries;
}

MergedTrie merge(const std::vector<UnibitTrie>& tries) {
  std::vector<const UnibitTrie*> ptrs;
  ptrs.reserve(tries.size());
  for (const auto& t : tries) ptrs.push_back(&t);
  return MergedTrie(std::span<const UnibitTrie* const>(ptrs));
}

std::vector<RoutingTable> sample_tables(std::size_t k, std::size_t prefixes,
                                        std::uint64_t seed) {
  net::TableProfile profile;
  profile.prefix_count = prefixes;
  const net::SyntheticTableGenerator gen(profile);
  std::vector<RoutingTable> tables;
  for (std::size_t i = 0; i < k; ++i) {
    tables.push_back(gen.generate(seed + i));
  }
  return tables;
}

// ----------------------------------------------------------- basic merge --

TEST(MergedTrieTest, SingleInputIsIsomorphic) {
  const auto tables = sample_tables(1, 300, 1);
  const auto tries = build_tries(tables, false);
  const MergedTrie merged = merge(tries);
  EXPECT_EQ(merged.node_count(), tries[0].node_count());
  EXPECT_EQ(merged.height(), tries[0].height());
  EXPECT_EQ(merged.vn_count(), 1u);
  EXPECT_DOUBLE_EQ(merged.stats().alpha_effective(1), 1.0);
}

TEST(MergedTrieTest, IdenticalInputsFullyShare) {
  const auto tables = sample_tables(1, 300, 2);
  std::vector<RoutingTable> same{tables[0], tables[0], tables[0]};
  const auto tries = build_tries(same, false);
  const MergedTrie merged = merge(tries);
  EXPECT_EQ(merged.node_count(), tries[0].node_count());
  EXPECT_DOUBLE_EQ(merged.stats().alpha_effective(3), 1.0);
  EXPECT_DOUBLE_EQ(merged.stats().alpha_structural(), 1.0);
  EXPECT_EQ(merged.stats().shared_all, merged.node_count());
}

TEST(MergedTrieTest, DisjointInputsShareOnlyTopPaths) {
  RoutingTable a;
  a.add(*Prefix::parse("0.0.0.0/2"), 1);  // 00
  RoutingTable b;
  b.add(*Prefix::parse("192.0.0.0/2"), 2);  // 11
  const auto tries = build_tries({a, b}, false);
  const MergedTrie merged = merge(tries);
  // root shared; two disjoint 2-node paths.
  EXPECT_EQ(merged.node_count(), 5u);
  EXPECT_EQ(merged.stats().shared_any, 1u);  // only the root
  EXPECT_NEAR(merged.stats().alpha_effective(2), 0.2, 1e-12);
}

TEST(MergedTrieTest, LevelOffsetsConsistent) {
  const auto tables = sample_tables(4, 400, 3);
  const auto tries = build_tries(tables, true);
  const MergedTrie merged = merge(tries);
  const auto offsets = merged.level_offsets();
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), merged.node_count());
  std::size_t total = 0;
  for (std::size_t l = 0; l < merged.level_count(); ++l) {
    total += merged.image()->level_node_counts()[l];
  }
  EXPECT_EQ(total, merged.node_count());
}

TEST(MergedTrieTest, ChildIndicesPointToNextLevel) {
  const auto tables = sample_tables(3, 300, 4);
  const auto tries = build_tries(tables, false);
  const MergedTrie merged = merge(tries);
  const auto offsets = merged.level_offsets();
  for (std::size_t l = 0; l + 1 < merged.level_count(); ++l) {
    for (std::size_t i = offsets[l]; i < offsets[l + 1]; ++i) {
      const auto node = static_cast<trie::NodeIndex>(i);
      for (const std::size_t slot : {0u, 1u}) {
        const trie::NodeIndex child = merged.image()->child(node, slot);
        if (child == trie::kNullNode) continue;
        EXPECT_GE(child, offsets[l + 1]);
        EXPECT_LT(child, offsets[l + 2]);
      }
    }
  }
}

TEST(MergedTrieTest, MergedHeightIsMaxInputHeight) {
  const auto tables = sample_tables(3, 200, 5);
  const auto tries = build_tries(tables, false);
  unsigned max_height = 0;
  for (const auto& t : tries) max_height = std::max(max_height, t.height());
  EXPECT_EQ(merge(tries).height(), max_height);
}

TEST(MergedTrieTest, SumInputNodesRecorded) {
  const auto tables = sample_tables(2, 200, 6);
  const auto tries = build_tries(tables, false);
  const MergedTrie merged = merge(tries);
  EXPECT_EQ(merged.stats().sum_input_nodes,
            tries[0].node_count() + tries[1].node_count());
}

// -------------------------------------------- per-VN lookup correctness --

class MergedLookupProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MergedLookupProperty, LookupsMatchPerVnTries) {
  const auto tables = sample_tables(5, 400, GetParam());
  const auto tries = build_tries(tables, false);
  const MergedTrie merged = merge(tries);
  Rng rng(GetParam() ^ 0x777);
  for (int i = 0; i < 3000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    const auto vn = static_cast<net::VnId>(rng.next_below(5));
    EXPECT_EQ(merged.lookup(addr, vn), tries[vn].lookup(addr))
        << addr.to_string() << " vn " << vn;
  }
}

TEST_P(MergedLookupProperty, LeafPushedLookupsMatchToo) {
  const auto tables = sample_tables(4, 300, GetParam() + 50);
  const auto tries = build_tries(tables, true);
  const MergedTrie merged = merge(tries);
  Rng rng(GetParam() ^ 0x999);
  for (int i = 0; i < 3000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    const auto vn = static_cast<net::VnId>(rng.next_below(4));
    EXPECT_EQ(merged.lookup(addr, vn), tries[vn].lookup(addr));
  }
}

TEST_P(MergedLookupProperty, LookupsMatchTableOracle) {
  const auto tables = sample_tables(3, 250, GetParam() + 90);
  const auto tries = build_tries(tables, false);
  const MergedTrie merged = merge(tries);
  Rng rng(GetParam());
  for (int i = 0; i < 1500; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    const auto vn = static_cast<net::VnId>(rng.next_below(3));
    EXPECT_EQ(merged.lookup(addr, vn), tables[vn].lookup(addr));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergedLookupProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------------ merged as trie --

TEST(MergedTrieTest, StatsAsTrieSumsMatch) {
  const auto tables = sample_tables(3, 300, 7);
  const auto tries = build_tries(tables, true);
  const MergedTrie merged = merge(tries);
  const trie::TrieStats stats = merged.stats_as_trie();
  EXPECT_EQ(stats.total_nodes, merged.node_count());
  EXPECT_EQ(stats.internal_nodes + stats.leaf_nodes, stats.total_nodes);
  EXPECT_EQ(stats.height, merged.height());
}

TEST(MergedTrieTest, LeafPushedInputsYieldFullMergedInternalNodes) {
  const auto tables = sample_tables(3, 300, 8);
  const auto tries = build_tries(tables, true);
  const MergedTrie merged = merge(tries);
  const trie::FlatMultibitTrie& image = *merged.image();
  for (std::size_t n = 0; n < merged.node_count(); ++n) {
    const auto node = static_cast<trie::NodeIndex>(n);
    const trie::NodeIndex left = image.child(node, 0);
    const trie::NodeIndex right = image.child(node, 1);
    if (left != trie::kNullNode || right != trie::kNullNode) {
      // Merging full binary tries preserves two-children internal nodes.
      EXPECT_NE(left, trie::kNullNode);
      EXPECT_NE(right, trie::kNullNode);
    }
  }
}

// --------------------------------------------------------- overlap model --

TEST(OverlapModelTest, MergedNodeCountLimits) {
  EXPECT_DOUBLE_EQ(merged_node_count(4, 100.0, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(merged_node_count(4, 100.0, 0.0), 400.0);
  EXPECT_DOUBLE_EQ(merged_node_count(1, 100.0, 0.5), 100.0);
}

TEST(OverlapModelTest, MergedNodeCountMonotoneInAlpha) {
  double prev = merged_node_count(8, 1000.0, 0.0);
  for (double alpha = 0.1; alpha <= 1.0; alpha += 0.1) {
    const double t = merged_node_count(8, 1000.0, alpha);
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(OverlapModelTest, AlphaFromCountsInvertsForward) {
  for (const double alpha : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    const double t = merged_node_count(6, 500.0, alpha);
    EXPECT_NEAR(alpha_from_counts(6, 6 * 500.0, t), alpha, 1e-12);
  }
}

TEST(OverlapModelTest, AlphaFromCountsClamps) {
  EXPECT_DOUBLE_EQ(alpha_from_counts(4, 100.0, 1000.0), 0.0);
  EXPECT_DOUBLE_EQ(alpha_from_counts(4, 1000.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(alpha_from_counts(1, 100.0, 100.0), 1.0);
}

TEST(OverlapModelTest, MeasuredEffectiveAlphaAgreesWithFormula) {
  const auto tables = sample_tables(3, 300, 9);
  const auto tries = build_tries(tables, false);
  const MergedTrie merged = merge(tries);
  const double expected = alpha_from_counts(
      3, static_cast<double>(merged.stats().sum_input_nodes),
      static_cast<double>(merged.node_count()));
  EXPECT_NEAR(merged.stats().alpha_effective(3), expected, 1e-12);
}

class PredictMergedMemory : public ::testing::Test {
 protected:
  void SetUp() override {
    const net::SyntheticTableGenerator gen(
        net::TableProfile::edge_default());
    trie_ = std::make_unique<UnibitTrie>(
        UnibitTrie(gen.generate(1)).leaf_pushed());
    stats_ = trie::compute_stats(*trie_);
    mapping_ = std::make_unique<trie::StageMapping>(
        stats_.nodes_per_level.size(), 28,
        trie::MappingPolicy::kOneLevelPerStage);
  }

  std::unique_ptr<UnibitTrie> trie_;
  trie::TrieStats stats_;
  std::unique_ptr<trie::StageMapping> mapping_;
  trie::NodeEncoding enc_;
};

TEST_F(PredictMergedMemory, KOneEqualsSingleTrie) {
  const trie::StageMemory merged =
      predict_merged_stage_memory(stats_, *mapping_, enc_, 1, 1.0);
  const trie::StageMemory single =
      predict_separate_stage_memory(stats_, *mapping_, enc_);
  EXPECT_EQ(merged.total_pointer_bits(), single.total_pointer_bits());
  EXPECT_EQ(merged.total_nhi_bits(), single.total_nhi_bits());
}

TEST_F(PredictMergedMemory, PointerMemoryShrinksWithAlpha) {
  const auto lo = predict_merged_stage_memory(stats_, *mapping_, enc_, 8,
                                              0.2);
  const auto hi = predict_merged_stage_memory(stats_, *mapping_, enc_, 8,
                                              0.8);
  EXPECT_GT(lo.total_pointer_bits(), hi.total_pointer_bits());
  EXPECT_GT(lo.total_nhi_bits(), hi.total_nhi_bits());
}

TEST_F(PredictMergedMemory, FullOverlapBeatsSeparateOnPointers) {
  // α=1: merged pointer memory equals ONE table's; separate pays K×.
  const auto merged =
      predict_merged_stage_memory(stats_, *mapping_, enc_, 8, 1.0);
  const auto single = predict_separate_stage_memory(stats_, *mapping_, enc_);
  EXPECT_EQ(merged.total_pointer_bits(), single.total_pointer_bits());
  // NHI memory still grows (vector leaves) — Fig. 4 right.
  EXPECT_EQ(merged.total_nhi_bits(), 8 * single.total_nhi_bits());
}

TEST_F(PredictMergedMemory, PaperLiteralRuleGrowsWithAlpha) {
  const auto lo = predict_merged_stage_memory(
      stats_, *mapping_, enc_, 8, 0.2, MergedMemoryRule::kPaperLiteral);
  const auto hi = predict_merged_stage_memory(
      stats_, *mapping_, enc_, 8, 0.8, MergedMemoryRule::kPaperLiteral);
  // The literal Eq. 5 is dimensionally inconsistent with Fig. 4: memory
  // grows with α. This test pins the ablation behaviour.
  EXPECT_LT(lo.total_bits(), hi.total_bits());
}

TEST_F(PredictMergedMemory, AnalyticTracksStructuralMergeWithin15Percent) {
  // Build a real correlated set, measure α, and check the closed form
  // predicts the structural merged node count closely.
  TableSetConfig config;
  config.profile.prefix_count = 800;
  const CorrelatedTableSetGenerator gen(config);
  const TableSet set = gen.generate(6, 0.3, 42);
  const auto tries = build_tries(set.tables, true);
  const MergedTrie merged = merge(tries);
  const double alpha = merged.stats().alpha_effective(6);
  const double avg_nodes =
      static_cast<double>(merged.stats().sum_input_nodes) / 6.0;
  const double predicted = merged_node_count(6, avg_nodes, alpha);
  EXPECT_NEAR(predicted / static_cast<double>(merged.node_count()), 1.0,
              0.15);
}

// ----------------------------------------------------------- table sets --

TEST(TableSetGenTest, MutationZeroGivesIdenticalTables) {
  TableSetConfig config;
  config.profile.prefix_count = 400;
  const CorrelatedTableSetGenerator gen(config);
  const TableSet set = gen.generate(4, 0.0, 7);
  for (std::size_t v = 1; v < 4; ++v) {
    EXPECT_EQ(set.tables[v], set.tables[0]);
  }
  EXPECT_NEAR(set.measured_alpha, 1.0, 1e-9);
}

TEST(TableSetGenTest, MutationLowersAlphaMonotonically) {
  TableSetConfig config;
  config.profile.prefix_count = 500;
  const CorrelatedTableSetGenerator gen(config);
  double prev = 1.1;
  for (const double m : {0.0, 0.3, 0.7, 1.0}) {
    const TableSet set = gen.generate(4, m, 11);
    EXPECT_LT(set.measured_alpha, prev + 1e-9);
    prev = set.measured_alpha;
  }
}

TEST(TableSetGenTest, TablesKeepRequestedSize) {
  TableSetConfig config;
  config.profile.prefix_count = 500;
  const CorrelatedTableSetGenerator gen(config);
  const TableSet set = gen.generate(5, 0.5, 13);
  for (const auto& table : set.tables) {
    EXPECT_NEAR(static_cast<double>(table.size()), 500.0, 5.0);
  }
}

TEST(TableSetGenTest, GenerateWithAlphaHitsTargets) {
  TableSetConfig config;
  config.profile.prefix_count = 600;
  config.alpha_tolerance = 0.05;
  const CorrelatedTableSetGenerator gen(config);
  for (const double target : {0.2, 0.5, 0.8}) {
    const TableSet set = gen.generate_with_alpha(5, target, 17);
    EXPECT_NEAR(set.measured_alpha, target, 0.08)
        << "target " << target;
  }
}

TEST(TableSetGenTest, DeterministicForSeed) {
  TableSetConfig config;
  config.profile.prefix_count = 300;
  const CorrelatedTableSetGenerator gen(config);
  const TableSet a = gen.generate(3, 0.4, 23);
  const TableSet b = gen.generate(3, 0.4, 23);
  for (std::size_t v = 0; v < 3; ++v) {
    EXPECT_EQ(a.tables[v], b.tables[v]);
  }
  EXPECT_DOUBLE_EQ(a.measured_alpha, b.measured_alpha);
}

TEST(TableSetGenTest, SingleVnShortCircuits) {
  TableSetConfig config;
  config.profile.prefix_count = 200;
  const CorrelatedTableSetGenerator gen(config);
  const TableSet set = gen.generate_with_alpha(1, 0.2, 29);
  EXPECT_EQ(set.tables.size(), 1u);
  EXPECT_DOUBLE_EQ(set.measured_alpha, 1.0);
}

}  // namespace
}  // namespace vr::virt
