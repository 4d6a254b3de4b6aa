#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ipv6/ipv6_trie.hpp"
#include "trie/memory_layout.hpp"
#include "trie/trie_stats.hpp"

namespace vr::ipv6 {
namespace {

// -------------------------------------------------------------- address --

TEST(Ipv6Test, ParsesFullForm) {
  const auto addr = Ipv6::parse("2001:db8:0:0:0:0:0:1");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->hi(), 0x20010db800000000ULL);
  EXPECT_EQ(addr->lo(), 0x0000000000000001ULL);
}

TEST(Ipv6Test, ParsesCompressedForms) {
  EXPECT_EQ(Ipv6::parse("::")->hi(), 0u);
  EXPECT_EQ(Ipv6::parse("::")->lo(), 0u);
  EXPECT_EQ(Ipv6::parse("::1")->lo(), 1u);
  EXPECT_EQ(Ipv6::parse("2001:db8::")->hi(), 0x20010db800000000ULL);
  const auto mid = Ipv6::parse("2001:db8::5:6");
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->lo(), 0x0000000000050006ULL);
}

TEST(Ipv6Test, RejectsMalformed) {
  for (const char* text :
       {"", ":", "1:2:3", "2001:db8:::1", "1:2:3:4:5:6:7:8:9",
        "2001:db8::12345", "g::1", "1:2:3:4:5:6:7:", "::1::2"}) {
    EXPECT_FALSE(Ipv6::parse(text).has_value()) << text;
  }
}

TEST(Ipv6Test, ToStringCompressesLongestRun) {
  EXPECT_EQ(Ipv6(0, 0).to_string(), "::");
  EXPECT_EQ(Ipv6(0, 1).to_string(), "::1");
  EXPECT_EQ(Ipv6(0x20010db800000000ULL, 0).to_string(), "2001:db8::");
  EXPECT_EQ(Ipv6(0x20010db800000000ULL, 1).to_string(), "2001:db8::1");
  // Zero run in the middle.
  EXPECT_EQ(Ipv6(0x0001000000000000ULL, 0x0000000000000001ULL).to_string(),
            "1::1");
}

TEST(Ipv6Test, RoundTripsRandomAddresses) {
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    // Mix of sparse (compressible) and dense addresses.
    Ipv6 addr(rng.next_u64() & (i % 2 ? ~0ULL : 0xffff00000000ffffULL),
              rng.next_u64() & (i % 3 ? ~0ULL : 0xffffULL));
    const auto back = Ipv6::parse(addr.to_string());
    ASSERT_TRUE(back.has_value()) << addr.to_string();
    EXPECT_EQ(*back, addr) << addr.to_string();
  }
}

TEST(Ipv6Test, BitIndexingMsbFirst) {
  const Ipv6 addr(0x8000000000000000ULL, 0x0000000000000001ULL);
  EXPECT_TRUE(addr.bit(0));
  EXPECT_FALSE(addr.bit(1));
  EXPECT_FALSE(addr.bit(64));
  EXPECT_TRUE(addr.bit(127));
}

TEST(Ipv6Test, MaskedClearsHostBits) {
  const Ipv6 addr(0xffffffffffffffffULL, 0xffffffffffffffffULL);
  EXPECT_EQ(addr.masked(0), Ipv6(0, 0));
  EXPECT_EQ(addr.masked(64), Ipv6(~0ULL, 0));
  EXPECT_EQ(addr.masked(96), Ipv6(~0ULL, 0xffffffff00000000ULL));
  EXPECT_EQ(addr.masked(128), addr);
}

// --------------------------------------------------------------- prefix --

TEST(Prefix6Test, ContainsRespectsLength) {
  const Prefix6 p(*Ipv6::parse("2001:db8::"), 32);
  EXPECT_TRUE(p.contains(*Ipv6::parse("2001:db8::1")));
  EXPECT_TRUE(p.contains(*Ipv6::parse("2001:db8:ffff::")));
  EXPECT_FALSE(p.contains(*Ipv6::parse("2001:db9::")));
}

TEST(Prefix6Test, CanonicalizesOnConstruction) {
  const Prefix6 p(*Ipv6::parse("2001:db8::ff"), 32);
  EXPECT_EQ(p.address(), *Ipv6::parse("2001:db8::"));
}

// ---------------------------------------------------------------- table --

TEST(RoutingTable6Test, LongestPrefixWins) {
  RoutingTable6 table;
  table.add(Prefix6(*Ipv6::parse("2001:db8::"), 32), 1);
  table.add(Prefix6(*Ipv6::parse("2001:db8:1::"), 48), 2);
  table.add(Prefix6(*Ipv6::parse("2001:db8:1:2::"), 64), 3);
  EXPECT_EQ(table.lookup(*Ipv6::parse("2001:db8:1:2::9")), 3);
  EXPECT_EQ(table.lookup(*Ipv6::parse("2001:db8:1:3::9")), 2);
  EXPECT_EQ(table.lookup(*Ipv6::parse("2001:db8:9::")), 1);
  EXPECT_EQ(table.lookup(*Ipv6::parse("2002::")), std::nullopt);
}

// ------------------------------------------------------------ generator --

TEST(TableGen6Test, DeterministicAndSized) {
  TableProfile6 profile;
  profile.prefix_count = 400;
  const SyntheticTableGenerator6 gen(profile);
  const RoutingTable6 a = gen.generate(1);
  EXPECT_EQ(a.size(), 400u);
  const RoutingTable6 b = gen.generate(1);
  EXPECT_EQ(a.routes().size(), b.routes().size());
  for (std::size_t i = 0; i < a.routes().size(); ++i) {
    EXPECT_EQ(a.routes()[i], b.routes()[i]);
  }
}

TEST(TableGen6Test, LengthsInProfileRange) {
  TableProfile6 profile;
  profile.prefix_count = 300;
  const SyntheticTableGenerator6 gen(profile);
  const RoutingTable6 table = gen.generate(2);
  for (const Route6& route : table.routes()) {
    EXPECT_GE(route.prefix.length(), 40u);
    EXPECT_LE(route.prefix.length(), 64u);
  }
  EXPECT_EQ(table.max_prefix_length(), 64u);
}

TEST(TableGen6Test, AddressesInGlobalUnicast) {
  TableProfile6 profile;
  profile.prefix_count = 200;
  const SyntheticTableGenerator6 gen(profile);
  const RoutingTable6 table = gen.generate(3);
  for (const Route6& route : table.routes()) {
    EXPECT_EQ(route.prefix.address().hi() >> 61, 1u);  // 2000::/3
  }
}

// ----------------------------------------------------------------- trie --

class Ipv6TrieProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Ipv6TrieProperty, LookupMatchesOracle) {
  TableProfile6 profile;
  profile.prefix_count = 400;
  const SyntheticTableGenerator6 gen(profile);
  const RoutingTable6 table = gen.generate(GetParam());
  const trie::UnibitTrie trie(table);
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    // Half random addresses, half in-table.
    Ipv6 addr(rng.next_u64(), rng.next_u64());
    if (i % 2 == 0) {
      const Route6& r =
          table.routes()[rng.next_below(table.routes().size())];
      const unsigned host = 128 - r.prefix.length();
      Ipv6 base = r.prefix.address();
      // Randomize some host bits (low 64 only, enough for coverage).
      addr = Ipv6(base.hi(),
                  base.lo() | (host >= 64 ? rng.next_u64()
                                          : rng.next_below(
                                                std::uint64_t{1} << host)));
    }
    EXPECT_EQ(lookup(trie, addr), table.lookup(addr));
  }
}

TEST_P(Ipv6TrieProperty, LeafPushPreservesLookups) {
  TableProfile6 profile;
  profile.prefix_count = 250;
  const SyntheticTableGenerator6 gen(profile);
  const RoutingTable6 table = gen.generate(GetParam() + 30);
  const trie::UnibitTrie raw(table);
  const trie::UnibitTrie pushed = raw.leaf_pushed();
  const trie::TrieStats stats = trie::compute_stats(pushed);
  EXPECT_EQ(stats.total_nodes, 2 * stats.internal_nodes + 1);
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    const Ipv6 addr(rng.next_u64(), rng.next_u64());
    EXPECT_EQ(lookup(pushed, addr), lookup(raw, addr));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ipv6TrieProperty,
                         ::testing::Values(1, 2, 3, 4));

TEST(Ipv6TrieTest, HeightBoundedByMaxLength) {
  TableProfile6 profile;
  profile.prefix_count = 300;
  const SyntheticTableGenerator6 gen(profile);
  const trie::UnibitTrie trie(gen.generate(9));
  EXPECT_LE(trie.height(), 64u);
  EXPECT_GT(trie.height(), 40u);
  const trie::TrieStats stats = trie::compute_stats(trie);
  EXPECT_EQ(stats.total_nodes, trie.node_count());
}

// The table extension_ipv6 prices: its leaf-pushed trie reaches /64, so
// it has 65 levels (depths 0-64). One stage per level counts every level's
// memory, and a 64-stage engine is refused instead of losing the deepest
// level's 2,884 leaves.
TEST(Ipv6TrieTest, DefaultTableNeedsOneStagePerLevel) {
  const SyntheticTableGenerator6 gen{TableProfile6{}};
  const trie::UnibitTrie pushed =
      trie::UnibitTrie(gen.generate(1)).leaf_pushed();
  EXPECT_EQ(pushed.level_count(), 65u);
  EXPECT_EQ(pushed.node_count(), 36173u);
  const trie::TrieStats stats = trie::compute_stats(pushed);
  EXPECT_EQ(stats.leaves_per_level[64], 2884u);
  const trie::StageMapping mapping(stats.nodes_per_level.size(), 65,
                                   trie::MappingPolicy::kOneLevelPerStage);
  const trie::StageMemory memory = trie::stage_memory(
      trie::occupancy(stats, mapping), trie::NodeEncoding{}, 1);
  EXPECT_EQ(memory.total_bits(), 795792u);
  EXPECT_EQ(memory.stage_bits(64), 23072u);
  EXPECT_THROW(trie::StageMapping(stats.nodes_per_level.size(), 64,
                                  trie::MappingPolicy::kOneLevelPerStage),
               CapacityError);
}

}  // namespace
}  // namespace vr::ipv6
