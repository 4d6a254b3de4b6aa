#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/update_gen.hpp"
#include "power/update_power.hpp"
#include "trie/updatable_trie.hpp"
#include "virt/merged_trie.hpp"

namespace vr {
namespace {

using net::Ipv4;
using net::Prefix;
using net::Route;
using net::RouteUpdate;
using net::RoutingTable;
using trie::UpdatableTrie;

RoutingTable gen_table(std::uint64_t seed, std::size_t prefixes = 400) {
  net::TableProfile profile;
  profile.prefix_count = prefixes;
  return net::SyntheticTableGenerator(profile).generate(seed);
}

// ---------------------------------------------------------- UpdatableTrie --

TEST(UpdatableTrieTest, FreshBuildMatchesUnibitTrie) {
  const RoutingTable table = gen_table(1);
  const UpdatableTrie dynamic(table);
  const trie::UnibitTrie reference(table);
  EXPECT_EQ(dynamic.node_count(), reference.node_count());
  EXPECT_EQ(dynamic.route_count(0), table.size());
  EXPECT_EQ(dynamic.present_count(0), dynamic.node_count());
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(dynamic.lookup(addr, 0), reference.lookup(addr));
  }
}

TEST(UpdatableTrieTest, AnnounceCreatesPathOnce) {
  UpdatableTrie trie;
  const auto cost = trie.announce(0, {*Prefix::parse("192.0.2.0/24"), 7});
  EXPECT_EQ(cost.nodes_created, 24u);
  // Two words per created node (parent pointer + node word); at K = 1 the
  // next hop sits in the last node's own word, so nothing more.
  EXPECT_EQ(cost.words_written, 48u);
  EXPECT_EQ(trie.node_count(), 25u);  // root + 24
  // Re-announcing the identical route writes nothing.
  const auto repeat = trie.announce(0, {*Prefix::parse("192.0.2.0/24"), 7});
  EXPECT_EQ(repeat.nodes_created, 0u);
  EXPECT_EQ(repeat.words_written, 0u);
}

TEST(UpdatableTrieTest, PathChangeWritesOneWord) {
  UpdatableTrie trie;
  trie.announce(0, {*Prefix::parse("10.0.0.0/8"), 1});
  const auto cost = trie.announce(0, {*Prefix::parse("10.0.0.0/8"), 2});
  EXPECT_EQ(cost.nodes_created, 0u);
  EXPECT_EQ(cost.words_written, 1u);
  EXPECT_EQ(trie.lookup(Ipv4(10, 1, 1, 1), 0), 2);
  EXPECT_EQ(trie.route_count(0), 1u);
}

TEST(UpdatableTrieTest, WithdrawPrunesDeadBranch) {
  UpdatableTrie trie;
  trie.announce(0, {*Prefix::parse("10.0.0.0/8"), 1});
  trie.announce(0, {*Prefix::parse("10.32.0.0/11"), 2});
  const std::size_t before = trie.node_count();
  const auto cost = trie.withdraw(0, *Prefix::parse("10.32.0.0/11"));
  EXPECT_EQ(cost.nodes_removed, 3u);  // depths 9..11 below the /8 node
  EXPECT_EQ(trie.node_count(), before - 3);
  EXPECT_EQ(trie.lookup(Ipv4(10, 32, 0, 1), 0), 1);  // /8 still covers
}

TEST(UpdatableTrieTest, WithdrawKeepsSharedPath) {
  UpdatableTrie trie;
  trie.announce(0, {*Prefix::parse("10.0.0.0/8"), 1});
  trie.announce(0, {*Prefix::parse("10.0.0.0/16"), 2});
  trie.withdraw(0, *Prefix::parse("10.0.0.0/16"));
  EXPECT_EQ(trie.node_count(), 9u);  // root + 8 (the /8 path)
  EXPECT_EQ(trie.lookup(Ipv4(10, 0, 5, 5), 0), 1);
}

TEST(UpdatableTrieTest, WithdrawMissingIsFreeNoOp) {
  UpdatableTrie trie;
  trie.announce(0, {*Prefix::parse("10.0.0.0/8"), 1});
  const auto cost = trie.withdraw(0, *Prefix::parse("11.0.0.0/8"));
  EXPECT_EQ(cost.words_written, 0u);
  EXPECT_EQ(cost.nodes_removed, 0u);
  EXPECT_EQ(trie.route_count(0), 1u);
}

TEST(UpdatableTrieTest, WithdrawInternalRouteKeepsChildren) {
  UpdatableTrie trie;
  trie.announce(0, {*Prefix::parse("10.0.0.0/8"), 1});
  trie.announce(0, {*Prefix::parse("10.1.0.0/16"), 2});
  trie.withdraw(0, *Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(trie.lookup(Ipv4(10, 1, 0, 1), 0), 2);
  EXPECT_EQ(trie.lookup(Ipv4(10, 2, 0, 1), 0), std::nullopt);
}

TEST(UpdatableTrieTest, FreedSlotsAreReused) {
  UpdatableTrie trie;
  trie.announce(0, {*Prefix::parse("10.0.0.0/8"), 1});
  const std::size_t pool_after_first = trie.pool_size();
  trie.withdraw(0, *Prefix::parse("10.0.0.0/8"));
  trie.announce(0, {*Prefix::parse("192.0.0.0/8"), 2});
  EXPECT_EQ(trie.pool_size(), pool_after_first);  // recycled, not grown
}

TEST(UpdatableTrieTest, SlashZeroRoute) {
  UpdatableTrie trie;
  trie.announce(0, {*Prefix::parse("0.0.0.0/0"), 9});
  EXPECT_EQ(trie.node_count(), 1u);
  EXPECT_EQ(trie.lookup(Ipv4(200, 1, 2, 3), 0), 9);
  trie.withdraw(0, *Prefix::parse("0.0.0.0/0"));
  EXPECT_EQ(trie.lookup(Ipv4(200, 1, 2, 3), 0), std::nullopt);
  EXPECT_EQ(trie.node_count(), 1u);  // root never pruned
}

TEST(UpdatableTrieTest, ToTableRoundTrips) {
  const RoutingTable table = gen_table(3);
  UpdatableTrie trie(table);
  EXPECT_EQ(trie.table_of(0), table);
}

class UpdateStreamProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(UpdateStreamProperty, TrieTracksOracleThroughStream) {
  const RoutingTable base = gen_table(GetParam(), 300);
  net::UpdateStreamConfig config;
  config.update_count = 400;
  config.profile.prefix_count = 300;
  const net::UpdateStreamGenerator gen(config);
  const auto stream = gen.generate(base, GetParam() ^ 0xbeef);

  UpdatableTrie trie(base);
  RoutingTable oracle = base;
  Rng rng(GetParam());
  for (const RouteUpdate& update : stream) {
    trie.apply(0, update);
    if (update.kind == RouteUpdate::Kind::kAnnounce) {
      oracle.add(update.route);
    } else {
      oracle.remove(update.route.prefix);
    }
    // Spot-check lookups as the stream progresses.
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(trie.lookup(addr, 0), oracle.lookup(addr));
  }
  EXPECT_EQ(trie.table_of(0), oracle);
  EXPECT_EQ(trie.route_count(0), oracle.size());
  // The incrementally maintained trie is structurally identical to a
  // fresh build of the final table.
  EXPECT_EQ(trie.node_count(), trie::UnibitTrie(oracle).node_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateStreamProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// -------------------------------------------------------- update streams --

TEST(UpdateStreamGenTest, DeterministicAndSized) {
  const RoutingTable base = gen_table(7, 200);
  net::UpdateStreamConfig config;
  config.update_count = 250;
  config.profile.prefix_count = 200;
  const net::UpdateStreamGenerator gen(config);
  const auto a = gen.generate(base, 1);
  const auto b = gen.generate(base, 1);
  EXPECT_EQ(a.size(), 250u);
  EXPECT_EQ(a, b);
}

TEST(UpdateStreamGenTest, WithdrawsAlwaysTargetInstalledRoutes) {
  const RoutingTable base = gen_table(8, 200);
  net::UpdateStreamConfig config;
  config.update_count = 300;
  config.profile.prefix_count = 200;
  const net::UpdateStreamGenerator gen(config);
  RoutingTable live = base;
  for (const RouteUpdate& update : gen.generate(base, 2)) {
    if (update.kind == RouteUpdate::Kind::kWithdraw) {
      EXPECT_TRUE(live.contains(update.route.prefix));
      live.remove(update.route.prefix);
    } else {
      live.add(update.route);
    }
  }
}

TEST(UpdateStreamGenTest, MixFollowsWeights) {
  const RoutingTable base = gen_table(9, 300);
  net::UpdateStreamConfig config;
  config.update_count = 2000;
  config.withdraw_weight = 0.0;
  config.announce_new_weight = 0.0;
  config.reannounce_weight = 1.0;
  config.profile.prefix_count = 300;
  const net::UpdateStreamGenerator gen(config);
  for (const RouteUpdate& update : gen.generate(base, 3)) {
    EXPECT_EQ(update.kind, RouteUpdate::Kind::kAnnounce);
    EXPECT_TRUE(base.contains(update.route.prefix) ||
                true);  // re-announces may chain; kind check is the point
  }
}

// A request no positive-weight operation can finish dies naming the stall
// instead of looping forever.
TEST(UpdateStreamGenTest, WithdrawOnlyStreamOnTinyTableDies) {
  const RoutingTable base(std::vector<Route>{
      {*Prefix::parse("10.0.0.0/8"), 1}, {*Prefix::parse("10.1.0.0/16"), 2}});
  net::UpdateStreamConfig config;
  config.update_count = 5;
  config.withdraw_weight = 1.0;
  config.announce_new_weight = 0.0;
  config.reannounce_weight = 0.0;
  const net::UpdateStreamGenerator gen(config);
  EXPECT_DEATH((void)gen.generate(base, 1), "stalled after 2 of 5");
}

TEST(UpdateStreamGenTest, ReannounceOnlyStreamWithOneNextHopDies) {
  net::UpdateStreamConfig config;
  config.update_count = 10;
  config.withdraw_weight = 0.0;
  config.announce_new_weight = 0.0;
  config.reannounce_weight = 1.0;
  config.profile.prefix_count = 50;
  config.profile.next_hop_count = 1;
  const RoutingTable base =
      net::SyntheticTableGenerator(config.profile).generate(4);
  const net::UpdateStreamGenerator gen(config);
  EXPECT_DEATH((void)gen.generate(base, 1), "stalled after 0 of 10");
}

// ------------------------------------------------- UpdatableTrie at K >= 2 --

class MergedUpdateFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint64_t v = 0; v < kVns; ++v) {
      tables_.push_back(gen_table(20 + v, 250));
    }
    for (const auto& t : tables_) ptrs_.push_back(&t);
  }

  static constexpr std::size_t kVns = 4;
  std::vector<RoutingTable> tables_;
  std::vector<const RoutingTable*> ptrs_;
};

TEST_F(MergedUpdateFixture, FreshBuildMatchesStaticMerge) {
  const UpdatableTrie dynamic{
      std::span<const RoutingTable* const>(ptrs_)};
  std::vector<trie::UnibitTrie> tries;
  for (const auto& t : tables_) tries.emplace_back(t);
  std::vector<const trie::UnibitTrie*> trie_ptrs;
  for (const auto& t : tries) trie_ptrs.push_back(&t);
  const virt::MergedTrie static_merge{
      std::span<const trie::UnibitTrie* const>(trie_ptrs)};
  EXPECT_EQ(dynamic.node_count(), static_merge.node_count());
  EXPECT_NEAR(dynamic.alpha_effective(),
              static_merge.stats().alpha_effective(kVns), 1e-12);
  for (net::VnId v = 0; v < kVns; ++v) {
    EXPECT_EQ(dynamic.present_count(v), tries[v].node_count());
  }
}

TEST_F(MergedUpdateFixture, LookupsMatchTables) {
  const UpdatableTrie merged{
      std::span<const RoutingTable* const>(ptrs_)};
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    const auto vn = static_cast<net::VnId>(rng.next_below(kVns));
    EXPECT_EQ(merged.lookup(addr, vn), tables_[vn].lookup(addr));
  }
}

TEST_F(MergedUpdateFixture, PerVnStreamsTrackOracles) {
  UpdatableTrie merged{std::span<const RoutingTable* const>(ptrs_)};
  std::vector<RoutingTable> oracles = tables_;
  net::UpdateStreamConfig config;
  config.update_count = 200;
  config.profile.prefix_count = 250;
  const net::UpdateStreamGenerator gen(config);
  Rng rng(6);
  for (net::VnId v = 0; v < kVns; ++v) {
    for (const RouteUpdate& update : gen.generate(oracles[v], 100 + v)) {
      merged.apply(v, update);
      if (update.kind == RouteUpdate::Kind::kAnnounce) {
        oracles[v].add(update.route);
      } else {
        oracles[v].remove(update.route.prefix);
      }
    }
  }
  for (net::VnId v = 0; v < kVns; ++v) {
    EXPECT_EQ(merged.table_of(v), oracles[v]) << "vn " << v;
    EXPECT_EQ(merged.route_count(v), oracles[v].size());
    for (int i = 0; i < 500; ++i) {
      const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
      EXPECT_EQ(merged.lookup(addr, v), oracles[v].lookup(addr));
    }
  }
  // Structure equals a fresh static merge of the final tables.
  std::vector<trie::UnibitTrie> tries;
  for (const auto& t : oracles) tries.emplace_back(t);
  std::vector<const trie::UnibitTrie*> trie_ptrs;
  for (const auto& t : tries) trie_ptrs.push_back(&t);
  const virt::MergedTrie rebuilt{
      std::span<const trie::UnibitTrie* const>(trie_ptrs)};
  EXPECT_EQ(merged.node_count(), rebuilt.node_count());
  EXPECT_NEAR(merged.alpha_effective(),
              rebuilt.stats().alpha_effective(kVns), 1e-12);
}

TEST_F(MergedUpdateFixture, WithdrawingSharedNodeKeepsOtherVns) {
  UpdatableTrie merged{std::span<const RoutingTable* const>(ptrs_)};
  // Install the same prefix for two VNs, withdraw it from one.
  const Route route{*Prefix::parse("203.0.0.0/24"), 5};
  merged.announce(0, route);
  merged.announce(1, route);
  merged.withdraw(0, route.prefix);
  EXPECT_EQ(merged.lookup(Ipv4(203, 0, 0, 9), 0),
            tables_[0].lookup(Ipv4(203, 0, 0, 9)));
  EXPECT_EQ(merged.lookup(Ipv4(203, 0, 0, 9), 1), 5);
}

TEST_F(MergedUpdateFixture, SharedLeafVectorWritesCostOneWord) {
  UpdatableTrie merged{std::span<const RoutingTable* const>(ptrs_)};
  const Route route{*Prefix::parse("198.51.100.0/24"), 3};
  const auto first = merged.announce(0, route);
  EXPECT_GT(first.nodes_created, 0u);
  // At K >= 2 the hop goes into the separate NHI vector: one word more
  // than the created path.
  EXPECT_EQ(first.words_written, 2 * first.nodes_created + 1);
  // Second VN re-uses the whole path: one NHI-vector entry write only.
  const auto second = merged.announce(1, route);
  EXPECT_EQ(second.nodes_created, 0u);
  EXPECT_EQ(second.words_written, 1u);
}

TEST(UpdatableMergedTrieTest, RejectsTooManyVns) {
  std::vector<const RoutingTable*> many(65, nullptr);
  EXPECT_DEATH(UpdatableTrie{std::span<const RoutingTable* const>(
                   many)},
               "1..64");
}

/// The next hop `table` holds for exactly `prefix`, if any.
std::optional<net::NextHop> exact_hop(const RoutingTable& table,
                                      const Prefix& prefix) {
  for (const Route& route : table.routes()) {
    if (route.prefix == prefix) return route.next_hop;
  }
  return std::nullopt;
}

/// The first, middle and last address a prefix covers.
std::vector<Ipv4> probe_addresses(const Prefix& prefix) {
  const std::uint32_t first = prefix.address().value();
  const std::uint32_t span =
      prefix.length() == 0 ? 0xffffffffu
                           : (std::uint32_t{1} << (32 - prefix.length())) - 1;
  return {Ipv4(first), Ipv4(first + span / 2), Ipv4(first + span)};
}

// Seeded per-VN streams interleaved round-robin at K = 3, each ending with
// a hostile batch: withdraw of an absent prefix, a duplicate announce, /0
// announced then withdrawn, a /32, announce-withdraw-announce of one
// prefix, and a prefix VNs 0 and 1 share that VN 0 then withdraws.
TEST(UpdatableMergedTrieTest, HostileInterleavedStreamsTrackOracles) {
  constexpr std::size_t kVns = 3;
  std::vector<RoutingTable> oracles;
  for (std::uint64_t v = 0; v < kVns; ++v) {
    oracles.push_back(gen_table(40 + v, 250));
  }
  std::vector<const RoutingTable*> ptrs;
  for (const auto& t : oracles) ptrs.push_back(&t);
  UpdatableTrie merged{std::span<const RoutingTable* const>(ptrs)};

  const auto prefix = [](const char* text) { return *Prefix::parse(text); };
  const Prefix absent = prefix("203.0.113.0/25");
  const Prefix deflt = prefix("0.0.0.0/0");
  const Prefix host = prefix("198.51.100.7/32");
  const Prefix flapping = prefix("100.64.0.0/10");
  const Prefix shared = prefix("192.0.2.0/24");
  const std::vector<Prefix> hostile_prefixes{absent, deflt, host, flapping,
                                             shared};
  for (const RoutingTable& t : oracles) {
    for (const Prefix& p : hostile_prefixes) ASSERT_FALSE(t.contains(p));
  }

  net::UpdateStreamConfig config;
  config.update_count = 150;
  config.profile.prefix_count = 250;
  const net::UpdateStreamGenerator gen(config);
  using Kind = RouteUpdate::Kind;
  std::vector<std::vector<RouteUpdate>> streams;
  std::vector<Prefix> probed = hostile_prefixes;
  for (net::VnId v = 0; v < kVns; ++v) {
    std::vector<RouteUpdate> stream = gen.generate(oracles[v], 60 + v);
    const Route existing = oracles[v].routes()[oracles[v].size() / 2];
    probed.push_back(existing.prefix);
    const auto hop = static_cast<net::NextHop>(10 + v);
    // VNs 0 and 1 announce the shared prefix in the same round; VN 0
    // withdraws it at the end of its batch.
    if (v < 2) stream.push_back({Kind::kAnnounce, {shared, hop}});
    const std::vector<RouteUpdate> hostile{
        {Kind::kWithdraw, {absent, net::kNoRoute}},
        {Kind::kAnnounce, existing},
        {Kind::kAnnounce, existing},
        {Kind::kAnnounce, {deflt, hop}},
        {Kind::kWithdraw, {deflt, net::kNoRoute}},
        {Kind::kAnnounce, {host, hop}},
        {Kind::kAnnounce, {flapping, hop}},
        {Kind::kWithdraw, {flapping, net::kNoRoute}},
        {Kind::kAnnounce, {flapping, static_cast<net::NextHop>(hop + 1)}},
    };
    stream.insert(stream.end(), hostile.begin(), hostile.end());
    if (v == 0) stream.push_back({Kind::kWithdraw, {shared, net::kNoRoute}});
    streams.push_back(std::move(stream));
  }

  std::size_t longest = 0;
  for (const auto& stream : streams) longest = std::max(longest, stream.size());
  for (std::size_t i = 0; i < longest; ++i) {
    for (net::VnId v = 0; v < kVns; ++v) {
      if (i >= streams[v].size()) continue;
      const RouteUpdate& update = streams[v][i];
      const std::optional<net::NextHop> before =
          exact_hop(oracles[v], update.route.prefix);
      const bool no_op = update.kind == Kind::kAnnounce
                             ? before == update.route.next_hop
                             : !before.has_value();
      const trie::UpdateCost cost = merged.apply(v, update);
      if (no_op) {
        EXPECT_EQ(cost.words_written, 0u) << "vn " << v << " update " << i;
      }
      if (update.kind == Kind::kAnnounce) {
        oracles[v].add(update.route);
      } else {
        oracles[v].remove(update.route.prefix);
      }
      for (net::VnId w = 0; w < kVns; ++w) {
        for (const Prefix& p : probed) {
          for (const Ipv4 addr : probe_addresses(p)) {
            ASSERT_EQ(merged.lookup(addr, w), oracles[w].lookup(addr))
                << "vn " << w << " at " << addr.to_string() << " after vn "
                << v << " update " << i;
          }
        }
      }
    }
  }
  EXPECT_FALSE(merged.table_of(0).contains(shared));
  EXPECT_EQ(merged.lookup(Ipv4(192, 0, 2, 1), 1), 11);
  EXPECT_FALSE(merged.table_of(2).contains(shared));

  // The incrementally maintained trie equals a fresh build of the final
  // tables (`ptrs` points at the oracles).
  const UpdatableTrie fresh{std::span<const RoutingTable* const>(ptrs)};
  EXPECT_EQ(merged.node_count(), fresh.node_count());
  EXPECT_DOUBLE_EQ(merged.alpha_effective(), fresh.alpha_effective());
  for (net::VnId v = 0; v < kVns; ++v) {
    EXPECT_EQ(merged.table_of(v), oracles[v]) << "vn " << v;
    EXPECT_EQ(merged.route_count(v), oracles[v].size());
    EXPECT_EQ(merged.present_count(v), fresh.present_count(v)) << "vn " << v;
  }
}

TEST(UpdatableMergedTrieTest, OutOfRangeVnDies) {
  const RoutingTable table = gen_table(41, 50);
  const std::vector<const RoutingTable*> ptrs(3, &table);
  UpdatableTrie merged{std::span<const RoutingTable* const>(ptrs)};
  const Route route{*Prefix::parse("10.0.0.0/8"), 1};
  EXPECT_DEATH((void)merged.announce(3, route), "VNID out of range");
  EXPECT_DEATH((void)merged.withdraw(3, route.prefix), "VNID out of range");
  EXPECT_DEATH((void)merged.lookup(Ipv4(10, 0, 0, 1), 3), "VNID out of range");
  EXPECT_DEATH((void)merged.table_of(3), "VNID out of range");
  EXPECT_DEATH((void)merged.present_count(3), "VNID out of range");
  EXPECT_DEATH((void)merged.route_count(3), "VNID out of range");
}

/// Builds K tables of 70,000 /24 routes each (VN v's start v /8s higher)
/// and checks that every VN holds and exports all of them: no per-node
/// route counter caps a VN's table.
void expect_seventy_thousand_routes_per_vn(std::size_t vns) {
  constexpr std::uint32_t kRoutes = 70000;
  std::vector<RoutingTable> tables;
  for (std::uint32_t v = 0; v < vns; ++v) {
    std::vector<Route> routes;
    routes.reserve(kRoutes);
    for (std::uint32_t i = 0; i < kRoutes; ++i) {
      routes.push_back({Prefix(Ipv4(((10 + v) << 24) + (i << 8)), 24),
                        static_cast<net::NextHop>(i % 16)});
    }
    tables.emplace_back(std::move(routes));
  }
  std::vector<const RoutingTable*> ptrs;
  for (const auto& t : tables) ptrs.push_back(&t);
  const UpdatableTrie trie{std::span<const RoutingTable* const>(ptrs)};
  for (net::VnId v = 0; v < vns; ++v) {
    EXPECT_EQ(trie.route_count(v), kRoutes);
    EXPECT_EQ(trie.table_of(v), tables[v]) << "vn " << v;
  }
}

TEST(UpdatableTrieTest, HoldsSeventyThousandRoutes) {
  expect_seventy_thousand_routes_per_vn(1);
}

TEST(UpdatableMergedTrieTest, HoldsSeventyThousandRoutesPerVn) {
  expect_seventy_thousand_routes_per_vn(2);
}

// ----------------------------------------------------- update power model --

TEST(UpdatePowerTest, BaselineRateIsNeutral) {
  EXPECT_DOUBLE_EQ(
      power::adjusted_bram_power_w(units::Watts{2.0}, 0.01).value(), 2.0);
}

TEST(UpdatePowerTest, PowerRisesWithWriteRate) {
  const double base =
      power::adjusted_bram_power_w(units::Watts{2.0}, 0.01).value();
  const double busy =
      power::adjusted_bram_power_w(units::Watts{2.0}, 0.5).value();
  EXPECT_GT(busy, base);
  EXPECT_NEAR(busy, 2.0 * (1.0 + 0.30 * 0.49), 1e-12);
}

TEST(UpdatePowerTest, SlotStealingReducesCapacity) {
  power::UpdateLoad load;
  load.updates_per_second = 1e6;
  load.words_per_update = 40.0;
  // 40e6 writes/s at 400 MHz = 10 % of slots.
  EXPECT_NEAR(load.write_slot_fraction(units::Megahertz{400.0}), 0.1, 1e-12);
  EXPECT_NEAR(
      power::effective_lookup_gbps(units::Megahertz{400.0}, load).value(),
      0.9 * 128.0, 1e-9);
}

TEST(UpdatePowerTest, MeasuredLoadMatchesManualReplay) {
  const RoutingTable base = gen_table(11, 200);
  net::UpdateStreamConfig config;
  config.update_count = 100;
  config.profile.prefix_count = 200;
  const net::UpdateStreamGenerator gen(config);
  const auto stream = gen.generate(base, 4);
  const power::UpdateLoad load =
      power::measure_update_load(base, stream, 1000.0);
  UpdatableTrie trie(base);
  std::size_t words = 0;
  for (const RouteUpdate& update : stream) {
    words += trie.apply(0, update).words_written;
  }
  EXPECT_NEAR(load.words_per_update, static_cast<double>(words) / 100.0,
              1e-12);
  EXPECT_GT(load.words_per_update, 0.0);
}

}  // namespace
}  // namespace vr
