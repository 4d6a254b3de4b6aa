#include <gtest/gtest.h>

#include <map>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/traffic.hpp"
#include "fpga/xpe_tables.hpp"
#include "pipeline/lookup_engine.hpp"
#include "pipeline/router.hpp"
#include "power/activity_model.hpp"
#include "trie/memory_layout.hpp"

namespace vr::pipeline {
namespace {

using net::Ipv4;
using net::Packet;
using net::RoutingTable;
using trie::UnibitTrie;

constexpr std::size_t kStages = 28;

RoutingTable gen_table(std::uint64_t seed, std::size_t prefixes = 400) {
  net::TableProfile profile;
  profile.prefix_count = prefixes;
  return net::SyntheticTableGenerator(profile).generate(seed);
}

// -------------------------------------------------------- lookup engine --

TEST(LookupEngineTest, LatencyIsExactlyStageCount) {
  const RoutingTable table = gen_table(1);
  const UnibitTrie trie(table);
  LookupEngine engine{TrieView(trie), kStages};
  std::vector<LookupResult> out;
  ASSERT_TRUE(engine.offer(Packet{Ipv4(10, 0, 0, 1), 0}));
  for (std::size_t c = 0; c < kStages; ++c) {
    engine.tick(&out);
  }
  // The packet enters the pipe on the first tick and exits after kStages
  // more stage traversals.
  EXPECT_TRUE(out.empty());
  engine.tick(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].exit_cycle, kStages + 1);
}

TEST(LookupEngineTest, SustainsOnePacketPerCycle) {
  const RoutingTable table = gen_table(2);
  const UnibitTrie trie(table);
  LookupEngine engine{TrieView(trie), kStages};
  std::vector<LookupResult> out;
  const std::size_t n = 500;
  std::size_t offered = 0;
  std::uint64_t cycles = 0;
  while (out.size() < n) {
    if (offered < n) {
      if (engine.offer(Packet{Ipv4(10, 0, 0, 1), 0})) ++offered;
    }
    engine.tick(&out);
    ++cycles;
  }
  // Full back-to-back throughput: n packets in n + latency cycles.
  EXPECT_LE(cycles, n + kStages + 1);
  EXPECT_EQ(engine.packets_out(), n);
}

TEST(LookupEngineTest, OfferRefusesSecondPacketSameCycle) {
  const RoutingTable table = gen_table(3);
  const UnibitTrie trie(table);
  LookupEngine engine{TrieView(trie), kStages};
  EXPECT_TRUE(engine.offer(Packet{Ipv4(1, 2, 3, 4), 0}));
  EXPECT_FALSE(engine.offer(Packet{Ipv4(1, 2, 3, 5), 0}));
  std::vector<LookupResult> out;
  engine.tick(&out);
  EXPECT_TRUE(engine.offer(Packet{Ipv4(1, 2, 3, 5), 0}));
}

TEST(LookupEngineTest, ResultsMatchTrieLookups) {
  const RoutingTable table = gen_table(4);
  const UnibitTrie trie(table);
  LookupEngine engine{TrieView(trie), kStages};
  Rng rng(4);
  std::vector<Packet> packets;
  for (int i = 0; i < 300; ++i) {
    packets.push_back(Packet{Ipv4(static_cast<std::uint32_t>(rng.next_u64())),
                             0});
  }
  std::vector<LookupResult> out;
  std::size_t offered = 0;
  while (out.size() < packets.size()) {
    if (offered < packets.size() && engine.offer(packets[offered])) {
      ++offered;
    }
    engine.tick(&out);
  }
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(out[i].packet, packets[i]);  // in-order completion
    EXPECT_EQ(out[i].next_hop, trie.lookup(packets[i].addr));
  }
}

TEST(LookupEngineTest, DeepTrieRejected) {
  const RoutingTable table = gen_table(5);
  const UnibitTrie trie(table);  // height ~24
  EXPECT_THROW(LookupEngine(TrieView(trie), 10), CapacityError);
}

TEST(LookupEngineTest, DrainedReflectsOccupancy) {
  const RoutingTable table = gen_table(6);
  const UnibitTrie trie(table);
  LookupEngine engine{TrieView(trie), kStages};
  EXPECT_TRUE(engine.drained());
  ASSERT_TRUE(engine.offer(Packet{Ipv4(9, 9, 9, 9), 0}));
  EXPECT_FALSE(engine.drained());
  std::vector<LookupResult> out;
  for (std::size_t c = 0; c <= kStages + 1; ++c) engine.tick(&out);
  EXPECT_TRUE(engine.drained());
}

TEST(LookupEngineTest, IdleStagesAreClockGated) {
  const RoutingTable table = gen_table(7);
  const UnibitTrie trie(table);
  LookupEngine engine{TrieView(trie), kStages};
  std::vector<LookupResult> out;
  // One packet through an otherwise idle pipe: each stage busy <= 1 cycle.
  ASSERT_TRUE(engine.offer(Packet{Ipv4(10, 0, 0, 1), 0}));
  for (std::size_t c = 0; c < kStages + 2; ++c) engine.tick(&out);
  const power::ActivityCounters& counters = engine.activity();
  for (const std::uint64_t busy : counters.stage_busy) {
    EXPECT_LE(busy, 1u);
  }
  // Reads stop once the traversal terminates (trie shallower than pipe).
  std::uint64_t total_reads = 0;
  for (const std::uint64_t reads : counters.stage_reads) {
    total_reads += reads;
  }
  EXPECT_LE(total_reads, trie.level_count());
  EXPECT_GE(total_reads, 1u);
}

/// Number of nodes on `addr`'s root-to-leaf path through `trie`: the path
/// holds one node at each depth below this count.
std::size_t path_length(const UnibitTrie& trie, Ipv4 addr) {
  std::size_t depth = 0;
  trie::NodeIndex node = 0;
  while (node != trie::kNullNode) {
    ++depth;
    if (depth == 33) break;
    node = bit_at(addr.value(), static_cast<unsigned>(depth - 1))
               ? trie.node(node).right
               : trie.node(node).left;
  }
  return depth;
}

TEST(LookupEngineTest, StageReadsFollowTheTriePathToBit32) {
  // A /32 host route puts a trie node at depth 32, which stage 32 of a
  // 33-stage engine must read; its neighbour key (differs only in bit 31)
  // stops at depth 31 unless the other VN routes it.
  constexpr std::size_t kFullDepth = 33;
  RoutingTable vn0;
  vn0.add(*net::Prefix::parse("0.0.0.0/0"), 1);
  vn0.add(*net::Prefix::parse("192.168.1.77/32"), 9);
  RoutingTable vn1;
  vn1.add(*net::Prefix::parse("0.0.0.0/0"), 2);
  vn1.add(*net::Prefix::parse("192.168.1.76/32"), 5);
  const UnibitTrie trie0(vn0);
  const UnibitTrie trie1(vn1);
  const std::vector<const UnibitTrie*> ptrs{&trie0, &trie1};
  const virt::MergedTrie merged{std::span<const UnibitTrie* const>(ptrs)};
  ASSERT_EQ(trie0.level_count(), kFullDepth);
  ASSERT_EQ(merged.level_count(), kFullDepth);
  const std::vector<Ipv4> keys{Ipv4(192, 168, 1, 77), Ipv4(192, 168, 1, 76),
                               Ipv4(10, 0, 0, 1)};

  // One packet through an idle engine: its stage reads, its next hop.
  const auto run_one = [&](const TrieView& view, const Packet& packet) {
    LookupEngine engine(view, kFullDepth);
    std::vector<LookupResult> out;
    EXPECT_TRUE(engine.offer(packet));
    for (std::size_t c = 0; c <= kFullDepth; ++c) engine.tick(&out);
    EXPECT_EQ(out.size(), 1u);
    std::vector<std::uint64_t> reads(kFullDepth);
    for (std::size_t s = 0; s < kFullDepth; ++s) {
      reads[s] = engine.activity().reads(packet.vnid, s);
    }
    return std::make_pair(reads, out.empty() ? std::nullopt
                                             : out.front().next_hop);
  };
  const auto expected_reads = [](std::size_t path) {
    std::vector<std::uint64_t> reads(kFullDepth, 0);
    for (std::size_t s = 0; s < path; ++s) reads[s] = 1;
    return reads;
  };

  for (const Ipv4 key : keys) {
    const std::size_t path0 = path_length(trie0, key);
    const auto [reads, hop] = run_one(TrieView(trie0), Packet{key, 0});
    EXPECT_EQ(reads, expected_reads(path0)) << key.value();
    EXPECT_EQ(hop, trie0.lookup(key)) << key.value();
    // The merged trie has a node wherever either input trie has one, for
    // packets of either VN.
    const std::size_t merged_path = std::max(path0, path_length(trie1, key));
    for (const net::VnId vn : {net::VnId{0}, net::VnId{1}}) {
      const auto [merged_reads, merged_hop] =
          run_one(TrieView(merged), Packet{key, vn});
      EXPECT_EQ(merged_reads, expected_reads(merged_path))
          << key.value() << " vn " << vn;
      EXPECT_EQ(merged_hop, (vn == 0 ? trie0 : trie1).lookup(key));
    }
  }
  // The host key reaches stage 32 in both engines, its neighbour only in
  // the merged one; the far key reads stage 0 alone.
  EXPECT_EQ(path_length(trie0, keys[0]), kFullDepth);
  EXPECT_EQ(path_length(trie0, keys[1]), kFullDepth - 1);
  EXPECT_EQ(path_length(trie1, keys[1]), kFullDepth);
  EXPECT_EQ(path_length(trie0, keys[2]), 1u);
}

TEST(LookupEngineTest, BusyFractionTracksOfferedLoad) {
  const RoutingTable table = gen_table(8);
  const UnibitTrie trie(table);
  LookupEngine engine{TrieView(trie), kStages};
  Rng rng(8);
  std::vector<LookupResult> out;
  const double load = 0.3;
  for (int c = 0; c < 20000; ++c) {
    if (rng.next_bool(load)) {
      (void)engine.offer(Packet{Ipv4(10, 0, 0, 1), 0});
    }
    engine.tick(&out);
  }
  EXPECT_NEAR(engine.activity().utilization(0), load, 0.03);
}

TEST(LookupEngineTest, BackpressureAndDrainUnderBurst) {
  const RoutingTable table = gen_table(11);
  const UnibitTrie trie(table);
  LookupEngine engine{TrieView(trie), kStages};
  std::vector<LookupResult> out;
  // Saturate: the single input slot accepts exactly one packet per tick and
  // backpressures everything else offered in the same cycle.
  for (std::size_t c = 0; c < 40; ++c) {
    ASSERT_TRUE(
        engine.offer(Packet{Ipv4(10, 0, 0, static_cast<std::uint8_t>(c)), 0}));
    EXPECT_FALSE(engine.offer(Packet{Ipv4(10, 0, 0, 99), 0}));
    EXPECT_FALSE(engine.drained());
    engine.tick(&out);
  }
  // Stop offering; the pipe must fully drain within the pipeline depth and
  // deliver every accepted packet exactly once.
  for (std::size_t c = 0; c < kStages; ++c) engine.tick(&out);
  EXPECT_TRUE(engine.drained());
  EXPECT_EQ(out.size(), 40u);
}

TEST(LookupEngineTest, MalformedVnidRejectedEvenWhenBusy) {
  const RoutingTable table = gen_table(12);
  const UnibitTrie trie(table);
  LookupEngine engine{TrieView(trie), kStages};
  // Fill the input slot so the engine is busy, then offer an out-of-range
  // VNID: validation must fire before the busy check.
  ASSERT_TRUE(engine.offer(Packet{Ipv4(1, 1, 1, 1), 0}));
  EXPECT_DEATH((void)engine.offer(Packet{Ipv4(2, 2, 2, 2), 5}), "VNID");
}

TEST(LookupEngineTest, VnidValidatedAgainstTrie) {
  const RoutingTable table = gen_table(9);
  const UnibitTrie trie(table);
  LookupEngine engine{TrieView(trie), kStages};
  EXPECT_DEATH((void)engine.offer(Packet{Ipv4(1, 1, 1, 1), 3}),
               "VNID");
}

// --------------------------------------------------------------- routers --

template <std::size_t K>
class RouterSetFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint64_t v = 0; v < kVns; ++v) {
      tables_.push_back(gen_table(100 + v, 300));
      tries_.emplace_back(UnibitTrie(tables_.back()).leaf_pushed());
    }
    for (const auto& t : tries_) {
      views_.emplace_back(t);
      trie_ptrs_.push_back(&t);
    }
    merged_.emplace(std::span<const UnibitTrie* const>(trie_ptrs_));
    for (const auto& t : tables_) table_ptrs_.push_back(&t);
  }

  static constexpr std::size_t kVns = K;
  std::vector<RoutingTable> tables_;
  std::vector<UnibitTrie> tries_;
  std::vector<TrieView> views_;
  std::vector<const UnibitTrie*> trie_ptrs_;
  std::vector<const RoutingTable*> table_ptrs_;
  std::optional<virt::MergedTrie> merged_;
};

using RouterFixture = RouterSetFixture<4>;

TEST_F(RouterFixture, SeparateRouterRoutesByVnid) {
  SeparateRouter router(views_, kStages);
  net::TrafficConfig config;
  config.cycles = 3000;
  const net::TrafficGenerator gen(config, table_ptrs_);
  const auto trace = gen.generate(11);
  const SimulationResult sim = run_trace(router, trace);
  ASSERT_EQ(sim.results.size(), trace.size());
  for (const LookupResult& r : sim.results) {
    EXPECT_EQ(r.next_hop, tables_[r.packet.vnid].lookup(r.packet.addr));
  }
}

TEST_F(RouterFixture, SeparateRouterRejectsMoreEnginesThanVnids) {
  // tick() restores each result's VNID, a 16-bit VnId, from its engine.
  const std::vector<TrieView> views(0x10000, views_.front());
  EXPECT_DEATH((void)SeparateRouter(views, kStages), "VNID width");
}

TEST_F(RouterFixture, MergedRouterMatchesPerVnTables) {
  MergedRouter router(*merged_, kStages);
  net::TrafficConfig config;
  config.cycles = 3000;
  config.load = 0.9;
  const net::TrafficGenerator gen(config, table_ptrs_);
  const auto trace = gen.generate(12);
  const SimulationResult sim = run_trace(router, trace);
  ASSERT_EQ(sim.results.size(), trace.size());
  for (const LookupResult& r : sim.results) {
    EXPECT_EQ(r.next_hop, tables_[r.packet.vnid].lookup(r.packet.addr));
  }
}

TEST_F(RouterFixture, SeparateAndMergedAgreeOnEveryPacket) {
  SeparateRouter separate(views_, kStages);
  MergedRouter merged_router(*merged_, kStages);
  net::TrafficConfig config;
  config.cycles = 2000;
  config.load = 0.5;
  const net::TrafficGenerator gen(config, table_ptrs_);
  const auto trace = gen.generate(13);
  const SimulationResult a = run_trace(separate, trace);
  const SimulationResult b = run_trace(merged_router, trace);
  ASSERT_EQ(a.results.size(), b.results.size());
  std::map<std::pair<std::uint32_t, net::VnId>,
           std::optional<net::NextHop>>
      separate_answers;
  for (const LookupResult& r : a.results) {
    separate_answers[{r.packet.addr.value(), r.packet.vnid}] = r.next_hop;
  }
  for (const LookupResult& r : b.results) {
    EXPECT_EQ(separate_answers.at({r.packet.addr.value(), r.packet.vnid}),
              r.next_hop);
  }
}

TEST_F(RouterFixture, SeparateEngineUtilizationFollowsShares) {
  SeparateRouter router(views_, kStages);
  net::TrafficConfig config;
  config.cycles = 30000;
  config.vn_weights = {4.0, 2.0, 1.0, 1.0};
  const net::TrafficGenerator gen(config, table_ptrs_);
  const SimulationResult sim = run_trace(router, gen.generate(14));
  // Engine 0 gets half the traffic.
  EXPECT_NEAR(sim.engine_utilization[0], 0.5, 0.04);
  EXPECT_NEAR(sim.engine_utilization[2], 0.125, 0.03);
}

TEST_F(RouterFixture, MergedRouterBackpressuresAtFullLoad) {
  MergedRouter router(*merged_, kStages);
  net::TrafficConfig config;
  config.cycles = 2000;
  config.load = 1.0;  // one packet per cycle = exactly engine capacity
  const net::TrafficGenerator gen(config, table_ptrs_);
  const SimulationResult sim = run_trace(router, gen.generate(15));
  EXPECT_LE(sim.max_queue_depth, 4u);
  EXPECT_GT(sim.results.size(), 1500u);
}

TEST_F(RouterFixture, SeparateRejectsMultiVnTrieViews) {
  std::vector<TrieView> bad{TrieView(*merged_)};
  EXPECT_DEATH(SeparateRouter(bad, kStages), "single-VN");
}

TEST_F(RouterFixture, MeasuredPowerMatchesAnalyticalAtUniformLoad) {
  // The reconciliation the paper's µ-weighted model relies on: simulated
  // activity-based power equals coefficient × measured utilization.
  MergedRouter router(*merged_, kStages);
  net::TrafficConfig config;
  config.cycles = 20000;
  config.load = 0.6;
  const net::TrafficGenerator gen(config, table_ptrs_);
  const SimulationResult sim = run_trace(router, gen.generate(16));

  // Stage memory of the merged engine.
  const trie::TrieStats stats = merged_->stats_as_trie();
  const trie::StageMapping mapping(stats.nodes_per_level.size(), kStages,
                                   trie::MappingPolicy::kOneLevelPerStage);
  const trie::NodeEncoding enc;
  const trie::StageMemory memory = trie::stage_memory(
      trie::occupancy(stats, mapping), enc, kVns);
  power::EngineSpec engine;
  for (std::size_t s = 0; s < kStages; ++s) {
    engine.stage_bits.push_back(memory.stage_bits(s));
  }

  const units::Megahertz freq{300.0};
  const power::ActivityCounters activity = router.activity();
  power::ModelContext ctx;
  ctx.scheme = power::Scheme::kMerged;
  ctx.merged_engine = &engine;
  ctx.vn_count = kVns;
  ctx.op.grade = fpga::SpeedGrade::kMinus2;
  ctx.op.bram_policy = fpga::BramPolicy::kMixed;
  ctx.op.freq_mhz = freq;
  ctx.activity = &activity;
  const power::ActivityPower measured = power::ActivityModel().estimate(ctx);

  // Analytical: coefficients × utilization (≈ 0.6 × trace-duty, slightly
  // below 0.6 because of drain cycles at the trace tail).
  const double util = sim.engine_utilization[0];
  const double logic_expected =
      fpga::XpeTables::logic_power_w(fpga::SpeedGrade::kMinus2, kStages, freq)
          .value() *
      util;
  EXPECT_NEAR(measured.logic_w.value(), logic_expected,
              logic_expected * 0.01);
  EXPECT_GT(measured.memory_gated_w.value(), 0.0);
  EXPECT_GT(measured.logic_w + measured.memory_gated_w, measured.logic_w);
}

// -------------------------------------------------------------- activity --

// One seeded K = 3 stream with VN 1 idle. Each packet clocks every stage
// once, so a router's ledger must show busy(v, s) == packets of VN v on
// every stage, whichever engine arrangement served the VN.
class RouterActivityTest : public RouterSetFixture<3> {
 protected:
  static constexpr net::VnId kIdleVn = 1;

  void SetUp() override {
    RouterSetFixture<3>::SetUp();
    net::TrafficConfig config;
    config.cycles = 4000;
    config.load = 0.7;
    config.vn_weights = {3.0, 0.0, 1.0};
    trace_ = net::TrafficGenerator(config, table_ptrs_).generate(21);
    packets_.assign(kVns, 0);
    for (const net::TimedPacket& p : trace_) ++packets_[p.packet.vnid];
    ASSERT_EQ(packets_[kIdleVn], 0u);
    ASSERT_GT(packets_[0], 0u);
    ASSERT_GT(packets_[2], 0u);
  }

  /// The ledgers of a separate and a merged router after the stream.
  std::vector<power::ActivityCounters> ledgers() const {
    SeparateRouter separate(views_, kStages);
    MergedRouter merged(*merged_, kStages);
    (void)run_trace(separate, trace_);
    (void)run_trace(merged, trace_);
    return {separate.activity(), merged.activity()};
  }

  std::vector<net::TimedPacket> trace_;
  std::vector<std::uint64_t> packets_;
};

TEST_F(RouterActivityTest, BusyCountsEachVnsPacketsOnEveryStage) {
  for (const power::ActivityCounters& ledger : ledgers()) {
    ASSERT_EQ(ledger.vn_count(), kVns);
    ASSERT_EQ(ledger.stage_count(), kStages);
    for (std::size_t v = 0; v < kVns; ++v) {
      for (std::size_t s = 0; s < kStages; ++s) {
        EXPECT_EQ(ledger.busy(v, s), packets_[v]) << "vn=" << v << " s=" << s;
        EXPECT_LE(ledger.reads(v, s), ledger.busy(v, s))
            << "vn=" << v << " s=" << s;
      }
    }
  }
}

TEST_F(RouterActivityTest, IdleVnRowIsZero) {
  for (const power::ActivityCounters& ledger : ledgers()) {
    for (std::size_t s = 0; s < kStages; ++s) {
      EXPECT_EQ(ledger.busy(kIdleVn, s), 0u) << "s=" << s;
      EXPECT_EQ(ledger.reads(kIdleVn, s), 0u) << "s=" << s;
    }
    EXPECT_EQ(ledger.utilization(kIdleVn), 0.0);
  }
}

// ------------------------------------------ recorded per-cycle behaviour --

/// FNV-1a over the little-endian bytes of 64-bit words.
class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (unsigned byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3u;
    }
  }
  void add(const power::ActivityCounters& ledger) {
    add(ledger.cycles);
    for (const std::uint64_t busy : ledger.stage_busy) add(busy);
    for (const std::uint64_t reads : ledger.stage_reads) add(reads);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325u;
};

/// What a seeded stream did to a router, cycle by cycle.
struct RecordedRun {
  std::uint64_t digest = 0;
  std::uint64_t results = 0;
  std::uint64_t refused = 0;
  std::uint64_t drained_cycles = 0;
};

/// Drives a seeded stream of spells through `router`: back-to-back bursts
/// that offer two packets every cycle (a merged engine refuses the second,
/// a separate router whichever lands on a busy engine), sparse spells, and
/// idle gaps longer than the pipe. The digest covers every result's
/// (exit_cycle, addr, vnid, next_hop), drained() after every tick, and the
/// stage_busy/stage_reads matrices at mid-run and at the end.
RecordedRun record_run(VirtualRouter& router,
                       const std::vector<const RoutingTable*>& tables,
                       std::uint64_t seed) {
  constexpr std::uint64_t kCycles = 6000;
  const net::TrafficGenerator gen(net::TrafficConfig{}, tables);
  Rng rng(seed);
  Fnv1a digest;
  RecordedRun run;
  std::vector<LookupResult> out;
  std::uint64_t spell_end = 0;
  std::uint64_t spell = 0;
  for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
    if (cycle == spell_end) {
      // The stream ends on an idle gap so the last ledger is complete.
      spell = cycle + 4 * kStages >= kCycles ? 2 : rng.next_below(3);
      spell_end = spell == 2 ? cycle + rng.next_in(kStages + 1, 3 * kStages)
                             : cycle + rng.next_in(5, 80);
    }
    const std::uint64_t offers =
        spell == 0 ? 2 : (spell == 1 && rng.next_bool(0.3) ? 1 : 0);
    for (std::uint64_t i = 0; i < offers; ++i) {
      const auto vn = static_cast<net::VnId>(rng.next_below(tables.size()));
      if (!router.offer(gen.sample_packet(rng, vn))) ++run.refused;
    }
    out.clear();
    router.tick(&out);
    for (const LookupResult& result : out) {
      digest.add(result.exit_cycle);
      digest.add(result.packet.addr.value());
      digest.add(result.packet.vnid);
      digest.add(result.next_hop ? *result.next_hop : 0x10000u);
    }
    run.results += out.size();
    const bool drained = router.drained();
    digest.add(drained ? 1 : 0);
    if (drained) ++run.drained_cycles;
    if (cycle == kCycles / 2) digest.add(router.activity());
  }
  EXPECT_TRUE(router.drained());
  digest.add(router.activity());
  run.digest = digest.value();
  return run;
}

// The digests were recorded from an engine that shifted every packet one
// stage per tick; a change to when a packet is looked up, counted or
// retired moves them.
TEST(LookupEngineTest, PerCycleBehaviourMatchesRecordedDigests) {
  std::vector<RoutingTable> tables;
  std::vector<UnibitTrie> tries;
  for (std::uint64_t v = 0; v < 4; ++v) {
    tables.push_back(gen_table(300 + v, 300));
    tries.push_back(UnibitTrie(tables.back()).leaf_pushed());
  }
  std::vector<const RoutingTable*> table_ptrs;
  std::vector<const UnibitTrie*> trie_ptrs;
  std::vector<TrieView> views;
  for (std::size_t v = 0; v < tables.size(); ++v) {
    table_ptrs.push_back(&tables[v]);
    trie_ptrs.push_back(&tries[v]);
    views.emplace_back(tries[v]);
  }
  const virt::MergedTrie merged{std::span<const UnibitTrie* const>(trie_ptrs)};

  MergedRouter merged_router(merged, kStages);
  const RecordedRun merged_run = record_run(merged_router, table_ptrs, 17);
  SeparateRouter separate_router(views, kStages);
  const RecordedRun separate_run = record_run(separate_router, table_ptrs, 17);

  for (const RecordedRun& run : {merged_run, separate_run}) {
    EXPECT_GT(run.refused, 0u);
    EXPECT_GT(run.drained_cycles, 0u);
  }
  EXPECT_EQ(merged_run.results, merged_router.engine(0).packets_in());
  EXPECT_EQ(merged_run.refused, merged_router.engine(0).offers_rejected());
  EXPECT_EQ(merged_run.digest, 15299436014365829818u);
  EXPECT_EQ(separate_run.digest, 3330439849292968340u);
}

// The one-stage pipe, the ring's one-slot edge: a packet offered before
// tick t is looked up on tick t + 1, one stage traversal, and leaves with
// exit_cycle t + 2, as LatencyIsExactlyStageCount counts; back-to-back
// offers are all accepted and leave one per tick.
TEST(LookupEngineTest, OneStageEngineTakesOnePacketPerCycle) {
  RoutingTable table;
  table.add(*net::Prefix::parse("0.0.0.0/0"), 7);
  const UnibitTrie trie(table);
  ASSERT_EQ(trie.level_count(), 1u);
  LookupEngine engine{TrieView(trie), 1};
  std::vector<LookupResult> out;
  constexpr std::uint64_t kPackets = 50;
  for (std::uint64_t t = 0; t < kPackets; ++t) {
    ASSERT_TRUE(engine.offer(
        Packet{Ipv4(static_cast<std::uint32_t>(t * 0x01010101u)), 0}));
    EXPECT_FALSE(engine.drained());
    out.clear();
    engine.tick(&out);
    if (t == 0) {
      EXPECT_TRUE(out.empty());
      continue;
    }
    ASSERT_EQ(out.size(), 1u) << "tick " << t;
    EXPECT_EQ(out[0].exit_cycle, t + 1);
    EXPECT_EQ(out[0].packet.addr.value(), (t - 1) * 0x01010101u);
    EXPECT_EQ(out[0].next_hop, net::NextHop{7});
  }
  EXPECT_FALSE(engine.drained());
  out.clear();
  engine.tick(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].exit_cycle, kPackets + 1);
  EXPECT_TRUE(engine.drained());
  EXPECT_EQ(engine.activity().busy(0, 0), kPackets);
  EXPECT_EQ(engine.activity().reads(0, 0), kPackets);
  EXPECT_EQ(engine.packets_out(), kPackets);
  EXPECT_EQ(engine.offers_rejected(), 0u);
}

}  // namespace
}  // namespace vr::pipeline
