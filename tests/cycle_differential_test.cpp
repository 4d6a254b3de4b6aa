// Oracle-differential test (`ctest -L cycle`): with contention configured
// away — one flit per packet, a VC pool and switch wide enough that
// nothing ever stalls long, and egress queues deep enough that nothing
// tail-drops — the cycle-level model must converge to the per-packet
// FullRouter on identical FrameGenerator streams. Lookup verdicts are
// value-deterministic (same trie + same destination -> same next hop,
// whenever the lookup happens), so forwarded / no-route / TTL-expired /
// parser-drop totals and per-VN transmitted bytes must match EXACTLY;
// any difference is a conservation bug in the cycle machinery, not a
// modeling choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/cycle/cycle_router.hpp"
#include "dataplane/full_router.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/traffic.hpp"
#include "pipeline/router.hpp"
#include "trie/unibit_trie.hpp"
#include "virt/merged_trie.hpp"

namespace vr::dataplane::cycle {
namespace {

constexpr std::size_t kStages = 28;

constexpr VcPolicy kAllPolicies[] = {VcPolicy::kNvStatic, VcPolicy::kVsStatic,
                                     VcPolicy::kVmStatic, VcPolicy::kDynamic};

struct LookupFixture {
  std::vector<net::RoutingTable> tables;
  std::vector<const net::RoutingTable*> table_ptrs;
  std::vector<trie::UnibitTrie> tries;
  std::vector<const trie::UnibitTrie*> trie_ptrs;
  std::optional<virt::MergedTrie> merged;
  std::unique_ptr<pipeline::VirtualRouter> router;
};

/// `next_hops` bounds the tables' next hops, which name egress ports.
std::unique_ptr<LookupFixture> make_lookup(std::size_t k, bool separate,
                                           std::uint64_t table_seed,
                                           net::NextHop next_hops = 16) {
  auto f = std::make_unique<LookupFixture>();
  net::TableProfile profile;
  profile.prefix_count = 150;
  profile.next_hop_count = next_hops;
  const net::SyntheticTableGenerator table_gen(profile);
  for (std::uint64_t v = 0; v < k; ++v) {
    f->tables.push_back(table_gen.generate(table_seed + v));
  }
  for (const auto& t : f->tables) f->table_ptrs.push_back(&t);
  for (const auto& t : f->tables) {
    f->tries.emplace_back(trie::UnibitTrie(t).leaf_pushed());
  }
  for (const auto& t : f->tries) f->trie_ptrs.push_back(&t);
  if (separate) {
    std::vector<pipeline::TrieView> views;
    for (const auto& t : f->tries) views.emplace_back(t);
    f->router = std::make_unique<pipeline::SeparateRouter>(views, kStages);
  } else {
    f->merged.emplace(std::span<const trie::UnibitTrie* const>(f->trie_ptrs));
    f->router = std::make_unique<pipeline::MergedRouter>(*f->merged, kStages);
  }
  return f;
}

SchedulerConfig roomy_scheduler(std::size_t k) {
  SchedulerConfig config;
  config.vn_count = k;
  config.port_count = 16;
  // Deep enough that neither model ever tail-drops: with no egress loss
  // the editor verdicts are the only place packets can diverge.
  config.queue_capacity = 100000;
  return config;
}

TEST(CycleDifferential, MatchesFullRouterExactlyAtInfiniteResources) {
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    for (const VcPolicy policy : kAllPolicies) {
      SCOPED_TRACE(::testing::Message()
                   << "K=" << k << " policy=" << to_string(policy));
      const bool separate = separate_engines(policy);
      const auto oracle_lookup = make_lookup(k, separate, 400);
      const auto cycle_lookup = make_lookup(k, separate, 400);

      FrameGenConfig frame_config;
      frame_config.traffic =
          net::make_shaped_config(net::TraceShape::kBursty, 3000, 0.5, k);
      frame_config.corrupt_fraction = 0.05;
      frame_config.expiring_ttl_fraction = 0.05;
      const FrameGenerator frame_gen(frame_config, oracle_lookup->table_ptrs);
      const auto frames =
          frame_gen.generate(FrameGenerator::derive_seed(1234, k));

      FullRouterConfig oracle_config;
      oracle_config.scheduler = roomy_scheduler(k);
      const FullRouterResult oracle =
          run_full_router(*oracle_lookup->router, frames, oracle_config);

      CycleConfig config;
      config.vc.policy = policy;
      config.vc.vc_count = 16 * k;  // effectively unbounded VC pool
      config.vc.vn_count = k;
      config.vc.dynamic_floor = 1;
      config.vc_capacity_flits = 4;
      // Max IMIX packet is 1500 bytes: one flit per packet, like the
      // per-packet oracle.
      config.flit_bytes = 2000;
      config.switch_flits_per_cycle = 64;
      config.scheduler = roomy_scheduler(k);
      const CycleResult cycle =
          run_cycle_router(*cycle_lookup->router, frames, config);

      // Same frames, same parser logic: drop accounting is identical.
      EXPECT_EQ(cycle.parser.accepted, oracle.parser.accepted);
      EXPECT_EQ(cycle.parser.malformed, oracle.parser.malformed);
      EXPECT_EQ(cycle.parser.bad_checksum, oracle.parser.bad_checksum);
      EXPECT_EQ(cycle.parser.ttl_expired, oracle.parser.ttl_expired);
      EXPECT_EQ(cycle.parser.bad_vnid, oracle.parser.bad_vnid);
      // Lookup verdicts are value-deterministic, so the editor totals
      // must match exactly however differently the two models schedule.
      EXPECT_EQ(cycle.editor.forwarded, oracle.editor.forwarded);
      EXPECT_EQ(cycle.editor.no_route, oracle.editor.no_route);
      EXPECT_EQ(cycle.editor.ttl_expired, oracle.editor.ttl_expired);
      // No tail drops anywhere: every forwarded packet is transmitted.
      EXPECT_EQ(cycle.scheduler.tail_drops, 0u);
      EXPECT_EQ(oracle.scheduler.tail_drops, 0u);
      EXPECT_EQ(cycle.scheduler.enqueued, oracle.scheduler.enqueued);
      EXPECT_EQ(cycle.scheduler.transmitted, oracle.scheduler.transmitted);
      EXPECT_EQ(cycle.scheduler.bytes_per_vn, oracle.scheduler.bytes_per_vn);
      // One flit per packet: flit flow mirrors the packet counts.
      EXPECT_EQ(cycle.cycle.flits_in, cycle.parser.accepted);
      EXPECT_EQ(cycle.cycle.flits_out, cycle.editor.forwarded);
      EXPECT_EQ(cycle.cycle.flits_in,
                cycle.cycle.flits_out + cycle.cycle.flits_dropped);
      // Both drivers look up each accepted packet exactly once, and a
      // packet's stage reads depend only on its address, so the lookup
      // ledger matches whatever the timing.
      EXPECT_EQ(cycle.activity.stage_busy, oracle.activity.stage_busy);
      EXPECT_EQ(cycle.activity.stage_reads, oracle.activity.stage_reads);
    }
  }
}

// A seeded K = 3 stream with about 5 % of its frames retagged to VNIDs
// 3-11, which name no VN of the router: both drivers drop exactly those
// frames at the parser, before any per-VN array sees the VNID (a build
// with -D_GLIBCXX_ASSERTIONS aborts on an out-of-range index), and still
// agree on every other count.
TEST(CycleDifferential, OutOfRangeVnidsAreParserDrops) {
  constexpr std::size_t k = 3;
  const auto oracle_lookup = make_lookup(k, /*separate=*/false, 500);
  const auto cycle_lookup = make_lookup(k, /*separate=*/false, 500);
  FrameGenConfig frame_config;
  frame_config.traffic =
      net::make_shaped_config(net::TraceShape::kBursty, 3000, 0.5, k);
  frame_config.corrupt_fraction = 0.05;
  const FrameGenerator frame_gen(frame_config, oracle_lookup->table_ptrs);
  std::vector<IngressFrame> frames =
      frame_gen.generate(FrameGenerator::derive_seed(4321, k));
  Rng rng(77);
  std::uint64_t injected = 0;
  for (IngressFrame& frame : frames) {
    if (rng.next_below(20) == 0) {
      frame.vnid = static_cast<net::VnId>(rng.next_in(k, 11));
      ++injected;
    }
  }
  ASSERT_GT(injected, 0u);

  FullRouterConfig oracle_config;
  oracle_config.scheduler = roomy_scheduler(k);
  const FullRouterResult oracle =
      run_full_router(*oracle_lookup->router, frames, oracle_config);
  CycleConfig config;
  config.vc.policy = VcPolicy::kDynamic;
  config.vc.vc_count = 16 * k;
  config.vc.vn_count = k;
  config.vc.dynamic_floor = 1;
  config.flit_bytes = 2000;
  config.switch_flits_per_cycle = 64;
  config.scheduler = roomy_scheduler(k);
  const CycleResult cycle =
      run_cycle_router(*cycle_lookup->router, frames, config);

  EXPECT_EQ(oracle.parser.bad_vnid, injected);
  EXPECT_EQ(cycle.parser.bad_vnid, injected);
  for (const ParserStats& parser : {oracle.parser, cycle.parser}) {
    EXPECT_EQ(parser.accepted + parser.dropped(), frames.size());
  }
  EXPECT_EQ(cycle.parser.accepted, oracle.parser.accepted);
  EXPECT_EQ(cycle.parser.bad_checksum, oracle.parser.bad_checksum);
  EXPECT_EQ(cycle.editor.forwarded, oracle.editor.forwarded);
  EXPECT_EQ(cycle.scheduler.bytes_per_vn, oracle.scheduler.bytes_per_vn);
}

// Frames that arrive in the same cycle keep the caller's order through
// both drivers: 3,200 frames, four per cycle, to one VN and one port, one
// VC and one lookup engine, each with its own payload size, so the egress
// byte sequence must be the input order.
TEST(CycleDifferential, SameCycleFramesKeepTheCallersOrder) {
  constexpr std::size_t kFrames = 3200;
  const auto oracle_lookup = make_lookup(1, /*separate=*/false, 600);
  const auto cycle_lookup = make_lookup(1, /*separate=*/false, 600);
  const net::Ipv4 destination =
      oracle_lookup->tables[0].routes().front().prefix.address();
  std::vector<IngressFrame> frames(kFrames);
  std::vector<std::uint32_t> sent_bytes;
  for (std::size_t i = 0; i < kFrames; ++i) {
    IngressFrame& frame = frames[i];
    frame.cycle = i / 4;
    // narrow-ok in test: 20 + [0, 3200) fits a payload size; 7919 is
    // coprime with 3200, so every size is distinct
    frame.payload_bytes = static_cast<std::uint16_t>(20 + i * 7919 % kFrames);
    frame.header.destination = destination;
    // narrow-ok in test: at most 20 + 3219
    frame.header.total_length = static_cast<std::uint16_t>(
        net::Ipv4Header::kSize + frame.payload_bytes);
    frame.header.ttl = 64;
    frame.header.checksum = frame.header.compute_checksum();
    sent_bytes.push_back(net::Ipv4Header::kSize + frame.payload_bytes);
  }
  // A port's idle byte credit is capped at max(1,600 B, 4 cycles of link
  // rate); a 1,000 B/cycle link lifts that above the largest packet here.
  SchedulerConfig scheduler = roomy_scheduler(1);
  scheduler.bytes_per_cycle = 1000;
  const auto egress_bytes = [](const std::vector<EgressRecord>& egress) {
    std::vector<std::uint32_t> bytes;
    for (const EgressRecord& record : egress) bytes.push_back(record.bytes);
    return bytes;
  };

  FullRouterConfig oracle_config;
  oracle_config.scheduler = scheduler;
  const FullRouterResult oracle =
      run_full_router(*oracle_lookup->router, frames, oracle_config);
  EXPECT_EQ(egress_bytes(oracle.egress), sent_bytes);

  CycleConfig config;
  config.vc.vc_count = 1;
  config.vc.vn_count = 1;
  config.scheduler = scheduler;
  const CycleResult cycle =
      run_cycle_router(*cycle_lookup->router, frames, config);
  EXPECT_EQ(egress_bytes(cycle.egress), sent_bytes);
}

// Seeded adversarial egress streams. Payloads are drawn over the whole
// [0, kMaxPayloadBytes] range and always include 1,620 and 1,621 bytes,
// on either side of the largest packet a port could send before its
// credit cap followed the waiting packet (1,640 bytes at the default
// 40 B/cycle). K, VC policy, port count, DRR weights, flit size and VC
// depth are random, and every other trial draws its link rate too;
// queues are deep enough that neither router tail-drops. Every enqueued
// packet must leave, and the two routers must agree on every parser,
// editor and scheduler count.
TEST(CycleDifferential, PacketsOfAnySizeLeaveThroughBothRouters) {
  constexpr std::size_t kTrials = 40;
  constexpr std::size_t kFramesPerTrial = 24;
  Rng rng(2026);
  std::uint64_t above_old_cap_sent = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const std::size_t k = rng.next_in(1, 4);
    const VcPolicy policy = kAllPolicies[rng.next_below(4)];
    const bool separate = separate_engines(policy);
    SchedulerConfig scheduler = roomy_scheduler(k);
    scheduler.port_count = rng.next_in(1, 16);
    if (trial % 2 == 1) {
      scheduler.bytes_per_cycle =
          static_cast<double>(rng.next_in(32, 4000)) / 4;
    }
    // Log-uniform over [1/256, 4]: a small weight's quantum, not the
    // link, can pace a VN's packets.
    for (std::size_t v = 0; v < k; ++v) {
      scheduler.vn_weights.push_back(
          std::exp2(-8.0 + 10.0 * rng.next_double()));
    }
    SCOPED_TRACE(::testing::Message()
                 << "trial=" << trial << " K=" << k
                 << " policy=" << to_string(policy)
                 << " ports=" << scheduler.port_count
                 << " bytes/cycle=" << scheduler.bytes_per_cycle);
    // narrow-ok in test: port_count <= 16
    const auto next_hops = static_cast<net::NextHop>(scheduler.port_count);
    const auto oracle_lookup = make_lookup(k, separate, 700 + trial, next_hops);
    const auto cycle_lookup = make_lookup(k, separate, 700 + trial, next_hops);

    std::vector<IngressFrame> frames(kFramesPerTrial);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      IngressFrame& frame = frames[i];
      frame.cycle = rng.next_below(400);
      // narrow-ok in test: next_below(k) < k <= 4
      frame.vnid = static_cast<net::VnId>(rng.next_below(k));
      // narrow-ok in test: at most kMaxPayloadBytes
      frame.payload_bytes = static_cast<std::uint16_t>(
          i < 2 ? 1620 + i : rng.next_in(0, kMaxPayloadBytes));
      const auto routes = oracle_lookup->tables[frame.vnid].routes();
      frame.header.destination =
          routes[rng.next_below(routes.size())].prefix.address();
      // narrow-ok in test: at most 20 + kMaxPayloadBytes = 65,535
      frame.header.total_length = static_cast<std::uint16_t>(
          net::Ipv4Header::kSize + frame.payload_bytes);
      frame.header.ttl = 64;
      frame.header.checksum = frame.header.compute_checksum();
    }

    CycleConfig config;
    config.vc.policy = policy;
    config.vc.vc_count = 4 * k;
    config.vc.vn_count = k;
    config.vc_capacity_flits = rng.next_in(1, 8);
    // narrow-ok in test: one of 64, 256 and 1,024
    config.flit_bytes = static_cast<std::uint32_t>(64 << 2 * rng.next_below(3));
    config.scheduler = scheduler;
    const CycleResult cycle =
        run_cycle_router(*cycle_lookup->router, frames, config);
    FullRouterConfig oracle_config;
    oracle_config.scheduler = scheduler;
    const FullRouterResult oracle =
        run_full_router(*oracle_lookup->router, frames, oracle_config);

    for (const SchedulerStats& stats : {oracle.scheduler, cycle.scheduler}) {
      EXPECT_EQ(stats.tail_drops, 0u);
      EXPECT_EQ(stats.transmitted, stats.enqueued);
    }
    EXPECT_EQ(cycle.parser.accepted, oracle.parser.accepted);
    EXPECT_EQ(cycle.parser.malformed, oracle.parser.malformed);
    EXPECT_EQ(cycle.parser.bad_checksum, oracle.parser.bad_checksum);
    EXPECT_EQ(cycle.parser.ttl_expired, oracle.parser.ttl_expired);
    EXPECT_EQ(cycle.parser.bad_vnid, oracle.parser.bad_vnid);
    EXPECT_EQ(cycle.editor.forwarded, oracle.editor.forwarded);
    EXPECT_EQ(cycle.editor.no_route, oracle.editor.no_route);
    EXPECT_EQ(cycle.editor.ttl_expired, oracle.editor.ttl_expired);
    EXPECT_EQ(cycle.scheduler.enqueued, oracle.scheduler.enqueued);
    EXPECT_EQ(cycle.scheduler.transmitted, oracle.scheduler.transmitted);
    EXPECT_EQ(cycle.scheduler.bytes_per_vn, oracle.scheduler.bytes_per_vn);
    // A credit cap that ignored the waiting packet, max(1,600 B, 4 cycles
    // of link rate), would hold back every packet longer than the cap
    // plus one cycle's credit.
    const double old_limit =
        std::max(1600.0, 4 * scheduler.bytes_per_cycle) +
        scheduler.bytes_per_cycle;
    for (const EgressRecord& record : oracle.egress) {
      if (record.bytes > old_limit) ++above_old_cap_sent;
    }
  }
  // Most drawn payloads are far above that limit.
  EXPECT_GT(above_old_cap_sent, kTrials * kFramesPerTrial / 2);
}

}  // namespace
}  // namespace vr::dataplane::cycle
