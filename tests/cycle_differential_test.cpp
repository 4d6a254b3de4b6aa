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

std::unique_ptr<LookupFixture> make_lookup(std::size_t k, bool separate,
                                           std::uint64_t table_seed) {
  auto f = std::make_unique<LookupFixture>();
  net::TableProfile profile;
  profile.prefix_count = 150;
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

}  // namespace
}  // namespace vr::dataplane::cycle
