// Property tests over the cycle-level dataplane (DESIGN.md §15), run
// under `ctest -L cycle`. Each trial draws a seeded configuration over
// K ∈ {2, 4, 8} × the four VC policies and drives randomized traffic
// through the CycleRouter one step at a time, asserting the conservation
// laws that make the model trustworthy *at every cycle*, not just at the
// end: credits never exceed capacity and always complement the buffered
// flits, flits in == flits out + dropped + in flight, the VC pool size is
// constant, no VC is owned twice, and a rerun from the same SplitMix64
// seed is bit-identical. A failing trial prints its draw via SCOPED_TRACE
// (model_invariants_test.cpp style) so it can be replayed exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/cycle/cycle_router.hpp"
#include "dataplane/frame_gen.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/traffic.hpp"
#include "pipeline/router.hpp"
#include "trie/unibit_trie.hpp"
#include "virt/merged_trie.hpp"

namespace vr::dataplane::cycle {
namespace {

constexpr std::size_t kStages = 28;
constexpr std::uint64_t kMasterSeed = 0xc1c1e5eed;

constexpr VcPolicy kAllPolicies[] = {VcPolicy::kNvStatic, VcPolicy::kVsStatic,
                                     VcPolicy::kVmStatic, VcPolicy::kDynamic};

/// Owns the tables, tries and merged image a VirtualRouter borrows.
/// Heap-allocated (no moves) so the router's internal references can
/// never dangle.
struct LookupFixture {
  std::vector<net::RoutingTable> tables;
  std::vector<const net::RoutingTable*> table_ptrs;
  std::vector<trie::UnibitTrie> tries;
  std::vector<const trie::UnibitTrie*> trie_ptrs;
  std::optional<virt::MergedTrie> merged;
  std::unique_ptr<pipeline::VirtualRouter> router;
};

std::unique_ptr<LookupFixture> make_lookup(std::size_t k, VcPolicy policy,
                                           std::uint64_t table_seed) {
  auto f = std::make_unique<LookupFixture>();
  net::TableProfile profile;
  profile.prefix_count = 120;
  const net::SyntheticTableGenerator table_gen(profile);
  for (std::uint64_t v = 0; v < k; ++v) {
    f->tables.push_back(table_gen.generate(table_seed + v));
  }
  for (const auto& t : f->tables) f->table_ptrs.push_back(&t);
  for (const auto& t : f->tables) {
    f->tries.emplace_back(trie::UnibitTrie(t).leaf_pushed());
  }
  for (const auto& t : f->tries) f->trie_ptrs.push_back(&t);
  if (separate_engines(policy)) {
    std::vector<pipeline::TrieView> views;
    for (const auto& t : f->tries) views.emplace_back(t);
    f->router = std::make_unique<pipeline::SeparateRouter>(views, kStages);
  } else {
    f->merged.emplace(std::span<const trie::UnibitTrie* const>(f->trie_ptrs));
    f->router = std::make_unique<pipeline::MergedRouter>(*f->merged, kStages);
  }
  return f;
}

struct Draw {
  std::size_t k = 2;
  VcPolicy policy = VcPolicy::kVsStatic;
  std::size_t vc_count = 8;
  std::size_t vc_capacity = 4;
  std::uint32_t flit_bytes = 64;
  double load = 0.5;
  net::TraceShape shape = net::TraceShape::kUniform;
  std::uint64_t seed = 0;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "draw{K=" << k << " policy=" << to_string(policy)
       << " vcs=" << vc_count << " cap=" << vc_capacity
       << " flit=" << flit_bytes << " load=" << load
       << " shape=" << static_cast<int>(shape) << " seed=" << seed << "}";
    return os.str();
  }
};

CycleConfig config_from(const Draw& d) {
  CycleConfig config;
  config.vc.policy = d.policy;
  config.vc.vc_count = d.vc_count;
  config.vc.vn_count = d.k;
  config.vc.dynamic_floor = 1;
  config.vc_capacity_flits = d.vc_capacity;
  config.flit_bytes = d.flit_bytes;
  config.scheduler.vn_count = d.k;
  config.scheduler.port_count = 16;
  config.scheduler.queue_capacity = 64;
  return config;
}

/// Every per-cycle law the model promises, checked against the router's
/// inspection surface. Called after every step() of a trial.
void check_cycle_invariants(const CycleRouter& router) {
  const CycleConfig& config = router.config();
  const VcAllocator& alloc = router.allocator();
  ASSERT_EQ(alloc.free_count() + alloc.allocated_count(), alloc.vc_count())
      << "VC pool size must be constant";
  std::vector<std::size_t> owned_per_vn(config.vc.vn_count, 0);
  std::uint64_t buffered_total = 0;
  for (std::size_t vc = 0; vc < alloc.vc_count(); ++vc) {
    const auto owner = alloc.owner(vc);
    ASSERT_EQ(owner.has_value(), router.vc_busy(vc))
        << "vc " << vc << ": allocator and VC state disagree on occupancy";
    ASSERT_LE(router.vc_credits(vc), config.vc_capacity_flits)
        << "vc " << vc << ": credits above capacity";
    ASSERT_EQ(router.vc_credits(vc) + router.vc_buffered(vc),
              config.vc_capacity_flits)
        << "vc " << vc << ": credits + buffered != capacity";
    buffered_total += router.vc_buffered(vc);
    if (owner) {
      ++owned_per_vn[*owner];
      if (config.vc.policy != VcPolicy::kDynamic) {
        ASSERT_EQ(*owner, alloc.static_home(vc))
            << "vc " << vc << ": static policy violated its partition";
      }
    } else {
      ASSERT_EQ(router.vc_buffered(vc), 0u)
          << "vc " << vc << ": free VC holds flits";
    }
  }
  ASSERT_EQ(buffered_total, router.in_flight_flits());
  for (std::size_t vn = 0; vn < config.vc.vn_count; ++vn) {
    // narrow-ok in test: vn < vn_count fits VnId
    const auto id = static_cast<net::VnId>(vn);
    ASSERT_EQ(owned_per_vn[vn], alloc.allocated_to(id)) << "vn " << vn;
    ASSERT_LE(alloc.allocated_to(id), alloc.effective_ceiling()) << "vn " << vn;
  }
  const CycleStats& stats = router.stats();
  ASSERT_EQ(stats.flits_in,
            stats.flits_out + stats.flits_dropped + router.in_flight_flits())
      << "flit conservation violated";
  ASSERT_GE(stats.arbiter_comparisons, stats.arbiter_grants);
}

/// Drives one trial step by step, checking invariants after every cycle.
/// (Void with an out-param because ASSERT_* requires a void function.)
void run_checked(const Draw& d, std::uint64_t cycles, CycleResult* out) {
  const auto lookup = make_lookup(d.k, d.policy, 77 + d.seed % 5);
  FrameGenConfig frame_config;
  frame_config.traffic = net::make_shaped_config(d.shape, cycles, d.load, d.k);
  frame_config.corrupt_fraction = 0.02;
  frame_config.expiring_ttl_fraction = 0.02;
  const FrameGenerator frame_gen(frame_config, lookup->table_ptrs);
  auto frames = frame_gen.generate(FrameGenerator::derive_seed(d.seed, 1));
  std::sort(frames.begin(), frames.end(),
            [](const IngressFrame& a, const IngressFrame& b) {
              return a.cycle < b.cycle;
            });

  CycleRouter router(*lookup->router, config_from(d));
  const std::uint64_t deadline = cycles + 10000 + 200 * frames.size();
  std::size_t next = 0;
  while (next < frames.size() || !router.drained()) {
    while (next < frames.size() && frames[next].cycle <= router.now()) {
      router.accept_frame(frames[next]);
      ++next;
    }
    router.step();
    check_cycle_invariants(router);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_LT(router.now(), deadline) << "model failed to drain";
  }
  *out = router.finish();
}

TEST(CycleInvariants, ConservationHoldsEveryCycleForAllPoliciesAndK) {
  Rng rng(kMasterSeed);
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (const VcPolicy policy : kAllPolicies) {
      Draw d;
      d.k = k;
      d.policy = policy;
      d.vc_count = 2 * k + rng.next_in(0, k);
      d.vc_capacity = rng.next_in(2, 6);
      d.flit_bytes = 64;
      d.load = 0.3 + 0.4 * rng.next_double();
      d.shape = rng.next_bool(0.5) ? net::TraceShape::kUniform
                                   : net::TraceShape::kSkewed;
      d.seed = rng.next_in(1, 1 << 20);
      SCOPED_TRACE(d.describe());
      CycleResult result;
      run_checked(d, 1200, &result);
      if (::testing::Test::HasFatalFailure()) return;
      // End-of-run conservation: nothing in flight, every accepted packet
      // reached a verdict, every flit left or was dropped.
      EXPECT_EQ(result.cycle.flits_in,
                result.cycle.flits_out + result.cycle.flits_dropped);
      EXPECT_EQ(result.parser.accepted, result.editor.forwarded +
                                            result.editor.no_route +
                                            result.editor.ttl_expired);
      EXPECT_EQ(result.scheduler.enqueued,
                result.scheduler.transmitted + result.scheduler.tail_drops);
      EXPECT_GT(result.cycle.flits_out, 0u);
      // One occupancy sample per cycle and one depth sample per VN per
      // cycle; occupancy never exceeds the pool's flit storage.
      EXPECT_EQ(result.vc_occupancy.count(), result.cycles);
      EXPECT_EQ(result.source_queue_depth.count(), k * result.cycles);
      EXPECT_LE(result.vc_occupancy.stats.max(),
                static_cast<double>(d.vc_count * d.vc_capacity));
    }
  }
}

/// Bit-identical replay: two CycleRouter runs over the same SplitMix64
/// seed must agree on every counter and every egress record — the
/// determinism that makes a printed Draw a complete reproducer.
TEST(CycleInvariants, ReplayFromSameSeedIsBitIdentical) {
  for (const VcPolicy policy : kAllPolicies) {
    Draw d;
    d.k = 4;
    d.policy = policy;
    d.vc_count = 10;
    d.vc_capacity = 4;
    d.load = 0.55;
    d.shape = net::TraceShape::kBursty;
    d.seed = 0xfeedbeef;
    SCOPED_TRACE(d.describe());

    const auto run_once = [&] {
      const auto lookup = make_lookup(d.k, d.policy, 31);
      FrameGenConfig frame_config;
      frame_config.traffic =
          net::make_shaped_config(d.shape, 1500, d.load, d.k);
      frame_config.corrupt_fraction = 0.02;
      frame_config.expiring_ttl_fraction = 0.02;
      const FrameGenerator frame_gen(frame_config, lookup->table_ptrs);
      return run_cycle_router(
          *lookup->router,
          frame_gen.generate(FrameGenerator::derive_seed(d.seed, 2)),
          config_from(d));
    };
    const CycleResult a = run_once();
    const CycleResult b = run_once();

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cycle.flits_in, b.cycle.flits_in);
    EXPECT_EQ(a.cycle.flits_out, b.cycle.flits_out);
    EXPECT_EQ(a.cycle.flits_dropped, b.cycle.flits_dropped);
    EXPECT_EQ(a.cycle.vc_alloc_stalls, b.cycle.vc_alloc_stalls);
    EXPECT_EQ(a.cycle.credit_stalls, b.cycle.credit_stalls);
    EXPECT_EQ(a.cycle.arbiter_grants, b.cycle.arbiter_grants);
    EXPECT_EQ(a.cycle.arbiter_comparisons, b.cycle.arbiter_comparisons);
    EXPECT_EQ(a.cycle.grants_per_vn, b.cycle.grants_per_vn);
    EXPECT_EQ(a.cycle.alloc_stalls_per_vn, b.cycle.alloc_stalls_per_vn);
    EXPECT_EQ(a.scheduler.transmitted, b.scheduler.transmitted);
    EXPECT_EQ(a.scheduler.bytes_per_vn, b.scheduler.bytes_per_vn);
    ASSERT_EQ(a.egress.size(), b.egress.size());
    for (std::size_t i = 0; i < a.egress.size(); ++i) {
      EXPECT_EQ(a.egress[i].cycle, b.egress[i].cycle) << "record " << i;
      EXPECT_EQ(a.egress[i].vnid, b.egress[i].vnid) << "record " << i;
      EXPECT_EQ(a.egress[i].port, b.egress[i].port) << "record " << i;
      EXPECT_EQ(a.egress[i].bytes, b.egress[i].bytes) << "record " << i;
    }
  }
}

// ------------------------------------------------- VcAllocator unit tests

TEST(VcAllocatorTest, StaticPartitionsAreContiguousAndExhaustive) {
  VcAllocConfig config;
  config.policy = VcPolicy::kVsStatic;
  config.vc_count = 10;
  config.vn_count = 3;
  const VcAllocator alloc(config);
  // 10 VCs over 3 VNs: VN0 gets 4 (the remainder), VN1 and VN2 get 3.
  std::vector<std::size_t> per_vn(3, 0);
  for (std::size_t vc = 0; vc < 10; ++vc) {
    const net::VnId home = alloc.static_home(vc);
    ++per_vn[home];
    if (vc > 0) {
      EXPECT_GE(home, alloc.static_home(vc - 1));
    }
  }
  EXPECT_EQ(per_vn[0], 4u);
  EXPECT_EQ(per_vn[1], 3u);
  EXPECT_EQ(per_vn[2], 3u);
}

TEST(VcAllocatorTest, StaticPolicyRefusesOutsideOwnPartition) {
  VcAllocConfig config;
  config.policy = VcPolicy::kNvStatic;
  config.vc_count = 6;
  config.vn_count = 2;
  VcAllocator alloc(config);
  // VN0 exhausts its 3-VC partition, then is refused while VN1's three
  // VCs sit free — the static waste the dynamic policy exists to fix.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(alloc.allocate(0).has_value());
  EXPECT_FALSE(alloc.allocate(0).has_value());
  EXPECT_EQ(alloc.free_count(), 3u);
  EXPECT_TRUE(alloc.allocate(1).has_value());
}

TEST(VcAllocatorTest, DynamicFloorIsReservedForOtherVns) {
  VcAllocConfig config;
  config.policy = VcPolicy::kDynamic;
  config.vc_count = 4;
  config.vn_count = 2;
  config.dynamic_floor = 1;
  VcAllocator alloc(config);
  // VN0 may take 3 of 4, but the 4th is VN1's floor reserve.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(alloc.allocate(0).has_value());
  EXPECT_FALSE(alloc.allocate(0).has_value());
  // The starved VN can still claim its guaranteed minimum.
  const auto vc = alloc.allocate(1);
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(alloc.free_count(), 0u);
  // Releasing VN1's VC restores the reserve; VN0 is still blocked.
  alloc.release(*vc);
  EXPECT_FALSE(alloc.allocate(0).has_value());
}

TEST(VcAllocatorTest, DynamicCeilingCapsOneVn) {
  VcAllocConfig config;
  config.policy = VcPolicy::kDynamic;
  config.vc_count = 8;
  config.vn_count = 2;
  config.dynamic_floor = 1;
  config.dynamic_ceiling = 2;
  VcAllocator alloc(config);
  EXPECT_TRUE(alloc.allocate(0).has_value());
  EXPECT_TRUE(alloc.allocate(0).has_value());
  EXPECT_FALSE(alloc.allocate(0).has_value()) << "ceiling must cap VN0";
  EXPECT_EQ(alloc.free_count(), 6u);
}

TEST(VcAllocatorTest, PoolSizeConstantUnderRandomChurn) {
  VcAllocConfig config;
  config.policy = VcPolicy::kDynamic;
  config.vc_count = 12;
  config.vn_count = 3;
  config.dynamic_floor = 2;
  VcAllocator alloc(config);
  Rng rng(kMasterSeed ^ 0x7);
  std::vector<std::size_t> held;
  for (int i = 0; i < 2000; ++i) {
    if (rng.next_bool(0.6) || held.empty()) {
      // narrow-ok in test: bounded draw fits VnId
      const auto vn = static_cast<net::VnId>(rng.next_in(0, 2));
      if (const auto vc = alloc.allocate(vn)) {
        held.push_back(*vc);
      }
    } else {
      const std::size_t pick = rng.next_in(0, held.size() - 1);
      alloc.release(held[pick]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_EQ(alloc.free_count() + alloc.allocated_count(), 12u);
    ASSERT_EQ(alloc.allocated_count(), held.size());
  }
}

TEST(VcAllocatorTest, ReleaseOfFreeVcDies) {
  VcAllocConfig config;
  config.vc_count = 4;
  config.vn_count = 2;
  VcAllocator alloc(config);
  EXPECT_DEATH(alloc.release(0), "not allocated");
}

}  // namespace
}  // namespace vr::dataplane::cycle
