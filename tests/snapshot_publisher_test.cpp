// SnapshotPublisher: correctness of the published images (every snapshot
// equals a from-scratch build of the control-plane table at that epoch, up
// to node numbering), version/staleness accounting, immutability of held
// snapshots, and a reader/updater stress test that a thread-sanitizer
// build (VR_SANITIZE=thread) checks for races.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/update_gen.hpp"
#include "trie/snapshot_publisher.hpp"
#include "trie/unibit_trie.hpp"
#include "trie/updatable_trie.hpp"

namespace vr::trie {
namespace {

using net::Ipv4;
using net::Prefix;
using net::RoutingTable;
using net::RouteUpdate;

RoutingTable gen_table(std::uint64_t seed, std::size_t prefixes = 300) {
  net::TableProfile profile;
  profile.prefix_count = prefixes;
  return net::SyntheticTableGenerator(profile).generate(seed);
}

std::vector<RouteUpdate> gen_updates(const RoutingTable& base,
                                     std::size_t count, std::uint64_t seed) {
  net::UpdateStreamConfig config;
  config.update_count = count;
  return net::UpdateStreamGenerator(config).generate(base, seed);
}

/// Fails unless `got` holds exactly the arrays of `want`: the same shape,
/// and the same child and next hop at every node and slot.
void expect_identical_image(const FlatMultibitTrie& got,
                            const FlatMultibitTrie& want) {
  ASSERT_EQ(got.stride(), want.stride());
  ASSERT_EQ(got.vn_count(), want.vn_count());
  ASSERT_EQ(got.node_count(), want.node_count());
  ASSERT_EQ(got.level_node_counts(), want.level_node_counts());
  for (std::size_t n = 0; n < got.node_count(); ++n) {
    const auto node = static_cast<NodeIndex>(n);
    for (std::size_t slot = 0; slot < got.width(); ++slot) {
      ASSERT_EQ(got.child(node, slot), want.child(node, slot))
          << "entry (" << n << ", " << slot << ")";
      ASSERT_EQ(got.next_hop(node, slot), want.next_hop(node, slot))
          << "entry (" << n << ", " << slot << ")";
    }
  }
}

/// Fails unless `got` is `want` up to node numbering: the same node count,
/// per-level node counts and memory, and a lockstep walk from both roots
/// that finds the same child presence and next hops at every reachable
/// entry and reaches every node.
void expect_same_image(const FlatMultibitTrie& got,
                       const FlatMultibitTrie& want) {
  ASSERT_EQ(got.stride(), want.stride());
  ASSERT_EQ(got.vn_count(), want.vn_count());
  ASSERT_EQ(got.node_count(), want.node_count());
  ASSERT_EQ(got.level_node_counts(), want.level_node_counts());
  ASSERT_EQ(got.memory_bits(), want.memory_bits());
  std::vector<std::pair<NodeIndex, NodeIndex>> stack{{0, 0}};
  std::size_t reached = 0;
  while (!stack.empty()) {
    const auto [g, w] = stack.back();
    stack.pop_back();
    ++reached;
    for (std::size_t slot = 0; slot < got.width(); ++slot) {
      for (net::VnId vn = 0; vn < got.vn_count(); ++vn) {
        ASSERT_EQ(got.next_hop(g, slot, vn), want.next_hop(w, slot, vn))
            << "entry (" << g << ", " << slot << ") vs (" << w << ", "
            << slot << "), VN " << vn;
      }
      const NodeIndex gc = got.child(g, slot);
      const NodeIndex wc = want.child(w, slot);
      ASSERT_EQ(gc == kNullNode, wc == kNullNode)
          << "entry (" << g << ", " << slot << ") vs (" << w << ", "
          << slot << ")";
      if (gc != kNullNode) stack.emplace_back(gc, wc);
    }
  }
  EXPECT_EQ(reached, got.node_count());
}

TEST(SnapshotPublisherTest, InitialImageMatchesBaseTable) {
  const RoutingTable base = gen_table(1);
  const SnapshotPublisher publisher(base, /*stride=*/4);
  EXPECT_EQ(publisher.published_version(), 0u);
  EXPECT_EQ(publisher.route_count(), base.routes().size());
  const SnapshotPublisher::Snapshot snap = publisher.acquire();
  ASSERT_NE(snap.image, nullptr);
  EXPECT_EQ(snap.version, 0u);
  EXPECT_EQ(publisher.staleness_of(snap), 0u);
  // Version 0 comes from the table constructor's inserts, in its order.
  expect_identical_image(*snap.image, FlatMultibitTrie(base, 4));
  const UnibitTrie oracle(base);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(snap.image->lookup(addr), oracle.lookup(addr));
  }
}

class SnapshotPublisherStrideTest
    : public ::testing::TestWithParam<unsigned /*stride*/> {};

TEST_P(SnapshotPublisherStrideTest, EveryEpochMatchesControlPlaneRebuild) {
  const unsigned stride = GetParam();
  const RoutingTable base = gen_table(3);
  SnapshotPublisher publisher(base, stride);
  UpdatableTrie mirror(base);  // applies the same stream independently
  const std::vector<RouteUpdate> stream = gen_updates(base, 200, 5);
  constexpr std::size_t kBatch = 50;
  const std::size_t generated_batches = stream.size() / kBatch;
  std::vector<std::span<const RouteUpdate>> batches;

  // A hand-written hostile batch closes the stream: a withdraw of an
  // absent prefix, a duplicate announce, /0 announced then withdrawn, a
  // /32, and announce-withdraw-announce of one prefix.
  const auto prefix = [](const char* text) { return *Prefix::parse(text); };
  const Prefix absent = prefix("203.0.113.0/25");
  const Prefix host = prefix("198.51.100.7/32");
  const Prefix flapping = prefix("100.64.0.0/10");
  const Prefix deflt = prefix("0.0.0.0/0");
  ASSERT_FALSE(base.contains(absent));
  ASSERT_FALSE(base.contains(host));
  ASSERT_FALSE(base.contains(flapping));
  ASSERT_FALSE(base.contains(deflt));
  const net::Route existing = base.routes()[base.size() / 2];
  using Kind = RouteUpdate::Kind;
  const std::vector<RouteUpdate> hostile{
      {Kind::kWithdraw, {absent, net::kNoRoute}},
      {Kind::kAnnounce, existing},
      {Kind::kAnnounce, existing},
      {Kind::kAnnounce, {deflt, 11}},
      {Kind::kWithdraw, {deflt, net::kNoRoute}},
      {Kind::kAnnounce, {host, 12}},
      {Kind::kAnnounce, {flapping, 13}},
      {Kind::kWithdraw, {flapping, net::kNoRoute}},
      {Kind::kAnnounce, {flapping, 14}},
  };
  for (std::size_t b = 0; b < generated_batches; ++b) {
    batches.emplace_back(stream.data() + b * kBatch, kBatch);
  }
  batches.emplace_back(hostile);

  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::span<const RouteUpdate> batch = batches[b];
    const SnapshotPublisher::PublishReceipt receipt =
        publisher.apply_batch(batch);
    EXPECT_EQ(receipt.version, b + 1);
    EXPECT_EQ(receipt.updates_applied, batch.size());
    EXPECT_GE(receipt.apply_ns.value(), 0.0);
    EXPECT_GE(receipt.build_ns.value(), 0.0);
    EXPECT_GE(receipt.publish_ns.value(), 0.0);
    for (const RouteUpdate& update : batch) (void)mirror.apply(0, update);

    const SnapshotPublisher::Snapshot snap = publisher.acquire();
    EXPECT_EQ(snap.version, b + 1);
    EXPECT_EQ(publisher.published_version(), b + 1);
    EXPECT_EQ(publisher.route_count(), mirror.route_count(0));
    const RoutingTable table = mirror.table_of(0);
    expect_same_image(*snap.image, FlatMultibitTrie(table, stride));
    const UnibitTrie oracle(table);
    Rng rng(b);
    for (int i = 0; i < 500; ++i) {
      const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
      EXPECT_EQ(snap.image->lookup(addr), oracle.lookup(addr));
    }
  }

  // After the hostile batch the image agrees with the oracle at the first,
  // middle and last address of every hostile prefix, neither /0 nor the
  // absent prefix left a route behind, and the host route and the flapped
  // prefix carry their final hops.
  const SnapshotPublisher::Snapshot last = publisher.acquire();
  const RoutingTable final_table = mirror.table_of(0);
  EXPECT_FALSE(final_table.contains(deflt));
  EXPECT_FALSE(final_table.contains(absent));
  const UnibitTrie oracle(final_table);
  for (const Prefix& p : {absent, host, flapping, deflt, existing.prefix}) {
    const std::uint32_t first = p.address().value();
    const std::uint32_t span_mask = ~prefix_mask(p.length());
    for (const std::uint32_t addr :
         {first, first | span_mask, first | (span_mask >> 1)}) {
      EXPECT_EQ(last.image->lookup(Ipv4(addr)), oracle.lookup(Ipv4(addr)))
          << p.to_string() << " at " << addr;
    }
  }
  EXPECT_EQ(last.image->lookup(host.address()), 12);
  EXPECT_EQ(last.image->lookup(flapping.address()), 14);
}

// Hop flaps of nested prefixes inside one batch: 80 prefixes along five
// host addresses under 10.0.0.0/8, so most lengths nest within one stride
// and the CPE tie-break decides most slots, plus 10.0.0.0/8 itself and /0.
// Every batch is 1-24 random announces and withdraws; every epoch must
// equal a fresh build of the control plane's table.
TEST_P(SnapshotPublisherStrideTest, NestedFlapsInsideOneBatch) {
  const unsigned stride = GetParam();
  Rng rng(23);
  std::vector<Ipv4> hosts;
  for (int i = 0; i < 5; ++i) {
    hosts.emplace_back((10u << 24) |
                       static_cast<std::uint32_t>(rng.next_below(1u << 24)));
  }
  std::vector<Prefix> pool{Prefix(Ipv4(0), 0), Prefix(Ipv4(10u << 24), 8)};
  while (pool.size() < 82) {
    const Prefix p(hosts[rng.next_below(hosts.size())],
                   static_cast<unsigned>(rng.next_in(9, 32)));
    if (std::find(pool.begin(), pool.end(), p) == pool.end()) {
      pool.push_back(p);
    }
  }
  RoutingTable base;
  for (std::size_t i = 0; i < pool.size(); i += 2) {
    base.add(pool[i], static_cast<net::NextHop>(1 + i % 7));
  }
  SnapshotPublisher publisher(base, stride);
  UpdatableTrie mirror(base);
  using Kind = RouteUpdate::Kind;
  for (int b = 0; b < 300; ++b) {
    std::vector<RouteUpdate> batch(rng.next_in(1, 24));
    for (RouteUpdate& update : batch) {
      const Prefix& p = pool[rng.next_below(pool.size())];
      update = rng.next_below(2) == 0
                   ? RouteUpdate{Kind::kAnnounce,
                                 {p, static_cast<net::NextHop>(
                                         rng.next_in(1, 4))}}
                   : RouteUpdate{Kind::kWithdraw, {p, net::kNoRoute}};
    }
    (void)publisher.apply_batch(batch);
    for (const RouteUpdate& update : batch) (void)mirror.apply(0, update);
    SCOPED_TRACE(::testing::Message() << "batch " << b);
    expect_same_image(*publisher.acquire().image,
                      FlatMultibitTrie(mirror.table_of(0), stride));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The shape of the route-churn benchmark: a forward update stream, then
// its inverses in reverse order, in 64-update batches. The stream restores
// the base table, so the last image must be the first one, up to node
// numbering.
TEST_P(SnapshotPublisherStrideTest, ChurnCycleRestoresBaseImage) {
  const unsigned stride = GetParam();
  const RoutingTable base = gen_table(29, 600);
  SnapshotPublisher publisher(base, stride);
  const SnapshotPublisher::Snapshot first = publisher.acquire();
  const std::vector<RouteUpdate> forward = gen_updates(base, 512, 31);
  UpdatableTrie mirror(base);
  std::vector<RouteUpdate> inverse;
  for (const RouteUpdate& update : forward) {
    const Prefix& p = update.route.prefix;
    const std::optional<net::Route> old = mirror.covering_route(0, p);
    if (old && old->prefix == p) {
      inverse.push_back({RouteUpdate::Kind::kAnnounce, *old});
    } else {
      inverse.push_back({RouteUpdate::Kind::kWithdraw, {p, net::kNoRoute}});
    }
    (void)mirror.apply(0, update);
  }
  std::vector<RouteUpdate> cycle = forward;
  cycle.insert(cycle.end(), inverse.rbegin(), inverse.rend());
  constexpr std::size_t kBatch = 64;
  for (std::size_t i = 0; i < cycle.size(); i += kBatch) {
    const std::size_t end = std::min(cycle.size(), i + kBatch);
    (void)publisher.apply_batch(
        std::span<const RouteUpdate>(cycle.data() + i, end - i));
  }
  EXPECT_EQ(publisher.route_count(), base.size());
  const SnapshotPublisher::Snapshot last = publisher.acquire();
  EXPECT_EQ(last.image->node_count(), first.image->node_count());
  expect_same_image(*last.image, *first.image);
}

INSTANTIATE_TEST_SUITE_P(Strides, SnapshotPublisherStrideTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(SnapshotPublisherTest, HeldSnapshotSurvivesLaterPublishes) {
  const RoutingTable base = gen_table(7);
  SnapshotPublisher publisher(base, /*stride=*/8);
  const SnapshotPublisher::Snapshot old_snap = publisher.acquire();
  const FlatMultibitTrie held = *old_snap.image;  // a private copy
  const UnibitTrie oracle(base);

  const std::vector<RouteUpdate> stream = gen_updates(base, 120, 9);
  for (std::size_t b = 0; b < 3; ++b) {
    (void)publisher.apply_batch(
        std::span<const RouteUpdate>(stream.data() + b * 40, 40));
  }
  EXPECT_EQ(publisher.published_version(), 3u);
  EXPECT_EQ(publisher.staleness_of(old_snap), 3u);
  EXPECT_EQ(publisher.staleness_of(publisher.acquire()), 0u);
  // The retired image is still fully readable (deferred reclamation), and
  // no publish wrote into it.
  expect_identical_image(*old_snap.image, held);
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(old_snap.image->lookup(addr), oracle.lookup(addr));
  }
}

// Reader/updater stress: concurrent readers acquire snapshots and run
// batched lookups while the writer keeps publishing churn batches. Under
// VR_SANITIZE=thread this is the race detector's target; in a plain build
// it still pins that every observed result is internally consistent
// (valid staleness, readable image, stable batch results).
TEST(SnapshotPublisherTest, ConcurrentReadersUnderChurn) {
  const RoutingTable base = gen_table(13);
  SnapshotPublisher publisher(base, /*stride=*/4);
  const std::vector<RouteUpdate> stream = gen_updates(base, 800, 17);
  constexpr std::size_t kBatch = 40;
  const std::size_t batches = stream.size() / kBatch;

  std::vector<Ipv4> addrs;
  {
    Rng rng(19);
    for (int i = 0; i < 256; ++i) {
      addrs.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<bool> failed{false};
  const auto reader = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      const SnapshotPublisher::Snapshot snap = publisher.acquire();
      if (snap.image == nullptr) {
        failed.store(true);
        return;
      }
      const std::vector<net::NextHop> once = snap.image->lookup_batch(addrs);
      const std::vector<net::NextHop> twice =
          snap.image->lookup_batch(addrs);
      // The image is immutable: re-running the batch must be identical
      // no matter how many publishes happened in between.
      if (once != twice ||
          publisher.staleness_of(snap) >
              publisher.published_version() - snap.version) {
        failed.store(true);
        return;
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);
  for (std::size_t b = 0; b < batches; ++b) {
    (void)publisher.apply_batch(
        std::span<const RouteUpdate>(stream.data() + b * kBatch, kBatch));
  }
  // On a single-core host the writer can finish before the readers are
  // even scheduled; keep the snapshots churn-adjacent by letting each
  // reader complete at least one pass before stopping.
  while (reads.load(std::memory_order_relaxed) < 2 && !failed.load()) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GE(reads.load(), 1u);
  EXPECT_EQ(publisher.published_version(), batches);
}

}  // namespace
}  // namespace vr::trie
