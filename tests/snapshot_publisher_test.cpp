// SnapshotPublisher: correctness of the published images (every snapshot
// equals a from-scratch build of the control-plane table at that epoch),
// version/staleness accounting, and a reader/updater stress test that a
// thread-sanitizer build (VR_SANITIZE=thread) checks for races.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
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

TEST(SnapshotPublisherTest, InitialImageMatchesBaseTable) {
  const RoutingTable base = gen_table(1);
  const SnapshotPublisher publisher(base, /*stride=*/4);
  EXPECT_EQ(publisher.published_version(), 0u);
  EXPECT_EQ(publisher.route_count(), base.routes().size());
  const SnapshotPublisher::Snapshot snap = publisher.acquire();
  ASSERT_NE(snap.image, nullptr);
  EXPECT_EQ(snap.version, 0u);
  EXPECT_EQ(publisher.staleness_of(snap), 0u);
  const UnibitTrie oracle(base);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(snap.image->lookup(addr), oracle.lookup(addr));
  }
}

/// Fails unless `got` holds exactly the arrays of `want`: the same shape,
/// and the same child and next hop at every node and slot.
void expect_same_image(const FlatMultibitTrie& got,
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

INSTANTIATE_TEST_SUITE_P(Strides, SnapshotPublisherStrideTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(SnapshotPublisherTest, HeldSnapshotSurvivesLaterPublishes) {
  const RoutingTable base = gen_table(7);
  SnapshotPublisher publisher(base, /*stride=*/8);
  const SnapshotPublisher::Snapshot old_snap = publisher.acquire();
  const UnibitTrie oracle(base);

  const std::vector<RouteUpdate> stream = gen_updates(base, 120, 9);
  for (std::size_t b = 0; b < 3; ++b) {
    (void)publisher.apply_batch(
        std::span<const RouteUpdate>(stream.data() + b * 40, 40));
  }
  EXPECT_EQ(publisher.published_version(), 3u);
  EXPECT_EQ(publisher.staleness_of(old_snap), 3u);
  EXPECT_EQ(publisher.staleness_of(publisher.acquire()), 0u);
  // The retired image is still fully readable (deferred reclamation).
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
