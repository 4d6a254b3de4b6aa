#include "trie/snapshot_publisher.hpp"

#include <chrono>
#include <utility>

#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace vr::trie {

namespace {

struct PublishMetrics {
  obs::Counter& publishes;
  obs::Counter& updates;
  obs::Histogram& publish_ns;

  static const PublishMetrics& get() {
    static PublishMetrics metrics = [] {
      obs::Registry& reg = obs::Registry::global();
      return PublishMetrics{reg.counter("trie.publishes"),
                            reg.counter("trie.publish_updates"),
                            reg.histogram("trie.publish_ns")};
    }();
    return metrics;
  }
};

}  // namespace

SnapshotPublisher::SnapshotPublisher(const net::RoutingTable& base,
                                     unsigned stride)
    : stride_(stride), control_(base) {
  publish(std::make_shared<const FlatMultibitTrie>(base, stride_), 0);
}

void SnapshotPublisher::publish(
    std::shared_ptr<const FlatMultibitTrie> image, std::uint64_t version) {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  current_ = std::move(image);
  // Release-store inside the lock: a reader that observes the new version
  // via published_version() may acquire() next, and the lock there hands
  // it the matching image.
  version_.store(version, std::memory_order_release);
}

SnapshotPublisher::PublishReceipt SnapshotPublisher::apply_batch(
    std::span<const net::RouteUpdate> updates) {
  PublishReceipt receipt;
  receipt.updates_applied = updates.size();

  const auto apply_start = std::chrono::steady_clock::now();
  for (const net::RouteUpdate& update : updates) {
    receipt.cost += control_.apply(0, update);
  }
  receipt.apply_ns = obs::since(apply_start);

  const auto build_start = std::chrono::steady_clock::now();
  auto image = std::make_shared<const FlatMultibitTrie>(control_.table_of(0),
                                                        stride_);
  receipt.build_ns = obs::since(build_start);

  const auto publish_start = std::chrono::steady_clock::now();
  receipt.version = version_.load(std::memory_order_relaxed) + 1;
  publish(std::move(image), receipt.version);
  receipt.publish_ns = obs::since(publish_start);

  const PublishMetrics& metrics = PublishMetrics::get();
  metrics.publishes.add(1);
  metrics.updates.add(updates.size());
  metrics.publish_ns.observe_duration(receipt.apply_ns + receipt.build_ns +
                                      receipt.publish_ns);
  return receipt;
}

SnapshotPublisher::Snapshot SnapshotPublisher::acquire() const {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  return Snapshot{current_, version_.load(std::memory_order_relaxed)};
}

}  // namespace vr::trie
