#include "trie/snapshot_publisher.hpp"

#include <array>
#include <chrono>
#include <utility>

#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace vr::trie {

namespace {

struct PublishMetrics {
  obs::Counter& publishes;
  obs::Counter& updates;
  obs::Counter& copied_entries;
  obs::Histogram& publish_ns;

  static const PublishMetrics& get() {
    static PublishMetrics metrics = [] {
      obs::Registry& reg = obs::Registry::global();
      return PublishMetrics{reg.counter("trie.publishes"),
                            reg.counter("trie.publish_updates"),
                            reg.counter("trie.publish_copied_entries"),
                            reg.histogram("trie.publish_ns")};
    }();
    return metrics;
  }
};

}  // namespace

void SnapshotPublisher::ImagePool::give(Spare spare) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (spare_.image == nullptr || spare.synced_at > spare_.synced_at) {
      std::swap(spare_, spare);
    }
  }
  spare.image.reset();  // the staler image, if any, outside the lock
}

SnapshotPublisher::ImagePool::Spare SnapshotPublisher::ImagePool::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spare_, Spare{});
}

SnapshotPublisher::SnapshotPublisher(const net::RoutingTable& base,
                                     unsigned stride)
    : control_(base), writer_(std::array{&base}, stride) {
  std::size_t entries_copied = 0;
  publish(sync_image(&entries_copied), 0);
}

std::shared_ptr<const FlatMultibitTrie> SnapshotPublisher::sync_image(
    std::size_t* entries_copied) {
  ImagePool::Spare spare = pool_->take();
  if (spare.image == nullptr) {
    const FlatMultibitTrie& image = writer_.image();
    spare.image =
        std::make_unique<FlatMultibitTrie>(image.stride(), image.vn_count());
  }
  const FlatMultibitTrie::Writer::Synced synced =
      writer_.sync(*spare.image, spare.synced_at);
  *entries_copied = synced.entries_copied;
  // The deleter runs only once the last snapshot of the image is gone, and
  // the pool's mutex orders that reader's reads before the sync that
  // rewrites the image; nothing guesses from use_count().
  return std::shared_ptr<const FlatMultibitTrie>(
      spare.image.release(),
      [pool = pool_, synced_at = synced.generation](FlatMultibitTrie* image) {
        pool->give({std::unique_ptr<FlatMultibitTrie>(image), synced_at});
      });
}

void SnapshotPublisher::publish(
    std::shared_ptr<const FlatMultibitTrie> image, std::uint64_t version) {
  {
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    current_.swap(image);
    // Release-store inside the lock: a reader that observes the new
    // version via published_version() may acquire() next, and the lock
    // there hands it the matching image.
    version_.store(version, std::memory_order_release);
  }
  // The retired image goes back to the pool unless a reader still holds
  // it; its deleter takes only the pool's mutex, outside this lock.
  image.reset();
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

  // Each refresh writes the prefix's post-batch owner, so the order does
  // not matter and a prefix updated twice is refreshed twice, harmlessly.
  const auto build_start = std::chrono::steady_clock::now();
  for (const net::RouteUpdate& update : updates) {
    const net::Prefix& prefix = update.route.prefix;
    writer_.refresh(0, prefix, control_.covering_route(0, prefix));
  }
  auto image = sync_image(&receipt.entries_copied);
  receipt.build_ns = obs::since(build_start);

  const auto publish_start = std::chrono::steady_clock::now();
  receipt.version = version_.load(std::memory_order_relaxed) + 1;
  publish(std::move(image), receipt.version);
  receipt.publish_ns = obs::since(publish_start);

  const PublishMetrics& metrics = PublishMetrics::get();
  metrics.publishes.add(1);
  metrics.updates.add(updates.size());
  metrics.copied_entries.add(receipt.entries_copied);
  metrics.publish_ns.observe_duration(receipt.apply_ns + receipt.build_ns +
                                      receipt.publish_ns);
  return receipt;
}

SnapshotPublisher::Snapshot SnapshotPublisher::acquire() const {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  return Snapshot{current_, version_.load(std::memory_order_relaxed)};
}

}  // namespace vr::trie
