// Epoch-style snapshot publication for concurrent route updates.
//
// The paper's update-rate model (Sec. V-B) assumes the control plane keeps
// writing routes while the data plane keeps forwarding, and its ref. [6]
// updates a virtualized router's image in place. This publisher realizes
// the software analogue of that split with RCU-style snapshots: a single
// writer owns an UpdatableTrie (the control-plane state) and a
// FlatMultibitTrie::Writer (the stride-k image plus its CPE tie-break
// lengths). Each batch goes to the control plane first; then every
// updated prefix is refreshed in the writer from the route that now covers
// it, and the writer's image is copied into a new immutable snapshot and
// atomically published. Readers acquire() a shared_ptr snapshot and run
// lookups against a frozen image — never blocked by the writer, never
// observing a half-applied batch. A published image is never written
// again; the last shared_ptr release reclaims it (deferred reclamation),
// so a reader mid-batch keeps its epoch alive for free.
//
// Staleness is observable: every published image carries a monotonically
// increasing version, and staleness_of() reports how many batches a held
// snapshot is behind the newest one. bench/perf_lookup measures the
// publish latency, its apply/build/swap split, and the reader-visible
// staleness under churn.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "common/units.hpp"
#include "netbase/route_update.hpp"
#include "netbase/routing_table.hpp"
#include "trie/flat_multibit_trie.hpp"
#include "trie/updatable_trie.hpp"

namespace vr::trie {

class SnapshotPublisher {
 public:
  /// An immutable published image plus its epoch. Copyable; holding one
  /// keeps the image alive regardless of later publishes.
  struct Snapshot {
    std::shared_ptr<const FlatMultibitTrie> image;
    std::uint64_t version = 0;
  };

  /// What one apply_batch() did and what it cost.
  struct PublishReceipt {
    std::uint64_t version = 0;         ///< version the batch published
    std::size_t updates_applied = 0;
    UpdateCost cost;                   ///< control-plane write accounting
    units::Nanoseconds apply_ns{0.0};  ///< control-plane update time
    /// Image build time: the per-prefix patch plus the snapshot copy.
    units::Nanoseconds build_ns{0.0};
    units::Nanoseconds publish_ns{0.0};  ///< pointer-swap time
  };

  /// Builds and publishes the initial image (version 0) from `base`.
  /// `stride` must be one a FlatMultibitTrie supports (1, 2, 4 or 8).
  SnapshotPublisher(const net::RoutingTable& base, unsigned stride);

  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  /// Applies one churn batch to the control plane, patches the writer's
  /// image at every updated prefix, and publishes a copy of it as the next
  /// version. Single writer only: concurrent apply_batch calls are a caller
  /// bug.
  PublishReceipt apply_batch(std::span<const net::RouteUpdate> updates);

  /// The newest published image. Safe to call from any thread, any number
  /// of threads, concurrently with apply_batch.
  [[nodiscard]] Snapshot acquire() const;

  /// Version of the newest published image.
  [[nodiscard]] std::uint64_t published_version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// How many publishes `snapshot` is behind the newest image.
  [[nodiscard]] std::uint64_t staleness_of(const Snapshot& snapshot) const
      noexcept {
    return published_version() - snapshot.version;
  }

  [[nodiscard]] unsigned stride() const noexcept {
    return writer_.image().stride();
  }
  /// Routes currently installed in the control plane.
  [[nodiscard]] std::size_t route_count() const noexcept {
    return control_.route_count(0);
  }

 private:
  void publish(std::shared_ptr<const FlatMultibitTrie> image,
               std::uint64_t version);

  UpdatableTrie control_;            // writer-owned control plane, one VN
  FlatMultibitTrie::Writer writer_;  // writer-owned image, never published

  mutable std::mutex publish_mutex_;  // also orders version_ stores
  // guarded_by(publish_mutex_)
  std::shared_ptr<const FlatMultibitTrie> current_;
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace vr::trie
