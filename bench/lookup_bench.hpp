// Shared helpers of the lookup-throughput benches (perf_lookup and the
// lookup section of perf_sweep): deterministic key generation, wall-clock
// Mlookups/s measurement of any batched lookup callable (single- and
// multi-threaded), the per-stride image rows and a publisher-churn driver
// reporting publish-latency percentiles and their apply/build/swap split.
// Header-only so both binaries measure the exact same way.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "netbase/route_update.hpp"
#include "netbase/traffic.hpp"
#include "netbase/update_gen.hpp"
#include "trie/flat_multibit_trie.hpp"
#include "trie/snapshot_publisher.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::bench {

/// Uniform random lookup keys; the same (count, seed) is the same stream.
inline std::vector<net::Ipv4> random_addresses(std::size_t count,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<net::Ipv4> addrs;
  addrs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    addrs.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
  }
  return addrs;
}

/// Folds lookup results into a checksum so the compiler cannot discard
/// the lookup work being timed.
inline std::uint64_t fold_hops(std::span<const net::NextHop> hops) {
  std::uint64_t sink = 0;
  for (const net::NextHop hop : hops) sink += hop;
  return sink;
}

/// Million lookups per second of `run_batch` (a callable resolving every
/// key of `addrs` once, returning the next-hop vector), best of `reps`
/// runs. `sink` accumulates the fold of every result (defeats DCE).
template <typename RunBatch>
double batch_mlps(const std::vector<net::Ipv4>& addrs, RunBatch&& run_batch,
                  unsigned reps, std::uint64_t* sink) {
  using Clock = std::chrono::steady_clock;
  double best_ms = 0.0;
  for (unsigned rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    const std::vector<net::NextHop> hops = run_batch();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    *sink += fold_hops(hops);
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  if (best_ms <= 0.0) return 0.0;
  return static_cast<double>(addrs.size()) / 1e3 / best_ms;
}

/// One measured lookup image of stride_rows().
struct StrideRow {
  unsigned stride = 1;
  double mlps = 0.0;
  std::uint64_t memory_bits = 0;
};

/// Single-threaded Mlookups/s (best of `reps`) and memory of the lookup
/// image over `table` at strides 1, 2, 4 and 8. Stride 1 is the node-for-
/// node flattening of the leaf-pushed uni-bit trie (the image the pipeline
/// simulator walks); the others are controlled prefix expansions.
inline std::vector<StrideRow> stride_rows(const net::RoutingTable& table,
                                          const std::vector<net::Ipv4>& addrs,
                                          unsigned reps, std::uint64_t* sink) {
  std::vector<StrideRow> rows;
  for (const unsigned stride : {1u, 2u, 4u, 8u}) {
    const trie::FlatMultibitTrie image =
        stride == 1
            ? trie::FlatMultibitTrie(trie::UnibitTrie(table).leaf_pushed())
            : trie::FlatMultibitTrie(table, stride);
    const double mlps = batch_mlps(
        addrs, [&] { return image.lookup_batch(addrs); }, reps, sink);
    rows.push_back({stride, mlps, image.memory_bits()});
  }
  return rows;
}

struct ThreadedMlps {
  std::size_t threads = 1;
  double total_mlps = 0.0;       ///< aggregate across the pool
  double per_thread_mlps = 0.0;  ///< total / threads
};

/// Aggregate Mlookups/s of `threads` concurrent readers, each resolving
/// `addrs` `reps` times against the same read-only structure via
/// `run_batch(out)`, which writes one next hop per key into `out` (must be
/// callable concurrently). Each thread reuses one result buffer across its
/// reps, so the pool times lookups, not allocations. One wall clock spans
/// the whole pool, so on an oversubscribed host total_mlps stays honest
/// (timesharing shows up as lower per-thread throughput).
template <typename RunBatch>
ThreadedMlps threaded_mlps(const std::vector<net::Ipv4>& addrs,
                           const RunBatch& run_batch, std::size_t threads,
                           unsigned reps, std::uint64_t* sink) {
  using Clock = std::chrono::steady_clock;
  ThreadedMlps out;
  out.threads = threads == 0 ? 1 : threads;
  std::vector<std::uint64_t> sinks(out.threads, 0);
  const auto worker = [&](std::size_t t) {
    std::vector<net::NextHop> hops(addrs.size());
    for (unsigned rep = 0; rep < reps; ++rep) {
      run_batch(std::span<net::NextHop>(hops));
      sinks[t] += fold_hops(hops);
    }
  };
  const Clock::time_point start = Clock::now();
  if (out.threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(out.threads);
    for (std::size_t t = 0; t < out.threads; ++t) {
      pool.emplace_back(worker, t);
    }
    for (std::thread& thread : pool) thread.join();
  }
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  for (const std::uint64_t s : sinks) *sink += s;
  const double lookups = static_cast<double>(addrs.size()) *
                         static_cast<double>(reps) *
                         static_cast<double>(out.threads);
  out.total_mlps = ms <= 0.0 ? 0.0 : lookups / 1e3 / ms;
  out.per_thread_mlps = out.total_mlps / static_cast<double>(out.threads);
  return out;
}

struct ChurnResult {
  std::size_t batches = 0;
  std::size_t updates_per_batch = 0;
  double publish_p50_us = 0.0;
  double publish_p99_us = 0.0;
  /// Medians of the PublishReceipt split: control-plane apply, image
  /// build (patch plus sync) and pointer swap.
  double apply_p50_us = 0.0;
  double build_p50_us = 0.0;
  double swap_p50_us = 0.0;
  /// Median image entries a publish's sync copied.
  double copied_entries_p50 = 0.0;
  std::uint64_t final_version = 0;
};

/// Drives `batches` churn batches of `updates_per_batch` updates through
/// the publisher and reports publish-latency percentiles (end-to-end:
/// control-plane apply + image build + pointer swap) and the median of
/// each part, in microseconds, plus the median entries each sync copied.
inline ChurnResult publisher_churn(trie::SnapshotPublisher& publisher,
                                   const net::RoutingTable& base,
                                   std::size_t batches,
                                   std::size_t updates_per_batch,
                                   std::uint64_t seed) {
  ChurnResult out;
  out.batches = batches;
  out.updates_per_batch = updates_per_batch;
  net::UpdateStreamConfig config;
  config.update_count = batches * updates_per_batch;
  const std::vector<net::RouteUpdate> stream =
      net::UpdateStreamGenerator(config).generate(base, seed);
  std::vector<double> publish_us;
  std::vector<double> apply_us;
  std::vector<double> build_us;
  std::vector<double> swap_us;
  std::vector<double> copied_entries;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::span<const net::RouteUpdate> batch(
        stream.data() + b * updates_per_batch, updates_per_batch);
    const trie::SnapshotPublisher::PublishReceipt receipt =
        publisher.apply_batch(batch);
    apply_us.push_back(receipt.apply_ns.value() / 1e3);
    build_us.push_back(receipt.build_ns.value() / 1e3);
    swap_us.push_back(receipt.publish_ns.value() / 1e3);
    copied_entries.push_back(static_cast<double>(receipt.entries_copied));
    publish_us.push_back(apply_us.back() + build_us.back() + swap_us.back());
  }
  const Percentiles percentiles(publish_us);
  out.publish_p50_us = percentiles.at(0.50);
  out.publish_p99_us = percentiles.at(0.99);
  out.apply_p50_us = Percentiles(apply_us).at(0.50);
  out.build_p50_us = Percentiles(build_us).at(0.50);
  out.swap_p50_us = Percentiles(swap_us).at(0.50);
  out.copied_entries_p50 = Percentiles(copied_entries).at(0.50);
  out.final_version = publisher.published_version();
  return out;
}

}  // namespace vr::bench
