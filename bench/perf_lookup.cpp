// perf_lookup — the line-rate software lookup bench. Measures, on one
// BGP-shaped table:
//   1. batched Mlookups/s of the flat lookup image at strides 1/2/4/8,
//      single-threaded (stride 1: the leaf-pushed uni-bit trie flattened
//      node for node; strides 2/4/8: controlled prefix expansion);
//   2. multi-threaded scaling of the fastest image (aggregate and
//      per-thread Mlookups/s across the probed concurrency);
//   3. concurrent route updates through the snapshot publisher: publish
//      latency percentiles under BGP-churn batches with their median
//      apply/build/swap split, plus the staleness a concurrent reader
//      actually observes.
// Emits a table on stdout and machine-readable JSON (default
// BENCH_lookup.json; the checked-in report is bench/BENCH_lookup.json).
//
// Flags: --threads N (reader pool, 1-4096; default: probed concurrency),
// --output FILE, --quick (smaller table and fewer keys for CI smoke use),
// --metrics[=path].
#include <atomic>
#include <fstream>
#include <memory>
#include <thread>

#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "lookup_bench.hpp"
#include "netbase/table_gen.hpp"
#include "trie/flat_multibit_trie.hpp"
#include "trie/snapshot_publisher.hpp"

namespace {

/// Reader-observed staleness while churn batches publish concurrently:
/// a reader loops acquire -> lookup -> staleness_of while the writer (this
/// thread) applies `batches` batches, then reports the maximum staleness
/// the reader saw and the last version published.
struct StalenessResult {
  std::uint64_t max_staleness = 0;
  std::uint64_t snapshots_read = 0;
  std::uint64_t sink = 0;
};

StalenessResult concurrent_staleness(vr::trie::SnapshotPublisher& publisher,
                                     const vr::net::RoutingTable& base,
                                     const std::vector<vr::net::Ipv4>& addrs,
                                     std::size_t batches,
                                     std::size_t updates_per_batch) {
  using namespace vr;
  StalenessResult out;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> max_staleness{0};
  std::atomic<std::uint64_t> snapshots_read{0};
  std::atomic<std::uint64_t> sink{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const trie::SnapshotPublisher::Snapshot snap = publisher.acquire();
      sink.fetch_add(bench::fold_hops(snap.image->lookup_batch(addrs)),
                     std::memory_order_relaxed);
      const std::uint64_t staleness = publisher.staleness_of(snap);
      std::uint64_t seen = max_staleness.load(std::memory_order_relaxed);
      while (staleness > seen &&
             !max_staleness.compare_exchange_weak(
                 seen, staleness, std::memory_order_relaxed)) {
      }
      snapshots_read.fetch_add(1, std::memory_order_relaxed);
    }
  });
  (void)bench::publisher_churn(publisher, base, batches, updates_per_batch,
                               /*seed=*/9);
  stop.store(true, std::memory_order_release);
  reader.join();
  out.max_staleness = max_staleness.load();
  out.snapshots_read = snapshots_read.load();
  out.sink = sink.load();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vr;
  bench::handle_metrics_flag(argc, argv);
  std::string output = "BENCH_lookup.json";
  bool quick = false;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = bench::threads_flag(argv[++i]);
    } else if (arg == "--output" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    }
  }
  const core::ConcurrencyProbe probe = core::probe_concurrency();
  const std::size_t pool = threads == 0 ? probe.threads : threads;

  net::TableProfile profile;
  if (quick) profile.prefix_count = 600;
  const net::RoutingTable table =
      net::SyntheticTableGenerator(profile).generate(/*seed=*/1);
  const std::size_t key_count = quick ? (1u << 16) : (1u << 20);
  const unsigned reps = quick ? 2 : 5;
  const std::vector<net::Ipv4> addrs = bench::random_addresses(key_count, 42);
  std::uint64_t sink = 0;

  TextTable table_out("perf_lookup - batched lookup throughput" +
                      std::string(quick ? " (quick profile)" : ""));
  table_out.set_header(
      {"image", "Mlookups/s", "speedup vs stride 1", "memory Kbit"});
  const std::vector<bench::StrideRow> rows =
      bench::stride_rows(table, addrs, reps, &sink);
  const double stride1_mlps = rows.front().mlps;
  double best_mlps = 0.0;
  unsigned best_stride = 2;
  double stride8_mlps = 0.0;
  for (const bench::StrideRow& row : rows) {
    if (row.stride == 8) stride8_mlps = row.mlps;
    // Thread scaling and the publisher run on a table-built image, so
    // the best of strides 2/4/8.
    if (row.stride > 1 && row.mlps > best_mlps) {
      best_mlps = row.mlps;
      best_stride = row.stride;
    }
    table_out.add_row(
        {row.stride == 1 ? std::string("stride 1 (leaf-pushed uni-bit)")
                         : "stride " + std::to_string(row.stride),
         TextTable::num(row.mlps, 2),
         TextTable::num(stride1_mlps <= 0.0 ? 0.0 : row.mlps / stride1_mlps,
                        3),
         TextTable::num(static_cast<double>(row.memory_bits) / 1e3, 1)});
  }
  vr::bench::emit(table_out);

  // Thread scaling of the fastest table-built image.
  const auto best_image = std::make_shared<const trie::FlatMultibitTrie>(
      table, best_stride);
  const bench::ThreadedMlps scaling = bench::threaded_mlps(
      addrs, [&] { return best_image->lookup_batch(addrs); }, pool, reps,
      &sink);
  std::cout << "thread scaling (stride " << best_stride << ", " << pool
            << " threads, source " << probe.source
            << "): " << TextTable::num(scaling.total_mlps, 2)
            << " Mlookups/s aggregate, "
            << TextTable::num(scaling.per_thread_mlps, 2) << " per thread\n";

  // Concurrent updates: publish latency, then reader-visible staleness.
  const std::size_t batches = quick ? 16 : 64;
  const std::size_t updates_per_batch = 64;
  trie::SnapshotPublisher publisher(table, best_stride);
  const bench::ChurnResult churn = bench::publisher_churn(
      publisher, table, batches, updates_per_batch, /*seed=*/7);
  const StalenessResult staleness = concurrent_staleness(
      publisher, table, addrs, batches, updates_per_batch);
  std::cout << "snapshot publisher (stride " << best_stride << ", "
            << batches << " x " << updates_per_batch
            << " updates): p50 " << TextTable::num(churn.publish_p50_us, 1)
            << " us, p99 " << TextTable::num(churn.publish_p99_us, 1)
            << " us per publish; p50 split: apply "
            << TextTable::num(churn.apply_p50_us, 1) << " us, build "
            << TextTable::num(churn.build_p50_us, 1) << " us, swap "
            << TextTable::num(churn.swap_p50_us, 2) << " us\n"
            << "concurrent reader: " << staleness.snapshots_read
            << " snapshots read, max staleness " << staleness.max_staleness
            << " publishes behind\n";
  if (sink + staleness.sink == 0xdeadbeef) std::cerr << "";  // defeat DCE

  std::ofstream json(output);
  json << "{\n"
       << "  \"benchmark\": \"perf_lookup\",\n"
       << "  \"build\": " << bench::build_stamp_json(probe.threads) << ",\n"
       << "  \"profile\": \"" << (quick ? "quick" : "paper") << "\",\n"
       << "  \"prefix_count\": " << profile.prefix_count << ",\n"
       << "  \"key_count\": " << key_count << ",\n"
       << "  \"threads\": " << pool << ",\n"
       << "  \"hardware_concurrency\": " << probe.threads << ",\n"
       << "  \"hardware_concurrency_source\": \"" << probe.source << "\",\n"
       << "  \"lookup_mlps_unibit\": " << TextTable::num(stride1_mlps, 3)
       << ",\n"
       << "  \"lookup_mlps_multibit\": " << TextTable::num(best_mlps, 3)
       << ",\n"
       << "  \"lookup_mlps_multibit_stride8\": "
       << TextTable::num(stride8_mlps, 3) << ",\n"
       << "  \"best_stride\": " << best_stride << ",\n"
       << "  \"lookup_mlps_total\": " << TextTable::num(scaling.total_mlps, 3)
       << ",\n"
       << "  \"lookup_mlps_per_thread\": "
       << TextTable::num(scaling.per_thread_mlps, 3) << ",\n"
       << "  \"update_batches\": " << batches << ",\n"
       << "  \"updates_per_batch\": " << updates_per_batch << ",\n"
       << "  \"update_publish_p50_us\": "
       << TextTable::num(churn.publish_p50_us, 3) << ",\n"
       << "  \"update_publish_p99_us\": "
       << TextTable::num(churn.publish_p99_us, 3) << ",\n"
       << "  \"update_apply_p50_us\": "
       << TextTable::num(churn.apply_p50_us, 3) << ",\n"
       << "  \"update_build_p50_us\": "
       << TextTable::num(churn.build_p50_us, 3) << ",\n"
       << "  \"update_swap_p50_us\": "
       << TextTable::num(churn.swap_p50_us, 3) << ",\n"
       << "  \"reader_snapshots\": " << staleness.snapshots_read << ",\n"
       << "  \"reader_max_staleness\": " << staleness.max_staleness << ",\n"
       << "  \"metrics\": "
       << obs::MetricsSink(obs::Registry::global()).json(2) << "\n"
       << "}\n";
  if (!json) {
    std::cerr << "error: could not write " << output << '\n';
    return 1;
  }
  std::cout << "wrote " << output << '\n';
  return 0;
}
