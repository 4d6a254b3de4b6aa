// route-churn: lookups and route updates on one stride-8 SnapshotPublisher
// over the paper's Assumption-2 worst-case table (10,000 prefixes). One
// loop iteration is 512 bursts of 256 keys — acquire(), then
// lookup_batch — followed by one 64-update churn batch through
// apply_batch. Throughput counts lookups over the whole loop, publishes
// included; latency is per publish.
//
// Stationarity. The update generator draws brand-new prefixes from a
// fresh synthetic table; from its default pool they land in other
// provider blocks, grow the image and run dry after ~12 k updates. Here
// the pool is the base table's own generator asked for 2,000 more
// prefixes (same seed, so a superset in the same blocks), and the stream
// is a cycle: 4,096 generated updates, then their inverses in reverse
// order, which restore the base table. The timed loop replays the cycle,
// so route and entry counts stay near their start (guarded at ±5 %).
#include <algorithm>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>

#include "dataplane/frame_gen.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/traffic.hpp"
#include "netbase/update_gen.hpp"
#include "trace.hpp"
#include "trie/snapshot_publisher.hpp"
#include "trie/unibit_trie.hpp"
#include "workloads.hpp"

namespace vrbench {

namespace {

using vr::dataplane::FrameGenerator;
namespace net = vr::net;
namespace trie = vr::trie;

constexpr unsigned kStride = 8;
/// A set-up takes ~30 ms; setup_s is the median of forty, which together
/// span over a second of host time.
constexpr int kSetupRepeats = 40;
constexpr std::size_t kBurstKeys = 256;
constexpr std::size_t kBurstsPerPublish = 512;
constexpr std::size_t kBatchUpdates = 64;
/// Keys of 255 bursts: a cycle of 512 bursts is not a whole number of
/// passes, so each publish's first burst starts two bursts further on and
/// the sampled bursts cover the whole pool over time.
constexpr std::size_t kKeyPool = 255 * kBurstKeys;
constexpr std::size_t kForwardUpdates = 4096;
constexpr std::size_t kFreshPrefixes = 2000;
constexpr double kRegimeTolerance = 0.05;
/// Publishes between sampled bursts checked against the oracle.
constexpr std::uint64_t kSampleEvery = 41;
/// Churn-cycle positions whose consecutive images are diffed.
constexpr std::size_t kDiffSamples = 16;

struct Inputs {
  net::RoutingTable base;
  std::vector<net::Ipv4> keys;
  /// One churn cycle in 64-update batches; applying all of them to
  /// `base` gives `base` back.
  std::vector<std::vector<net::RouteUpdate>> batches;
};

/// The next hop `table` holds for `prefix`, if any.
std::optional<net::NextHop> installed_hop(const net::RoutingTable& table,
                                          const net::Prefix& prefix) {
  const auto routes = table.routes();
  const auto it = std::lower_bound(
      routes.begin(), routes.end(), prefix,
      [](const net::Route& r, const net::Prefix& p) { return r.prefix < p; });
  if (it == routes.end() || it->prefix != prefix) return std::nullopt;
  return it->next_hop;
}

void apply(const net::RouteUpdate& update, net::RoutingTable* table) {
  if (update.kind == net::RouteUpdate::Kind::kAnnounce) {
    table->add(update.route);
  } else {
    table->remove(update.route.prefix);
  }
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const std::uint64_t table_seed = FrameGenerator::derive_seed(seed, 1);
  in.base = net::SyntheticTableGenerator(net::TableProfile::worst_case())
                .generate(table_seed);

  net::TrafficGenerator traffic(net::TrafficConfig{}, {&in.base});
  vr::Rng key_rng(FrameGenerator::derive_seed(seed, 2));
  in.keys.reserve(kKeyPool);
  for (std::size_t i = 0; i < kKeyPool; ++i) {
    in.keys.push_back(traffic.sample_packet(key_rng, 0).addr);
  }

  // The generator draws fresh prefixes from generate(stream_seed ^
  // 0xfeed) of its profile; this stream seed makes that the base table's
  // own generation, continued to 2,000 more prefixes.
  net::UpdateStreamConfig churn;
  churn.update_count = kForwardUpdates;
  churn.profile = net::TableProfile::worst_case();
  churn.profile.prefix_count += kFreshPrefixes;
  const std::vector<net::RouteUpdate> forward =
      net::UpdateStreamGenerator(churn).generate(in.base,
                                                 table_seed ^ 0xfeedULL);

  net::RoutingTable mirror = in.base;
  std::vector<net::RouteUpdate> inverse;
  inverse.reserve(forward.size());
  for (const net::RouteUpdate& update : forward) {
    const auto old_hop = installed_hop(mirror, update.route.prefix);
    if (old_hop) {
      inverse.push_back({net::RouteUpdate::Kind::kAnnounce,
                         {update.route.prefix, *old_hop}});
    } else {
      inverse.push_back({net::RouteUpdate::Kind::kWithdraw,
                         {update.route.prefix, net::kNoRoute}});
    }
    apply(update, &mirror);
  }
  std::vector<net::RouteUpdate> cycle = forward;
  cycle.insert(cycle.end(), inverse.rbegin(), inverse.rend());
  for (std::size_t i = 0; i < cycle.size(); i += kBatchUpdates) {
    const std::size_t end = std::min(cycle.size(), i + kBatchUpdates);
    in.batches.emplace_back(cycle.begin() + static_cast<std::ptrdiff_t>(i),
                            cycle.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return in;
}

struct State {
  Inputs in;
  std::unique_ptr<trie::SnapshotPublisher> publisher;
  std::size_t start_routes = 0;
  std::size_t start_entries = 0;
  std::uint64_t bursts = 0;
};

std::unique_ptr<State> set_up(std::uint64_t seed) {
  auto state = std::make_unique<State>();
  state->in = make_inputs(seed);
  state->publisher =
      std::make_unique<trie::SnapshotPublisher>(state->in.base, kStride);
  state->start_routes = state->publisher->route_count();
  state->start_entries = state->publisher->acquire().image->entry_count();
  return state;
}

/// A burst kept for the oracle comparison after the run.
struct Sample {
  std::uint64_t version = 0;
  std::size_t offset = 0;
  std::vector<net::NextHop> hops;
};

struct PhaseLog {
  TimedPhase phase;
  FailureCount ops;
  bool regime_held = true;
  std::vector<Sample> samples;
  std::vector<double> apply_us, rebuild_us, swap_us;
};

bool within(std::size_t value, std::size_t start) {
  const double ratio = static_cast<double>(value) / static_cast<double>(start);
  return ratio >= 1.0 - kRegimeTolerance && ratio <= 1.0 + kRegimeTolerance;
}

struct SpanNames {
  Tracer::NameId acquire, lookup, lookup_first, apply_batch;
  explicit SpanNames(Tracer& t)
      : acquire(t.name("trie.acquire")),
        lookup(t.name("trie.lookup_batch")),
        lookup_first(t.name("trie.lookup_batch.first")),
        apply_batch(t.name("trie.apply_batch")) {}
};

void run_phase(State& s, double seconds, Tracer& tracer, PhaseLog* log) {
  const SpanNames names(tracer);
  trie::SnapshotPublisher& publisher = *s.publisher;
  const std::span<const net::Ipv4> pool(s.in.keys);
  const std::size_t bursts_in_pool = kKeyPool / kBurstKeys;
  log->phase.start();
  while (!log->phase.done(seconds)) {
    const std::uint64_t version = publisher.published_version();
    const bool sampled = version % kSampleEvery == 1;
    for (std::size_t b = 0; b < kBurstsPerPublish; ++b, ++s.bursts) {
      const std::size_t offset = (s.bursts % bursts_in_pool) * kBurstKeys;
      trie::SnapshotPublisher::Snapshot snapshot;
      {
        auto span = tracer.span(names.acquire, s.bursts);
        snapshot = publisher.acquire();
      }
      std::vector<net::NextHop> hops;
      {
        auto span = tracer.span(b == 0 ? names.lookup_first : names.lookup,
                                s.bursts);
        hops = snapshot.image->lookup_batch(pool.subspan(offset, kBurstKeys));
      }
      if (b == 0 && !within(snapshot.image->entry_count(), s.start_entries)) {
        log->regime_held = false;
      }
      if (sampled && (b == 0 || b == kBurstsPerPublish / 2)) {
        log->samples.push_back({snapshot.version, offset, std::move(hops)});
      }
    }
    log->phase.add_work(static_cast<double>(kBurstsPerPublish * kBurstKeys));

    const auto& batch = s.in.batches[version % s.in.batches.size()];
    const auto t0 = Clock::now();
    trie::SnapshotPublisher::PublishReceipt receipt;
    {
      auto span = tracer.span(names.apply_batch, version + 1);
      receipt = publisher.apply_batch(batch);
    }
    const bool visible = publisher.published_version() == receipt.version;
    log->phase.add_latency_us(ns_between(t0, Clock::now()) / 1000.0);
    const bool regime = within(publisher.route_count(), s.start_routes);
    log->regime_held = log->regime_held && regime;
    log->ops.record(visible && regime &&
                    receipt.updates_applied == batch.size());
    if (tracer.enabled()) {
      log->apply_us.push_back(receipt.apply_ns.value() / 1000.0);
      log->rebuild_us.push_back(receipt.build_ns.value() / 1000.0);
      log->swap_us.push_back(receipt.publish_ns.value() / 1000.0);
    }
  }
  log->phase.stop();
}

/// Entries of `next` that differ from the entry at the same position of
/// `prev` (next hop, or whether a child exists), walking both images
/// from the root; entries with no counterpart count as changed.
std::size_t changed_entries(const trie::FlatMultibitTrie& prev,
                            trie::NodeIndex p,
                            const trie::FlatMultibitTrie& next,
                            trie::NodeIndex n) {
  std::size_t changed = 0;
  for (std::size_t slot = 0; slot < next.width(); ++slot) {
    const trie::NodeIndex nc = next.child(n, slot);
    if (p == trie::kNullNode) {
      ++changed;
      if (nc != trie::kNullNode) {
        changed += changed_entries(prev, trie::kNullNode, next, nc);
      }
      continue;
    }
    const trie::NodeIndex pc = prev.child(p, slot);
    if (next.next_hop(n, slot) != prev.next_hop(p, slot) ||
        (nc == trie::kNullNode) != (pc == trie::kNullNode)) {
      ++changed;
    }
    if (nc != trie::kNullNode) changed += changed_entries(prev, pc, next, nc);
  }
  return changed;
}

/// Post-run checks against a UnibitTrie built from a mirror RoutingTable
/// that replays the churn cycle: every sampled burst, the final image
/// over the whole key pool, and the cycle's return to the base table, one
/// checked operation each. Also diffs consecutive images at kDiffSamples
/// cycle positions (the changed-entry share).
struct CheckOutcome {
  FailureCount ops;
  std::size_t changed = 0;
  std::size_t rebuilt = 0;
};

CheckOutcome check_against_oracle(const State& s,
                                  const std::vector<Sample>& samples) {
  CheckOutcome out;
  const std::size_t period = s.in.batches.size();
  const auto final_snapshot = s.publisher->acquire();
  const std::size_t diff_stride = std::max<std::size_t>(1, period / kDiffSamples);
  net::RoutingTable mirror = s.in.base;
  for (std::size_t phase = 0; phase < period; ++phase) {
    std::vector<const Sample*> here;
    for (const Sample& sample : samples) {
      if (sample.version % period == phase) here.push_back(&sample);
    }
    const bool final_here = final_snapshot.version % period == phase;
    if (!here.empty() || final_here) {
      const trie::UnibitTrie oracle(mirror);
      for (const Sample* sample : here) {
        const auto keys = std::span<const net::Ipv4>(s.in.keys).subspan(
            sample->offset, kBurstKeys);
        out.ops.record(count_next_hop_mismatches(
                           sample->hops, oracle.lookup_batch(keys)) == 0);
      }
      if (final_here) {
        out.ops.record(count_next_hop_mismatches(
                           final_snapshot.image->lookup_batch(s.in.keys),
                           oracle.lookup_batch(s.in.keys)) == 0);
      }
    }
    if (phase % diff_stride == 0) {
      const trie::FlatMultibitTrie before(mirror, kStride);
      for (const auto& update : s.in.batches[phase]) apply(update, &mirror);
      const trie::FlatMultibitTrie after(mirror, kStride);
      out.changed += changed_entries(before, 0, after, 0);
      out.rebuilt += after.entry_count();
    } else {
      for (const auto& update : s.in.batches[phase]) apply(update, &mirror);
    }
  }
  out.ops.record(mirror == s.in.base);  // the cycle must close
  return out;
}

}  // namespace

RunResult run_route_churn(const Options& options) {
  std::unique_ptr<State> state;
  const std::vector<double> setup_s = repeat_set_up(
      kSetupRepeats, &state, [&] { return set_up(options.seed); });

  RunResult result;
  Tracer off(false);
  Tracer tracer(options.trace);
  PhaseLog untraced;
  PhaseLog traced;
  run_timed(options, [&](double until, bool traced_block) {
    PhaseLog& log = traced_block ? traced : untraced;
    run_phase(*state, until, traced_block ? tracer : off, &log);
    return log.phase.samples();
  });
  const EndToEnd e2e = summarize(untraced.phase);

  std::vector<Sample> samples = std::move(untraced.samples);
  samples.insert(samples.end(), std::make_move_iterator(traced.samples.begin()),
                 std::make_move_iterator(traced.samples.end()));
  const CheckOutcome check = check_against_oracle(*state, samples);
  FailureCount ops = untraced.ops;
  ops.add(traced.ops);
  ops.add(check.ops);
  result.attempted = ops.attempted;
  result.failed = ops.failed;
  result.correct = untraced.regime_held && traced.regime_held;

  std::cout << "route-churn: " << e2e.samples << " publishes timed ("
            << e2e.quiet_samples << " in the quiet part), "
            << untraced.phase.work() << " lookups, " << samples.size()
            << " bursts checked against the oracle, routes "
            << state->start_routes << " -> " << state->publisher->route_count()
            << '\n';
  if (!options.trace) {
    add_end_to_end(setup_s, e2e, &result);
    return result;
  }

  const SpanNames names(tracer);
  const Tracer::Totals& all = tracer.totals(names.lookup);
  const Tracer::Totals& first = tracer.totals(names.lookup_first);
  const Tracer::Totals& acquire = tracer.totals(names.acquire);
  const Tracer::Totals& publish = tracer.totals(names.apply_batch);
  const double keys = static_cast<double>((all.calls + first.calls) * kBurstKeys);
  result.add("trie.lookup.ns_per_key", (all.self_ns + first.self_ns) / keys,
             "ns");
  result.add("trie.lookup.first_burst_ns_per_key",
             first.self_ns / static_cast<double>(first.calls * kBurstKeys),
             "ns");
  result.add("trie.acquire.ns",
             acquire.total_ns / static_cast<double>(acquire.calls), "ns");
  result.add("trie.publish.apply_us", median(traced.apply_us), "us");
  result.add("trie.publish.rebuild_us", median(traced.rebuild_us), "us");
  result.add("trie.publish.swap_us", median(traced.swap_us), "us");
  result.add("trie.publish.time_share",
             publish.total_ns / (traced.phase.elapsed_s() * 1e9), "ratio");
  result.add("trie.publish.changed_entry_share",
             static_cast<double>(check.changed) /
                 static_cast<double>(check.rebuilt),
             "ratio");
  result.add("trie.image.entries",
             static_cast<double>(
                 state->publisher->acquire().image->entry_count()),
             "count");
  add_trace_overhead(e2e, summarize(traced.phase), &result);
  if (!options.trace_out.empty() &&
      !tracer.write_chrome_json(options.trace_out)) {
    std::cerr << "route-churn: could not write " << options.trace_out << '\n';
  }
  return result;
}

}  // namespace vrbench
