// dataplane-skew: pricing traffic traces on the cycle-level dataplane.
// K = 4 VNs share one merged engine (a MergedRouter over the 4-way
// MergedTrie of paper edge tables, 28 stages) with dynamic VC sharing
// (2K VCs, floor 1) under skewed traffic, as in the dynamic-VC study
// (Onsori & Safaei, arXiv:1412.2950). One operation builds the router
// for one trace, runs it until drained, calls finish() and prices the
// activity with power::ActivityModel at 300 MHz, grade -2. Set-up
// generates a fixed set of 16 traces that the loop cycles, so inputs stay
// small next to the program's own memory.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>

#include "dataplane/cycle/cycle_router.hpp"
#include "dataplane/frame_gen.hpp"
#include "dataplane/full_router.hpp"
#include "netbase/table_gen.hpp"
#include "pipeline/router.hpp"
#include "trace.hpp"
#include "trie/memory_layout.hpp"
#include "trie/unibit_trie.hpp"
#include "virt/merged_trie.hpp"
#include "workloads.hpp"

namespace vrbench {

namespace {

namespace cycle = vr::dataplane::cycle;
namespace dataplane = vr::dataplane;
namespace net = vr::net;
namespace pipeline = vr::pipeline;
namespace power = vr::power;
namespace trie = vr::trie;
using dataplane::FrameGenerator;
using dataplane::IngressFrame;

constexpr std::size_t kVnCount = 4;
constexpr std::size_t kStages = 28;
/// A set-up takes ~25 ms; setup_s is the median of forty, which together
/// span about a second of host time.
constexpr int kSetupRepeats = 40;
constexpr std::uint64_t kTraceCycles = 2000;
constexpr double kLoad = 0.45;
constexpr std::size_t kTraceSet = 16;
constexpr vr::units::Megahertz kFreqMhz{300.0};

/// Stage memory of an engine over `stats`, one trie level per stage.
power::EngineSpec engine_spec_of(const trie::TrieStats& stats,
                                 std::size_t nhi_width) {
  const trie::StageMapping mapping(stats.nodes_per_level.size(), kStages,
                                   trie::MappingPolicy::kOneLevelPerStage);
  const trie::StageMemory memory = trie::stage_memory(
      trie::occupancy(stats, mapping), trie::NodeEncoding{}, nhi_width);
  power::EngineSpec spec;
  for (std::size_t s = 0; s < kStages; ++s) {
    spec.stage_bits.push_back(memory.stage_bits(s));
  }
  return spec;
}

/// Per-VN busy share of the lookup stages: the utilization the run
/// exhibited, reported to the model with the counters.
std::vector<double> measured_mu(const power::ActivityCounters& activity) {
  const std::size_t stages = activity.stage_count();
  std::vector<double> mu(activity.vn_count(), 0.0);
  if (activity.cycles == 0 || stages == 0) return mu;
  for (std::size_t v = 0; v < activity.vn_count(); ++v) {
    std::uint64_t busy = 0;
    for (std::size_t s = 0; s < stages; ++s) busy += activity.busy(v, s);
    mu[v] = static_cast<double>(busy) /
            (static_cast<double>(stages) *
             static_cast<double>(activity.cycles));
  }
  return mu;
}

struct State {
  std::vector<net::RoutingTable> tables;
  std::vector<trie::UnibitTrie> tries;
  std::unique_ptr<vr::virt::MergedTrie> merged;
  power::EngineSpec merged_engine;
  std::vector<std::vector<IngressFrame>> traces;  ///< each sorted by cycle
  cycle::CycleConfig config;
  power::ActivityModel model;
};

std::unique_ptr<State> set_up(std::uint64_t seed) {
  auto s = std::make_unique<State>();
  const net::SyntheticTableGenerator table_gen(
      net::TableProfile::edge_default());
  for (std::uint64_t v = 0; v < kVnCount; ++v) {
    s->tables.push_back(
        table_gen.generate(FrameGenerator::derive_seed(seed, 10 + v)));
  }
  std::vector<const net::RoutingTable*> table_ptrs;
  std::vector<const trie::UnibitTrie*> trie_ptrs;
  s->tries.reserve(kVnCount);
  for (const auto& table : s->tables) {
    table_ptrs.push_back(&table);
    s->tries.push_back(trie::UnibitTrie(table).leaf_pushed());
  }
  for (const auto& t : s->tries) trie_ptrs.push_back(&t);
  s->merged = std::make_unique<vr::virt::MergedTrie>(
      std::span<const trie::UnibitTrie* const>(trie_ptrs));
  s->merged_engine = engine_spec_of(s->merged->stats_as_trie(), kVnCount);

  dataplane::FrameGenConfig frames;
  frames.traffic = net::make_shaped_config(net::TraceShape::kSkewed,
                                           kTraceCycles, kLoad, kVnCount);
  const FrameGenerator frame_gen(frames, table_ptrs);
  for (std::uint64_t i = 0; i < kTraceSet; ++i) {
    auto trace = frame_gen.generate(FrameGenerator::derive_seed(seed, 100 + i));
    std::stable_sort(trace.begin(), trace.end(),
                     [](const IngressFrame& a, const IngressFrame& b) {
                       return a.cycle < b.cycle;
                     });
    s->traces.push_back(std::move(trace));
  }

  s->config.vc.policy = cycle::VcPolicy::kDynamic;
  s->config.vc.vc_count = 2 * kVnCount;
  s->config.vc.vn_count = kVnCount;
  s->config.vc.dynamic_floor = 1;
  s->config.scheduler.vn_count = kVnCount;
  s->config.scheduler.port_count = 16;
  s->config.scheduler.queue_capacity = 256;
  return s;
}

/// The comparable outcome of one priced trace (replay must match it
/// exactly).
struct Outcome {
  bool drained = false;
  std::uint64_t cycles = 0;
  std::uint64_t frames = 0;
  std::uint64_t parser_accepted = 0;
  std::uint64_t parser_dropped = 0;
  std::uint64_t egress = 0;
  cycle::CycleStats stats;
  double dynamic_w = 0.0;
  bool watts_ok = false;

  [[nodiscard]] bool operator==(const Outcome& o) const {
    return drained == o.drained && cycles == o.cycles &&
           frames == o.frames && parser_accepted == o.parser_accepted &&
           parser_dropped == o.parser_dropped && egress == o.egress &&
           stats.flits_in == o.stats.flits_in &&
           stats.flits_out == o.stats.flits_out &&
           stats.flits_dropped == o.stats.flits_dropped &&
           stats.vc_alloc_stalls == o.stats.vc_alloc_stalls &&
           stats.credit_stalls == o.stats.credit_stalls &&
           stats.arbiter_grants == o.stats.arbiter_grants &&
           stats.arbiter_comparisons == o.stats.arbiter_comparisons &&
           dynamic_w == o.dynamic_w;
  }

  /// Flits conserved after drain, every frame parsed or dropped, and
  /// finite positive watts.
  [[nodiscard]] bool valid() const {
    return drained &&
           stats.flits_in == stats.flits_out + stats.flits_dropped &&
           frames == parser_accepted + parser_dropped && watts_ok;
  }
};

/// Time spent in the per-cycle calls of one trace.
struct DriveTimes {
  std::uint64_t steps = 0;
  double step_ns = 0.0;
  double accept_ns = 0.0;
};

/// Feeds `frames` (sorted by cycle) and steps until drained, exactly as
/// cycle::run_cycle_router does; kTimed also times every call. Returns
/// false when the model stops draining (a deadlock), which the caller
/// counts as a failed operation.
template <bool kTimed>
bool drive(cycle::CycleRouter& router, const std::vector<IngressFrame>& frames,
           DriveTimes* times) {
  const std::uint64_t last_arrival = frames.empty() ? 0 : frames.back().cycle;
  const std::uint64_t deadline = last_arrival + 10000 + 200 * frames.size();
  std::size_t next = 0;
  while (next < frames.size() || !router.drained()) {
    while (next < frames.size() && frames[next].cycle <= router.now()) {
      if constexpr (kTimed) {
        const auto t0 = Clock::now();
        router.accept_frame(frames[next]);
        times->accept_ns += ns_between(t0, Clock::now());
      } else {
        router.accept_frame(frames[next]);
      }
      ++next;
    }
    if constexpr (kTimed) {
      const auto t0 = Clock::now();
      router.step();
      times->step_ns += ns_between(t0, Clock::now());
      ++times->steps;
    } else {
      router.step();
    }
    if (router.now() >= deadline) return false;
  }
  return true;
}

struct SpanNames {
  Tracer::NameId op, build, run, step, accept, finish, estimate, run_trace,
      full_router;
  explicit SpanNames(Tracer& t)
      : op(t.name("dataplane.price_trace")),
        build(t.name("dataplane.router_build")),
        run(t.name("dataplane.cycle.run")),
        step(t.name("dataplane.cycle.step")),
        accept(t.name("dataplane.cycle.accept_frame")),
        finish(t.name("dataplane.cycle.finish")),
        estimate(t.name("power.activity.estimate")),
        run_trace(t.name("pipeline.run_trace")),
        full_router(t.name("dataplane.run_full_router")) {}
};

Outcome price_trace(State& s, const std::vector<IngressFrame>& frames,
                    Tracer& tracer, const SpanNames& names, std::uint64_t op) {
  auto op_span = tracer.span(names.op, op);
  Outcome out;
  out.frames = frames.size();
  std::optional<pipeline::MergedRouter> lookup;
  std::optional<cycle::CycleRouter> router;
  {
    auto span = tracer.span(names.build, op);
    lookup.emplace(*s.merged, kStages);
    router.emplace(*lookup, s.config);
  }
  {
    auto span = tracer.span(names.run, op);
    if (tracer.enabled()) {
      DriveTimes times;
      out.drained = drive<true>(*router, frames, &times);
      tracer.aggregate(names.step, times.steps, times.step_ns);
      tracer.aggregate(names.accept, frames.size(), times.accept_ns);
    } else {
      out.drained = drive<false>(*router, frames, nullptr);
    }
  }
  if (!out.drained) return out;
  cycle::CycleResult result;
  {
    auto span = tracer.span(names.finish, op);
    result = router->finish();
  }
  power::ActivityPower watts;
  {
    auto span = tracer.span(names.estimate, op);
    power::ModelContext ctx;
    ctx.scheme = power::Scheme::kMerged;
    ctx.merged_engine = &s.merged_engine;
    ctx.vn_count = kVnCount;
    ctx.op.grade = vr::fpga::SpeedGrade::kMinus2;
    ctx.op.bram_policy = vr::fpga::BramPolicy::kMixed;
    ctx.op.freq_mhz = kFreqMhz;
    ctx.op.utilization = measured_mu(result.activity);
    ctx.activity = &result.activity;
    watts = s.model.estimate(ctx);
  }
  out.cycles = result.cycles;
  out.parser_accepted = result.parser.accepted;
  out.parser_dropped = result.parser.dropped();
  out.egress = result.egress.size();
  out.stats = result.cycle;
  out.dynamic_w = watts.dynamic_w().value();
  out.watts_ok = watts_valid(watts);
  return out;
}

/// Counts summed over the traced phase's operations.
struct CycleTotals {
  std::uint64_t cycles = 0;
  std::uint64_t frames = 0;
  std::uint64_t vc_alloc_stalls = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t grants = 0;
  std::uint64_t comparisons = 0;
};

struct PhaseLog {
  TimedPhase phase;
  FailureCount ops;
  CycleTotals totals;
  std::optional<Outcome> first_of_trace0;
};

/// Runs whole passes over the trace set: traces differ in cost by up to
/// 18 %, and a slot (see TimedPhase) that holds only whole passes has a
/// median that does not depend on which traces it caught.
void run_phase(State& s, double seconds, Tracer& tracer, std::uint64_t* next_op,
               PhaseLog* log) {
  const SpanNames names(tracer);
  log->phase.start();
  while (*next_op % kTraceSet != 0 || !log->phase.done(seconds)) {
    const std::uint64_t op = (*next_op)++;
    const auto& frames = s.traces[op % kTraceSet];
    const auto t0 = Clock::now();
    const Outcome out = price_trace(s, frames, tracer, names, op);
    log->phase.add_latency_us(ns_between(t0, Clock::now()) / 1000.0);
    log->phase.add_work(static_cast<double>(frames.size()));
    log->ops.record(out.valid());
    if (op % kTraceSet == 0 && !log->first_of_trace0) {
      log->first_of_trace0 = out;
    }
    log->totals.cycles += out.cycles;
    log->totals.frames += out.frames;
    log->totals.vc_alloc_stalls += out.stats.vc_alloc_stalls;
    log->totals.credit_stalls += out.stats.credit_stalls;
    log->totals.grants += out.stats.arbiter_grants;
    log->totals.comparisons += out.stats.arbiter_comparisons;
  }
  log->phase.stop();
}

/// The per-packet references the traced run reports next to the cycle
/// model: the lookup pipeline alone, and the per-packet full router, on
/// every trace of the set.
void run_references(State& s, Tracer& tracer) {
  const SpanNames names(tracer);
  constexpr int kPasses = 4;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < kTraceSet; ++i) {
      const auto& frames = s.traces[i];
      std::vector<net::TimedPacket> packets;
      packets.reserve(frames.size());
      for (const IngressFrame& f : frames) {
        packets.push_back({f.cycle, net::Packet{f.header.destination, f.vnid}});
      }
      {
        pipeline::MergedRouter lookup(*s.merged, kStages);
        auto span = tracer.span(names.run_trace, i);
        (void)pipeline::run_trace(lookup, packets);
      }
      std::vector<IngressFrame> copy = frames;
      dataplane::FullRouterConfig config;
      config.scheduler = s.config.scheduler;
      pipeline::MergedRouter lookup(*s.merged, kStages);
      auto span = tracer.span(names.full_router, i);
      (void)dataplane::run_full_router(lookup, std::move(copy), config);
    }
  }
}

double per_call(const Tracer::Totals& t) {
  return t.total_ns / static_cast<double>(t.calls);
}

}  // namespace

RunResult run_dataplane_skew(const Options& options) {
  std::unique_ptr<State> state;
  const std::vector<double> setup_s = repeat_set_up(
      kSetupRepeats, &state, [&] { return set_up(options.seed); });

  RunResult result;
  Tracer off(false);
  Tracer tracer(options.trace);
  std::uint64_t next_op = 0;
  PhaseLog untraced;
  PhaseLog traced;
  run_timed(options, [&](double until, bool traced_block) {
    PhaseLog& log = traced_block ? traced : untraced;
    run_phase(*state, until, traced_block ? tracer : off, &next_op, &log);
    return log.phase.samples();
  });
  const EndToEnd e2e = summarize(untraced.phase);

  // Replay trace 0 from scratch: the outcome must be bit-identical.
  FailureCount ops = untraced.ops;
  ops.add(traced.ops);
  const SpanNames off_names(off);
  const Outcome replay = price_trace(*state, state->traces[0], off, off_names,
                                     next_op);
  if (!ops.record(untraced.first_of_trace0 &&
                  replay == *untraced.first_of_trace0)) {
    std::cout << "dataplane-skew: replay of trace 0 differs\n";
  }
  result.attempted = ops.attempted;
  result.failed = ops.failed;

  std::cout << "dataplane-skew: " << e2e.samples << " traces priced ("
            << e2e.quiet_samples << " in the quiet part), "
            << untraced.phase.work() << " frames, " << ops.failed
            << " failed checks\n";
  if (!options.trace) {
    add_end_to_end(setup_s, e2e, &result);
    return result;
  }

  run_references(*state, tracer);
  const SpanNames names(tracer);
  const CycleTotals& t = traced.totals;
  const double cycles = static_cast<double>(t.cycles);
  result.add("dataplane.cycle.step_ns", per_call(tracer.totals(names.step)),
             "ns");
  result.add("dataplane.cycle.accept_frame_ns",
             per_call(tracer.totals(names.accept)), "ns");
  result.add("dataplane.router_build_us",
             per_call(tracer.totals(names.build)) / 1000.0, "us");
  result.add("dataplane.cycle.finish_us",
             per_call(tracer.totals(names.finish)) / 1000.0, "us");
  result.add("power.activity.estimate_us",
             per_call(tracer.totals(names.estimate)) / 1000.0, "us");
  result.add("dataplane.cycle.cycles_per_frame",
             cycles / static_cast<double>(t.frames), "count");
  result.add("dataplane.cycle.vc_alloc_stalls_per_kcycle",
             1000.0 * static_cast<double>(t.vc_alloc_stalls) / cycles,
             "count");
  result.add("dataplane.cycle.credit_stalls_per_kcycle",
             1000.0 * static_cast<double>(t.credit_stalls) / cycles, "count");
  result.add("dataplane.cycle.arbiter_grant_share",
             static_cast<double>(t.grants) / static_cast<double>(t.comparisons),
             "ratio");
  std::uint64_t set_frames = 0;
  for (const auto& trace : state->traces) set_frames += trace.size();
  const Tracer::Totals& run_trace = tracer.totals(names.run_trace);
  const Tracer::Totals& full = tracer.totals(names.full_router);
  const double passes =
      static_cast<double>(run_trace.calls) / static_cast<double>(kTraceSet);
  result.add("pipeline.lookup.ns_per_packet",
             run_trace.total_ns / (passes * static_cast<double>(set_frames)),
             "ns");
  result.add("dataplane.full_router.ns_per_frame",
             full.total_ns / (passes * static_cast<double>(set_frames)), "ns");
  add_trace_overhead(e2e, summarize(traced.phase), &result);
  if (!options.trace_out.empty() &&
      !tracer.write_chrome_json(options.trace_out)) {
    std::cerr << "dataplane-skew: could not write " << options.trace_out
              << '\n';
  }
  return result;
}

}  // namespace vrbench
