// fleet-online: online VN placement on a 1,000-device fleet with the
// controller's default policy (best-fit-watts, consolidation on), after
// power-aware placement studies such as arXiv:1807.07876. Requests come
// from a seeded RequestStream with a mean holding time of 4,000 ticks.
// Set-up runs a 40,000-request warm-up — ten mean holding times — which
// brings fleet occupancy and the CostOracle's shape memo to steady state;
// that is where core::PowerEstimator and core::WorkloadCache do their
// work. (After 12,000 requests the fleet is still consolidating: about
// 620 devices active and 350 shape groups, settling near 505 and 235 only
// some 30,000 requests later, with per-request time falling by a third
// on the way.) One timed operation is one PlacementController::run call on one
// request. The fleet stays unsaturated: no request may be refused and
// well under the whole fleet may be active.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>

#include "dataplane/frame_gen.hpp"
#include "fpga/device.hpp"
#include "obs/registry.hpp"
#include "placement/controller.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace vrbench {

namespace {

namespace placement = vr::placement;

constexpr std::size_t kFleetSize = 1000;
constexpr std::uint64_t kMeanHoldingTicks = 4000;
constexpr std::uint64_t kWarmupRequests = 40000;
/// A set-up takes ~2 s; setup_s is the median of five. The first, cold
/// one often runs up to a quarter slower than the rest, and a median of
/// three then sits on the slower of the other two.
constexpr int kSetupRepeats = 5;
/// Requests between whole-fleet output checks.
constexpr std::uint64_t kCheckEvery = 500;
/// The regime guard: active devices must stay below this fleet share.
constexpr double kMaxActiveShare = 0.8;
/// Requests the traced run probes enumeration and the three policies on.
constexpr std::uint64_t kProbeRequests = 2000;

constexpr placement::PolicyKind kPolicies[] = {
    placement::PolicyKind::kBestFitWatts, placement::PolicyKind::kFirstFit,
    placement::PolicyKind::kExpCost};

struct State {
  std::unique_ptr<placement::CostOracle> oracle;
  std::unique_ptr<placement::PlacementController> controller;
  std::unique_ptr<placement::RequestStream> stream;
  std::uint64_t accepted = 0;
  std::uint64_t departed = 0;
  double fleet_w = 0.0;  ///< incremental tracker after the latest request
  double warmup_s = 0.0;
  vr::core::WorkloadCache::Stats setup_cache;
  bool warmup_ok = false;
};

std::unique_ptr<State> set_up(std::uint64_t seed) {
  auto s = std::make_unique<State>();
  placement::OracleConfig oracle;
  oracle.table_seed = vr::dataplane::FrameGenerator::derive_seed(seed, 4);
  s->oracle = std::make_unique<placement::CostOracle>(
      vr::fpga::DeviceSpec::xc6vlx760(), oracle);
  placement::ControllerConfig config;
  config.policy = placement::PolicyKind::kBestFitWatts;
  config.fleet_size = kFleetSize;
  config.consolidate = true;
  s->controller = std::make_unique<placement::PlacementController>(
      s->oracle.get(), config, &vr::obs::Registry::global());
  placement::RequestStreamConfig stream;
  stream.seed = vr::dataplane::FrameGenerator::derive_seed(seed, 3);
  stream.mean_holding_ticks = kMeanHoldingTicks;
  s->stream = std::make_unique<placement::RequestStream>(stream);
  placement::ControllerResult warmup;
  s->warmup_s = timed_s(
      [&] { warmup = s->controller->run(*s->stream, kWarmupRequests); });
  s->accepted = warmup.accepted;
  s->departed = warmup.departures;
  s->fleet_w = warmup.fleet_w;
  s->warmup_ok = warmup.rejected == 0;
  s->setup_cache = s->oracle->workload_cache_stats();
  return s;
}

/// The whole-fleet checks: incremental watts against a recomputation,
/// every shape group feasible, resident VNs = accepted - departed, and
/// the unsaturated regime. Returns the first failure, or null.
const char* fleet_check(State& s) {
  const double recomputed = s.controller->recomputed_fleet_w();
  if (std::abs(recomputed - s.fleet_w) >
      1e-9 * std::max(1.0, std::abs(recomputed))) {
    return "incremental fleet watts drifted from the recomputation";
  }
  std::uint64_t resident = 0;
  for (const auto& [shape, devices] : s.controller->fleet().groups()) {
    if (!s.oracle->feasible(shape)) return "an infeasible shape is placed";
    resident += std::uint64_t{shape.vn_count} * devices.size();
  }
  if (resident != s.accepted - s.departed) {
    return "resident VNs differ from accepted - departed";
  }
  if (static_cast<double>(s.controller->fleet().active_devices()) >=
      kMaxActiveShare * static_cast<double>(kFleetSize)) {
    return "the fleet left the unsaturated regime";
  }
  return nullptr;
}

struct PhaseLog {
  TimedPhase phase;
  FailureCount ops;
  bool regime_held = true;
  std::uint64_t requests = 0;
  std::uint64_t estimates = 0;  ///< oracle estimates the phase added
  std::uint64_t migrations = 0;
  std::uint64_t departures = 0;
  std::vector<double> hit_us;
  std::vector<double> miss_us;
};

void run_phase(State& s, double seconds, Tracer& tracer, PhaseLog* log) {
  const Tracer::NameId run_name = tracer.name("placement.controller.run");
  const std::size_t estimates_before = s.oracle->estimates_computed();
  log->phase.start();
  while (!log->phase.done(seconds)) {
    const std::size_t memo = s.oracle->estimates_computed();
    const auto t0 = Clock::now();
    placement::ControllerResult r;
    {
      auto span = tracer.span(run_name, log->requests);
      r = s.controller->run(*s.stream, 1);
    }
    const double us = ns_between(t0, Clock::now()) / 1000.0;
    log->phase.add_latency_us(us);
    log->phase.add_work(1.0);
    ++log->requests;
    s.accepted += r.accepted;
    s.departed += r.departures;
    s.fleet_w = r.fleet_w;
    log->migrations += r.migrations;
    log->departures += r.departures;
    log->ops.record(r.accepted == 1 && r.rejected == 0);
    if (tracer.enabled()) {
      (s.oracle->estimates_computed() > memo ? log->miss_us : log->hit_us)
          .push_back(us);
    }
    if (log->requests % kCheckEvery == 0) {
      const char* failure = nullptr;
      log->phase.exclude(timed_s([&] { failure = fleet_check(s); }));
      if (failure != nullptr) {
        log->ops.fail();
        log->regime_held = false;
        std::cout << "fleet-online: " << failure << '\n';
      }
    }
  }
  log->phase.stop();
  log->estimates += s.oracle->estimates_computed() - estimates_before;
}

/// What the traced run measures on the state each probed request sees:
/// candidate enumeration and each policy's decision. The fleet state is
/// the one before the request's run call (its departures not yet
/// retired). Probing may add oracle estimates, so it runs after the
/// traced phase, never inside it.
struct ProbeLog {
  std::vector<double> enumerate_us;
  std::vector<double> decide_us[std::size(kPolicies)];
  double groups = 0.0;
  double candidates = 0.0;
  double probed = 0.0;
};

void run_probes(State& s, Tracer& tracer, ProbeLog* log, FailureCount* ops) {
  const Tracer::NameId enumerate = tracer.name("placement.feasible_candidates");
  std::vector<Tracer::NameId> decide;
  std::vector<std::unique_ptr<placement::PlacementPolicy>> policies;
  for (const placement::PolicyKind kind : kPolicies) {
    decide.push_back(
        tracer.name(std::string("placement.decide.") + to_string(kind)));
    policies.push_back(placement::make_policy(kind));
  }
  for (std::uint64_t i = 0; i < kProbeRequests; ++i) {
    placement::RequestStream peek = *s.stream;
    const placement::VnRequest request = peek.next();
    placement::PlacedVn vn;
    vn.request_id = request.id;
    vn.bucket = s.oracle->bucket_for(request.prefix_count);
    vn.mu_q = request.mu_q;
    vn.sla = request.sla;
    vn.departure_tick = request.departure_tick;
    const placement::Fleet& fleet = s.controller->fleet();

    auto span = tracer.span(enumerate, request.id);
    const auto candidates = placement::feasible_candidates(fleet, *s.oracle, vn);
    log->enumerate_us.push_back(span.end() / 1000.0);
    log->groups += static_cast<double>(fleet.groups().size());
    log->candidates += static_cast<double>(candidates.size());
    log->probed += static_cast<double>(fleet.groups().size() +
                                       (fleet.idle_devices().empty() ? 0 : 3));
    for (std::size_t p = 0; p < policies.size(); ++p) {
      auto decide_span = tracer.span(decide[p], request.id);
      (void)policies[p]->decide(fleet, *s.oracle, vn);
      log->decide_us[p].push_back(decide_span.end() / 1000.0);
    }
    const placement::ControllerResult r = s.controller->run(*s.stream, 1);
    s.accepted += r.accepted;
    s.departed += r.departures;
    s.fleet_w = r.fleet_w;
    ops->record(r.accepted == 1 && r.rejected == 0);
  }
}

}  // namespace

RunResult run_fleet_online(const Options& options) {
  std::unique_ptr<State> state;
  std::vector<double> warmup_s;
  const std::vector<double> setup_s =
      repeat_set_up(kSetupRepeats, &state, [&] {
        auto s = set_up(options.seed);
        warmup_s.push_back(s->warmup_s);
        return s;
      });

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

  FailureCount ops = untraced.ops;
  ops.add(traced.ops);
  ProbeLog probes;
  if (options.trace) run_probes(*state, tracer, &probes, &ops);
  if (!ops.record(state->warmup_ok && fleet_check(*state) == nullptr)) {
    std::cout << "fleet-online: warm-up refused requests or the final fleet "
                 "check failed\n";
  }
  result.attempted = ops.attempted;
  result.failed = ops.failed;
  result.correct = untraced.regime_held && traced.regime_held;

  std::cout << "fleet-online: " << e2e.samples << " requests timed ("
            << e2e.quiet_samples << " in the quiet part), "
            << state->controller->fleet().active_devices() << " of "
            << kFleetSize << " devices active, "
            << state->oracle->estimates_computed() << " shapes estimated\n";
  if (!options.trace) {
    add_end_to_end(setup_s, e2e, &result);
    return result;
  }

  const double requests = static_cast<double>(traced.requests);
  const vr::core::WorkloadCache::Stats& cache = state->setup_cache;
  result.add("placement.request_hit_us",
             traced.hit_us.empty() ? 0.0 : median(traced.hit_us), "us");
  result.add("placement.request_miss_us",
             traced.miss_us.empty() ? 0.0 : median(traced.miss_us), "us");
  result.add("placement.oracle.misses_per_kreq",
             1000.0 * static_cast<double>(traced.estimates) / requests,
             "count");
  result.add("placement.enumerate_us", median(probes.enumerate_us), "us");
  const double probed_requests = static_cast<double>(kProbeRequests);
  result.add("placement.shape_groups", probes.groups / probed_requests,
             "count");
  result.add("placement.candidates_per_request",
             probes.candidates / probed_requests, "count");
  result.add("placement.feasible_share", probes.candidates / probes.probed,
             "ratio");
  for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
    result.add(std::string("placement.decide_us.") + to_string(kPolicies[p]),
               median(probes.decide_us[p]), "us");
  }
  result.add("placement.migrations_per_kreq",
             1000.0 * static_cast<double>(traced.migrations) / requests,
             "count");
  result.add("placement.departures_per_request",
             static_cast<double>(traced.departures) / requests, "count");
  result.add("core.workload_cache.hit_share",
             static_cast<double>(cache.hits) /
                 static_cast<double>(cache.hits + cache.misses),
             "ratio");
  result.add("setup.warmup_s", median(warmup_s), "s");
  add_trace_overhead(e2e, summarize(traced.phase), &result);
  if (!options.trace_out.empty() &&
      !tracer.write_chrome_json(options.trace_out)) {
    std::cerr << "fleet-online: could not write " << options.trace_out
              << '\n';
  }
  return result;
}

}  // namespace vrbench
