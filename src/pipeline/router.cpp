#include "pipeline/router.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace vr::pipeline {

namespace {

// One trace-driven simulation's activity, folded into the process-wide
// registry so `--metrics` sees pipeline behaviour without threading a
// registry through every figure builder.
void publish_trace_metrics(const VirtualRouter& router,
                           const SimulationResult& sim) {
  obs::Registry& registry = obs::Registry::global();
  std::uint64_t packets_in = 0;
  std::uint64_t packets_out = 0;
  std::uint64_t offers_rejected = 0;
  obs::Histogram& occupancy = registry.histogram("pipeline.stage_occupancy");
  for (std::size_t e = 0; e < router.engine_count(); ++e) {
    const LookupEngine& engine = router.engine(e);
    packets_in += engine.packets_in();
    packets_out += engine.packets_out();
    offers_rejected += engine.offers_rejected();
    const power::ActivityCounters& activity = engine.activity();
    if (activity.cycles == 0) continue;
    for (std::size_t s = 0; s < engine.stage_count(); ++s) {
      std::uint64_t busy = 0;
      for (std::size_t v = 0; v < activity.vn_count(); ++v) {
        busy += activity.busy(v, s);
      }
      occupancy.observe(static_cast<double>(busy) /
                        static_cast<double>(activity.cycles));
    }
  }
  registry.counter("pipeline.packets_in").add(packets_in);
  registry.counter("pipeline.packets_out").add(packets_out);
  registry.counter("pipeline.offers_rejected").add(offers_rejected);
  for (const double mu : sim.engine_utilization) {
    registry.histogram("pipeline.engine_utilization").observe(mu);
  }
  registry.histogram("pipeline.max_queue_depth")
      .observe(static_cast<double>(sim.max_queue_depth));
}

}  // namespace

SeparateRouter::SeparateRouter(std::vector<TrieView> tries,
                               std::size_t stage_count) {
  VR_REQUIRE(!tries.empty(), "separate router needs at least one VN");
  // tick() restores each result's VNID from its engine index.
  VR_REQUIRE(tries.size() <= 0xffffu, "VN count exceeds the VNID width");
  engines_.reserve(tries.size());
  for (const TrieView& view : tries) {
    VR_REQUIRE(view.vn_count() == 1,
               "separate engines take single-VN tries");
    engines_.emplace_back(view, stage_count);
  }
}

bool SeparateRouter::offer(const net::Packet& packet) {
  VR_REQUIRE(packet.vnid < engines_.size(),
             "packet VNID exceeds the engine count");
  // The distributor (Assumption 3) steers by VNID; the per-VN packet keeps
  // vnid 0 inside its dedicated engine's single-VN trie.
  net::Packet local = packet;
  const net::VnId vn = packet.vnid;
  local.vnid = 0;
  if (!engines_[vn].offer(local)) return false;
  return true;
}

void SeparateRouter::tick(std::vector<LookupResult>* out) {
  VR_REQUIRE(out != nullptr, "tick needs an output sink");
  for (std::size_t e = 0; e < engines_.size(); ++e) {
    const std::size_t before = out->size();
    engines_[e].tick(out);
    // Restore the owning VN on results produced by this engine.
    for (std::size_t i = before; i < out->size(); ++i) {
      // narrow-ok: e < engine count <= 0xffff, required by the constructor
      (*out)[i].packet.vnid = static_cast<net::VnId>(e);
    }
  }
}

power::ActivityCounters SeparateRouter::activity() const {
  const std::size_t stages = engines_.front().stage_count();
  power::ActivityCounters ledger(engines_.size(), stages);
  // The engines tick in lockstep, so any one's clock is the router's.
  ledger.cycles = engines_.front().now();
  // Engine e serves global VN e under local VNID 0 (see offer()), so its
  // single ledger row becomes row e.
  for (std::size_t e = 0; e < engines_.size(); ++e) {
    const power::ActivityCounters& local = engines_[e].activity();
    for (std::size_t s = 0; s < stages; ++s) {
      ledger.busy(e, s) = local.busy(0, s);
      ledger.reads(e, s) = local.reads(0, s);
    }
  }
  return ledger;
}

bool SeparateRouter::drained() const {
  return std::all_of(engines_.begin(), engines_.end(),
                     [](const LookupEngine& e) { return e.drained(); });
}

MergedRouter::MergedRouter(const virt::MergedTrie& merged,
                           std::size_t stage_count)
    : engine_(TrieView(merged), stage_count), vn_count_(merged.vn_count()) {}

bool MergedRouter::offer(const net::Packet& packet) {
  return engine_.offer(packet);
}

void MergedRouter::tick(std::vector<LookupResult>* out) {
  engine_.tick(out);
}

bool MergedRouter::drained() const { return engine_.drained(); }

SimulationResult run_trace(VirtualRouter& router,
                           std::span<const net::TimedPacket> trace) {
  SimulationResult sim;
  std::deque<net::Packet> pending;
  std::size_t next = 0;
  std::uint64_t cycle = 0;
  while (next < trace.size() || !pending.empty() || !router.drained()) {
    while (next < trace.size() && trace[next].cycle <= cycle) {
      pending.push_back(trace[next].packet);
      ++next;
    }
    sim.max_queue_depth = std::max(sim.max_queue_depth, pending.size());
    // Try to inject as many queued packets as the engines accept. A
    // separate router can accept up to one packet per engine per cycle;
    // the merged router one in total. Head-of-line packets that are
    // refused stay queued.
    for (std::size_t burst = 0; burst < pending.size();) {
      if (router.offer(pending[burst])) {
        pending.erase(pending.begin() +
                      static_cast<std::ptrdiff_t>(burst));
      } else {
        ++burst;
      }
    }
    router.tick(&sim.results);
    ++cycle;
  }
  sim.cycles = cycle;
  sim.engine_utilization.reserve(router.engine_count());
  for (std::size_t e = 0; e < router.engine_count(); ++e) {
    const power::ActivityCounters& activity = router.engine(e).activity();
    double mu = 0.0;
    for (std::size_t v = 0; v < activity.vn_count(); ++v) {
      mu += activity.utilization(v);
    }
    sim.engine_utilization.push_back(mu);
  }
  publish_trace_metrics(router, sim);
  return sim;
}

}  // namespace vr::pipeline
