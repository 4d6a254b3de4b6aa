// Whole-router functional models: the three deployments of the paper
// assembled from lookup engines, plus the trace-driven simulation driver.
//
//   * SeparateRouter — K engines, one per VN, fed through a VNID
//     distributor (models both NV, where the engines live on K devices,
//     and VS, where they share one device; power attribution differs, the
//     functional behaviour is identical — Assumption 3 makes the
//     distributor free).
//   * MergedRouter — one time-shared engine over the merged trie; the
//     VNID selects the NHI vector entry at the leaves (Sec. IV-C).
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "pipeline/lookup_engine.hpp"

namespace vr::pipeline {

/// Abstract router: accepts tagged packets, runs cycle by cycle.
class VirtualRouter {
 public:
  virtual ~VirtualRouter() = default;
  VirtualRouter() = default;
  VirtualRouter(const VirtualRouter&) = delete;
  VirtualRouter& operator=(const VirtualRouter&) = delete;

  /// Offers a packet for injection this cycle; false = back-pressure.
  virtual bool offer(const net::Packet& packet) = 0;
  /// Advances all engines one cycle.
  virtual void tick(std::vector<LookupResult>* out) = 0;
  [[nodiscard]] virtual bool drained() const = 0;
  [[nodiscard]] virtual std::size_t engine_count() const = 0;
  [[nodiscard]] virtual const LookupEngine& engine(std::size_t i) const = 0;
  [[nodiscard]] virtual std::size_t vn_count() const = 0;
  /// The lookup stages' activity ledger under global VNIDs: cycles plus
  /// per-(VN, stage) busy and read cycles, whichever engine served the VN.
  [[nodiscard]] virtual power::ActivityCounters activity() const = 0;
};

/// K space-shared engines (NV and VS data planes).
class SeparateRouter final : public VirtualRouter {
 public:
  /// One (leaf-pushed or raw) trie per VN; all engines share a depth.
  SeparateRouter(std::vector<TrieView> tries, std::size_t stage_count);

  bool offer(const net::Packet& packet) override;
  void tick(std::vector<LookupResult>* out) override;
  [[nodiscard]] bool drained() const override;
  [[nodiscard]] std::size_t engine_count() const override {
    return engines_.size();
  }
  [[nodiscard]] const LookupEngine& engine(std::size_t i) const override {
    return engines_[i];
  }
  [[nodiscard]] std::size_t vn_count() const override {
    return engines_.size();
  }
  [[nodiscard]] power::ActivityCounters activity() const override;

 private:
  std::vector<LookupEngine> engines_;
};

/// One time-shared engine over the merged trie (VM data plane).
class MergedRouter final : public VirtualRouter {
 public:
  MergedRouter(const virt::MergedTrie& merged, std::size_t stage_count);

  bool offer(const net::Packet& packet) override;
  void tick(std::vector<LookupResult>* out) override;
  [[nodiscard]] bool drained() const override;
  [[nodiscard]] std::size_t engine_count() const override { return 1; }
  [[nodiscard]] const LookupEngine& engine(std::size_t) const override {
    return engine_;
  }
  [[nodiscard]] std::size_t vn_count() const override {
    return vn_count_;
  }
  [[nodiscard]] power::ActivityCounters activity() const override {
    return engine_.activity();
  }

 private:
  LookupEngine engine_;
  std::size_t vn_count_;
};

/// Outcome of driving a trace through a router.
struct SimulationResult {
  std::vector<LookupResult> results;
  std::uint64_t cycles = 0;
  std::size_t max_queue_depth = 0;  ///< worst back-pressure queue length
  /// Measured utilization µ per engine: the sum of its VNs' µ
  /// (power::ActivityCounters::utilization).
  std::vector<double> engine_utilization;
};

/// Feeds `trace` (sorted by cycle) into the router, ticking until every
/// packet has exited. Packets that cannot be injected at their arrival
/// cycle wait in a FIFO (back-pressure), which the result records.
[[nodiscard]] SimulationResult run_trace(
    VirtualRouter& router, std::span<const net::TimedPacket> trace);

}  // namespace vr::pipeline
