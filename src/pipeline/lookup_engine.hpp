// Cycle-level model of one linear pipelined lookup engine (paper Sec. V-D):
// trie level i is handled by pipeline stage i with its own independently
// accessible memory; a packet enters at stage 0 and exits after the last
// stage with its next-hop information. Stages that hold no packet (or whose
// packet's traversal has already terminated) are clock-gated and perform no
// memory access — the mechanism behind the paper's µ-weighted dynamic power
// (Sec. IV).
//
// The engine accepts at most one packet per cycle (the paper's architecture
// issues one lookup per cycle), has a fixed latency of `stage_count`
// cycles, and is restricted to one trie level per stage (the configuration
// the paper implements).
//
// Like the gated hardware, the simulation pays only for occupied stages:
// the engine keeps the lookups in flight in a ring, oldest first, and a
// lookup's stage is the number of ticks since the one in which it was in
// stage 0, so a tick visits each in-flight lookup once and moves none of
// them. Each lookup does its stage's read and is counted in the tick in
// which it holds that stage, so the per-cycle accounting is that of a pipe
// shifting every packet one stage per tick.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/traffic.hpp"
#include "pipeline/trie_view.hpp"
#include "power/activity.hpp"
#include "trie/stage_mapping.hpp"

namespace vr::pipeline {

/// A completed lookup.
struct LookupResult {
  std::uint64_t exit_cycle = 0;
  net::Packet packet;
  std::optional<net::NextHop> next_hop;
};

class LookupEngine {
 public:
  /// Width of the lookup address in bits (IPv4). Because stage s inspects
  /// the address bits of trie level s, a trie may have at most
  /// TrieView::max_levels() levels (kAddressBits + 1 at stride 1,
  /// kAddressBits / k at stride k); the constructor rejects mismatched
  /// depths up front.
  static constexpr std::size_t kAddressBits = 32;

  /// Builds an engine over a trie view with `stage_count` stages; the trie
  /// must not be deeper than the pipeline (one level per stage) nor deeper
  /// than the lookup address is wide.
  LookupEngine(TrieView trie, std::size_t stage_count);

  /// Offers a packet this cycle. Returns false if the input slot is
  /// already taken (caller retries next cycle). At most one accept per
  /// cycle.
  bool offer(const net::Packet& packet);

  /// Advances one clock cycle; appends any completed lookup to `out`.
  void tick(std::vector<LookupResult>* out);

  /// True when no packet is in flight and no input is pending.
  [[nodiscard]] bool drained() const noexcept;

  /// The engine's activity ledger: cycles simulated plus per-(VN, stage)
  /// busy and read cycles under the trie's own VNIDs. Only the cycle and
  /// stage fields are filled; the per-VN event vectors stay zero.
  [[nodiscard]] const power::ActivityCounters& activity() const noexcept {
    return activity_;
  }
  [[nodiscard]] std::uint64_t packets_in() const noexcept {
    return packets_in_;
  }
  [[nodiscard]] std::uint64_t packets_out() const noexcept {
    return packets_out_;
  }
  /// offer() calls refused because the input slot was occupied — the
  /// engine's backpressure signal (the caller must retry next cycle).
  [[nodiscard]] std::uint64_t offers_rejected() const noexcept {
    return offers_rejected_;
  }
  [[nodiscard]] std::size_t stage_count() const noexcept {
    return ring_.size();
  }
  [[nodiscard]] std::uint64_t now() const noexcept { return activity_.cycles; }

 private:
  /// One lookup in flight: in stage `now() - first_tick` during a tick.
  struct InFlight {
    std::uint64_t first_tick = 0;
    net::Packet packet;
    /// Node its stage must visit; kNullNode once the traversal has
    /// terminated (the lookup then just carries its result to the end).
    trie::NodeIndex node = trie::kNullNode;
    net::NextHop best = net::kNoRoute;
  };

  TrieView trie_;
  /// The lookups in flight, oldest first from `head_`. One enters per tick
  /// at most, so the pipe never holds more than one per stage.
  std::vector<InFlight> ring_;
  std::size_t head_ = 0;
  std::size_t in_flight_ = 0;
  std::optional<net::Packet> input_;
  power::ActivityCounters activity_;
  std::uint64_t packets_in_ = 0;
  std::uint64_t packets_out_ = 0;
  std::uint64_t offers_rejected_ = 0;
};

}  // namespace vr::pipeline
