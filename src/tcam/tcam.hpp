// Functional TCAM (Ternary Content Addressable Memory) IP-lookup engine —
// the comparison point of the paper's related work (Sec. II-B): TCAMs
// match every stored entry in parallel on each search, which makes them
// fast but power hungry; organizing them into index-selected banks ([20]'s
// load-balanced multi-chip scheme) activates only a fraction of the
// entries per search.
//
// This module provides the functional model (flat and bank-partitioned)
// used by the tcam_power model and the `baseline_tcam_vs_trie` bench.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/routing_table.hpp"

namespace vr::tcam {

/// One TCAM entry: 32 value bits with a prefix mask, in priority order.
struct TcamEntry {
  std::uint32_t value = 0;
  std::uint32_t mask = 0;  ///< 1-bits participate in the match
  net::NextHop next_hop = net::kNoRoute;
  unsigned prefix_length = 0;

  [[nodiscard]] bool matches(std::uint32_t key) const noexcept {
    return (key & mask) == value;
  }
};

/// Flat (single-bank) TCAM. Entries are stored longest-prefix-first so the
/// first match is the longest-prefix match, as in production TCAM usage.
class FlatTcam {
 public:
  explicit FlatTcam(const net::RoutingTable& table);

  /// Longest-prefix match. Every stored entry is activated by a search
  /// (the source of TCAM power hunger).
  [[nodiscard]] std::optional<net::NextHop> search(net::Ipv4 addr) const;

  [[nodiscard]] std::size_t entry_count() const noexcept {
    return entries_.size();
  }
  /// Entries activated by one search (== entry_count for a flat TCAM).
  [[nodiscard]] std::size_t entries_triggered_per_search() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] const std::vector<TcamEntry>& entries() const noexcept {
    return entries_;
  }

 private:
  std::vector<TcamEntry> entries_;
};

/// Index-partitioned TCAM: the top `index_bits` of the key select one of
/// 2^index_bits banks; only that bank's entries are activated. Prefixes
/// shorter than the index are replicated into every bank they cover
/// (controlled prefix expansion), trading entries for per-search power.
class PartitionedTcam {
 public:
  /// index_bits in [1, 12].
  PartitionedTcam(const net::RoutingTable& table, unsigned index_bits);

  [[nodiscard]] std::optional<net::NextHop> search(net::Ipv4 addr) const;

  [[nodiscard]] unsigned index_bits() const noexcept { return index_bits_; }
  [[nodiscard]] std::size_t bank_count() const noexcept {
    return banks_.size();
  }
  /// Total stored entries (includes replication overhead).
  [[nodiscard]] std::size_t entry_count() const noexcept;
  /// Entries the worst-case search activates (largest bank).
  [[nodiscard]] std::size_t entries_triggered_per_search() const noexcept;
  /// Mean bank size (average-case activation).
  [[nodiscard]] double mean_bank_size() const noexcept;
  [[nodiscard]] const std::vector<TcamEntry>& bank(std::size_t b) const {
    return banks_[b];
  }

 private:
  unsigned index_bits_;
  std::vector<std::vector<TcamEntry>> banks_;
};

/// Builds the priority-ordered entry list of a table (shared helper).
[[nodiscard]] std::vector<TcamEntry> entries_from_table(
    const net::RoutingTable& table);

}  // namespace vr::tcam
