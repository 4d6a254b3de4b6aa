// Synthetic edge-network routing-table generation.
//
// The paper evaluates on real edge tables from bgp.potaroo.net; the largest
// had 3 725 prefixes whose uni-bit trie had 9 726 nodes (16 127 after leaf
// pushing). We cannot ship that data, so this generator produces
// deterministic synthetic tables with the two structural properties the
// power models actually consume:
//   1. a realistic prefix-length distribution (mass concentrated at /24,
//      with the /16-/23 shoulder seen in BGP snapshots), and
//   2. provider-block clustering, so prefixes share long leading paths and
//      the trie nodes-per-prefix ratio lands near the paper's ~2.6 (and the
//      leaf-pushing expansion near ~1.66).
// The `tablev_trie_stats` bench reports the achieved ratios against the
// paper's numbers.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "netbase/routing_table.hpp"

namespace vr::net {

/// Tunable profile for the generator. The defaults model an edge-level
/// table per the paper's Sec. V-E.
struct TableProfile {
  /// Number of unique prefixes to produce.
  std::size_t prefix_count = 3725;

  /// Number of distinct provider blocks prefixes are drawn from. Fewer
  /// blocks => more path sharing => fewer trie nodes per prefix.
  std::size_t provider_blocks = 6;

  /// Probability mass per prefix length. Index 0 corresponds to length
  /// `min_length`. Does not need to be normalized.
  unsigned min_length = 16;
  std::vector<double> length_weights = {
      // /16  /17  /18  /19  /20   /21   /22   /23   /24    (BGP-like shape)
      4.0, 1.5, 2.5, 3.5, 4.5, 5.0, 8.0, 8.5, 55.0};

  /// Within a provider block, suffixes are drawn from the first
  /// `density_span` values of the suffix space (clipped to the space size).
  /// Smaller spans make denser subtrees.
  std::uint64_t density_span = 8192;

  /// Number of distinct next hops (ports) to assign round-robin-randomly.
  NextHop next_hop_count = 16;

  /// Returns the paper's default edge profile (3 725 prefixes).
  static TableProfile edge_default();

  /// Returns the worst-case profile of Assumption 2 (10 000 prefixes).
  static TableProfile worst_case();
};

/// Generates one synthetic routing table. Deterministic in (profile, seed).
class SyntheticTableGenerator {
 public:
  explicit SyntheticTableGenerator(TableProfile profile);

  /// Produces a table with exactly profile.prefix_count unique prefixes.
  /// Throws vr::InvalidArgumentError if the profile is infeasible (e.g. the
  /// requested count exceeds the representable unique prefixes).
  [[nodiscard]] RoutingTable generate(std::uint64_t seed) const;

  [[nodiscard]] const TableProfile& profile() const noexcept {
    return profile_;
  }

 private:
  /// Draws a single candidate route (may duplicate an earlier prefix; the
  /// caller deduplicates).
  [[nodiscard]] Route draw(Rng& rng,
                           const std::vector<std::uint32_t>& blocks) const;

  TableProfile profile_;
};

}  // namespace vr::net
