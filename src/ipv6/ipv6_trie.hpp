// IPv6 over the shared uni-bit trie, used by the IPv6 scaling study
// (`extension_ipv6`): trie::UnibitTrie builds from an ipv6::RoutingTable6
// as it does from an IPv4 table, so leaf pushing, trie::compute_stats and
// the per-stage power model apply unchanged (one trie level per pipeline
// stage). This header adds the 128-bit lookup walk and the synthetic
// IPv6 edge-table generator.
#pragma once

#include <optional>
#include <vector>

#include "ipv6/ipv6.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::ipv6 {

/// Longest-prefix match of a 128-bit address in a trie built from a
/// RoutingTable6: next hop of the most specific route covering `addr`, or
/// nullopt. The oracle the tests compare with RoutingTable6::lookup.
[[nodiscard]] std::optional<net::NextHop> lookup(const trie::UnibitTrie& trie,
                                                 const Ipv6& addr);

/// Synthetic IPv6 edge-table generation: prefixes under a handful of
/// provider /32 allocations, lengths concentrated at /48 (delegations)
/// and /64 (subnets), with nesting.
struct TableProfile6 {
  std::size_t prefix_count = 3725;
  std::size_t provider_blocks = 6;
  unsigned provider_block_length = 32;
  unsigned min_length = 40;
  /// Weights for lengths min_length..min_length+len(weights)-1 step 4:
  /// /40 /44 /48 /52 /56 /60 /64
  std::vector<double> length_weights = {2.0, 3.0, 30.0, 4.0,
                                        6.0, 8.0, 47.0};
  std::uint64_t density_span = 8192;
  double nested_fraction = 0.25;
  net::NextHop next_hop_count = 16;
};

class SyntheticTableGenerator6 {
 public:
  explicit SyntheticTableGenerator6(TableProfile6 profile);
  [[nodiscard]] RoutingTable6 generate(std::uint64_t seed) const;

 private:
  TableProfile6 profile_;
};

}  // namespace vr::ipv6
