#include "ipv6/ipv6_trie.hpp"

#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace vr::ipv6 {

namespace {

/// ORs `value` into the 128-bit address at bit offset `shift` from the
/// LSB end (i.e. the value's LSB lands at bit 127-shift... in hi/lo
/// words: plain 128-bit left shift by `shift`).
Ipv6 or_shifted(const Ipv6& base, std::uint64_t value, unsigned shift) {
  std::uint64_t hi = base.hi();
  std::uint64_t lo = base.lo();
  if (shift >= 64) {
    hi |= value << (shift - 64);
  } else {
    lo |= value << shift;
    if (shift != 0) hi |= value >> (64 - shift);
  }
  return Ipv6(hi, lo);
}

}  // namespace

std::optional<net::NextHop> lookup(const trie::UnibitTrie& trie,
                                   const Ipv6& addr) {
  std::optional<net::NextHop> best;
  trie::NodeIndex current = trie.root();
  for (unsigned depth = 0;; ++depth) {
    const trie::TrieNode& node = trie.node(current);
    if (node.has_route()) best = node.next_hop;
    if (depth == 128) break;
    current = addr.bit(depth) ? node.right : node.left;
    if (current == trie::kNullNode) break;
  }
  return best;
}

SyntheticTableGenerator6::SyntheticTableGenerator6(TableProfile6 profile)
    : profile_(std::move(profile)) {
  VR_REQUIRE(profile_.prefix_count > 0, "prefix_count must be positive");
  VR_REQUIRE(profile_.provider_blocks > 0,
             "provider_blocks must be positive");
  VR_REQUIRE(!profile_.length_weights.empty(), "length_weights empty");
  VR_REQUIRE(profile_.min_length >= profile_.provider_block_length,
             "prefixes must be at least as long as their provider block");
  VR_REQUIRE(profile_.min_length +
                     4 * (profile_.length_weights.size() - 1) <=
                 128,
             "length distribution extends past /128");
}

RoutingTable6 SyntheticTableGenerator6::generate(std::uint64_t seed) const {
  Rng rng(seed);
  // Distinct provider /provider_block_length blocks under 2000::/3
  // (global unicast).
  std::set<std::uint64_t> block_tops;
  while (block_tops.size() < profile_.provider_blocks) {
    const std::uint64_t raw =
        rng.next_below(std::uint64_t{1}
                       << (profile_.provider_block_length - 3));
    block_tops.insert((std::uint64_t{1} << 61) |
                      (raw << (64 - profile_.provider_block_length)));
  }
  const std::vector<std::uint64_t> blocks(block_tops.begin(),
                                          block_tops.end());

  std::set<Prefix6> seen;
  std::vector<Route6> routes;
  routes.reserve(profile_.prefix_count);
  std::uint64_t attempts = 0;
  const std::uint64_t max_attempts =
      profile_.prefix_count * 1000ULL + 100000;
  while (routes.size() < profile_.prefix_count) {
    VR_REQUIRE(attempts++ < max_attempts,
               "IPv6 table generation failed to converge");
    if (!routes.empty() && rng.next_bool(profile_.nested_fraction)) {
      const Route6& parent = routes[rng.next_below(routes.size())];
      if (parent.prefix.length() > profile_.min_length) {
        const auto new_len = static_cast<unsigned>(rng.next_in(
            profile_.min_length, parent.prefix.length() - 1));
        const Prefix6 truncated(parent.prefix.address(), new_len);
        if (seen.insert(truncated).second) {
          routes.push_back(Route6{
              truncated, static_cast<net::NextHop>(
                             rng.next_below(profile_.next_hop_count))});
        }
      }
      continue;
    }
    const std::uint64_t block = blocks[rng.next_below(blocks.size())];
    const auto len_index = rng.next_weighted(
        profile_.length_weights.data(), profile_.length_weights.size());
    const unsigned length =
        profile_.min_length + 4 * static_cast<unsigned>(len_index);
    const unsigned suffix_bits = length - profile_.provider_block_length;
    const std::uint64_t space = suffix_bits >= 63
                                    ? profile_.density_span
                                    : (std::uint64_t{1} << suffix_bits);
    const std::uint64_t suffix = rng.next_below(
        std::min<std::uint64_t>(profile_.density_span, space));
    const Ipv6 address =
        or_shifted(Ipv6(block, 0), suffix, 128 - length);
    const Prefix6 prefix(address, length);
    if (seen.insert(prefix).second) {
      routes.push_back(Route6{
          prefix, static_cast<net::NextHop>(
                      rng.next_below(profile_.next_hop_count))});
    }
  }
  return RoutingTable6(std::move(routes));
}

}  // namespace vr::ipv6
