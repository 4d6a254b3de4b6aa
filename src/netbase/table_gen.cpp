#include "netbase/table_gen.hpp"

#include <algorithm>
#include <set>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace vr::net {

namespace {

/// Length of each provider block (bits of shared leading path).
constexpr unsigned kProviderBlockLength = 12;
static_assert(kProviderBlockLength <= 24,
              "provider blocks longer than /24 leave no room for prefixes");

/// Fraction of prefixes produced by truncating an already-generated
/// prefix to a shorter length (BGP tables are heavily nested: the
/// paper's reference table has only ~1.7 k trie leaves for 3.7 k
/// prefixes, i.e. most prefixes cover more-specific ones). Nesting adds
/// prefixes without adding trie nodes.
constexpr double kNestedFraction = 0.32;

}  // namespace

TableProfile TableProfile::edge_default() { return TableProfile{}; }

TableProfile TableProfile::worst_case() {
  TableProfile profile;
  profile.prefix_count = 10000;
  profile.provider_blocks = 20;
  profile.density_span = 8192;
  return profile;
}

SyntheticTableGenerator::SyntheticTableGenerator(TableProfile profile)
    : profile_(std::move(profile)) {
  VR_REQUIRE(profile_.prefix_count > 0, "prefix_count must be positive");
  VR_REQUIRE(profile_.provider_blocks > 0, "provider_blocks must be positive");
  VR_REQUIRE(!profile_.length_weights.empty(), "length_weights empty");
  VR_REQUIRE(profile_.min_length >= kProviderBlockLength,
             "prefixes must be at least as long as their provider block");
  VR_REQUIRE(profile_.min_length + profile_.length_weights.size() - 1 <= 32,
             "length distribution extends past /32");
  VR_REQUIRE(profile_.next_hop_count > 0, "need at least one next hop");
  VR_REQUIRE(profile_.density_span > 0, "density_span must be positive");
}

Route SyntheticTableGenerator::draw(
    Rng& rng, const std::vector<std::uint32_t>& blocks) const {
  const std::size_t block_index = rng.next_below(blocks.size());
  const std::uint32_t block = blocks[block_index];
  const auto length_offset = static_cast<unsigned>(rng.next_weighted(
      profile_.length_weights.data(), profile_.length_weights.size()));
  const unsigned length = profile_.min_length + length_offset;

  const unsigned suffix_bits = length - kProviderBlockLength;
  const std::uint64_t space =
      suffix_bits >= 64 ? 0 : (std::uint64_t{1} << suffix_bits);
  const std::uint64_t span = std::min<std::uint64_t>(
      profile_.density_span, space == 0 ? profile_.density_span : space);
  const auto suffix = static_cast<std::uint32_t>(rng.next_below(span));

  const std::uint32_t address =
      block | (suffix << (32u - length)) ;
  const auto next_hop =
      static_cast<NextHop>(rng.next_below(profile_.next_hop_count));
  return Route{Prefix(Ipv4(address), length), next_hop};
}

RoutingTable SyntheticTableGenerator::generate(std::uint64_t seed) const {
  // Feasibility: the densest reachable suffix space must be able to hold the
  // requested number of unique prefixes across all blocks and lengths.
  std::uint64_t capacity = 0;
  for (std::size_t li = 0; li < profile_.length_weights.size(); ++li) {
    if (profile_.length_weights[li] <= 0.0) continue;
    const unsigned length = profile_.min_length + static_cast<unsigned>(li);
    const unsigned suffix_bits = length - kProviderBlockLength;
    const std::uint64_t space = suffix_bits >= 63
                                    ? profile_.density_span
                                    : (std::uint64_t{1} << suffix_bits);
    capacity += static_cast<std::uint64_t>(profile_.provider_blocks) *
                std::min<std::uint64_t>(profile_.density_span, space);
    if (capacity >= profile_.prefix_count * 2) break;  // plenty
  }
  if (capacity < profile_.prefix_count) {
    throw InvalidArgumentError(
        "table profile cannot produce the requested number of unique "
        "prefixes; widen density_span or add provider blocks");
  }

  Rng rng(seed);

  // Pick distinct provider blocks.
  std::set<std::uint32_t> block_set;
  while (block_set.size() < profile_.provider_blocks) {
    const std::uint64_t raw =
        rng.next_below(std::uint64_t{1} << kProviderBlockLength);
    block_set.insert(static_cast<std::uint32_t>(raw)
                     << (32u - kProviderBlockLength));
  }
  const std::vector<std::uint32_t> blocks(block_set.begin(), block_set.end());

  std::set<Prefix> seen;
  std::vector<Route> routes;
  routes.reserve(profile_.prefix_count);
  // Rejection loop with a generous bound: duplicates are common by design
  // (clustering), but the feasibility check above guarantees progress.
  std::uint64_t attempts = 0;
  const std::uint64_t max_attempts = profile_.prefix_count * 1000ULL + 100000;
  while (routes.size() < profile_.prefix_count) {
    VR_REQUIRE(attempts++ < max_attempts,
               "table generation failed to converge; profile too dense");
    // Nested draw: truncate a previously generated prefix (adds a covering
    // route without new trie nodes — the dominant structure of real edge
    // tables, see kNestedFraction).
    if (!routes.empty() && rng.next_bool(kNestedFraction)) {
      const Route& parent = routes[rng.next_below(routes.size())];
      if (parent.prefix.length() > profile_.min_length) {
        const unsigned new_len = static_cast<unsigned>(rng.next_in(
            profile_.min_length, parent.prefix.length() - 1));
        const Prefix truncated(parent.prefix.address(), new_len);
        if (seen.insert(truncated).second) {
          const auto next_hop =
              static_cast<NextHop>(rng.next_below(profile_.next_hop_count));
          routes.push_back(Route{truncated, next_hop});
        }
      }
      continue;
    }
    Route route = draw(rng, blocks);
    if (seen.insert(route.prefix).second) {
      routes.push_back(route);
    }
  }
  return RoutingTable(std::move(routes));
}

}  // namespace vr::net
