#include "virt/table_set_gen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/error.hpp"

namespace vr::virt {

/// Bisection iteration cap of generate_with_alpha.
constexpr unsigned kMaxBisectionSteps = 12;

CorrelatedTableSetGenerator::CorrelatedTableSetGenerator(TableSetConfig config)
    : config_(std::move(config)), base_gen_(config_.profile) {
  VR_REQUIRE(config_.alpha_tolerance > 0.0, "alpha_tolerance must be > 0");
}

double CorrelatedTableSetGenerator::measure_alpha(
    const std::vector<net::RoutingTable>& tables) const {
  VR_REQUIRE(!tables.empty(), "empty table set");
  std::vector<trie::UnibitTrie> tries;
  tries.reserve(tables.size());
  for (const auto& table : tables) {
    trie::UnibitTrie t(table);
    tries.push_back(config_.leaf_push ? t.leaf_pushed() : std::move(t));
  }
  std::vector<const trie::UnibitTrie*> ptrs;
  ptrs.reserve(tries.size());
  for (const auto& t : tries) ptrs.push_back(&t);
  const MergedTrie merged(ptrs);
  return merged.stats().alpha_effective(tables.size());
}

TableSet CorrelatedTableSetGenerator::generate(std::size_t vn_count,
                                               double mutation_fraction,
                                               std::uint64_t seed) const {
  VR_REQUIRE(vn_count >= 1, "vn_count must be >= 1");
  VR_REQUIRE(mutation_fraction >= 0.0 && mutation_fraction <= 1.0,
             "mutation_fraction must be in [0,1]");
  const net::RoutingTable base = base_gen_.generate(seed);

  // Each VN re-draws its mutated prefixes from an independent generator
  // stream so that mutated content is uncorrelated across VNs.
  TableSet set;
  set.mutation_fraction = mutation_fraction;
  set.tables.reserve(vn_count);
  Rng rng(seed ^ 0x5eedf00dULL);
  for (std::size_t v = 0; v < vn_count; ++v) {
    Rng vn_rng = rng.fork();
    std::vector<net::Route> routes;
    routes.reserve(base.size());
    std::size_t mutated = 0;
    for (const net::Route& route : base.routes()) {
      if (vn_rng.next_bool(mutation_fraction)) {
        ++mutated;
      } else {
        routes.push_back(route);
      }
    }
    net::RoutingTable table{std::move(routes)};
    if (mutated > 0) {
      // Redraw replacements from a fresh synthetic table with a per-VN
      // seed; this keeps the table size constant while the replacements'
      // structure is unrelated to the base.
      const net::RoutingTable replacement_pool =
          base_gen_.generate(vn_rng.next_u64());
      const auto pool = replacement_pool.routes();
      std::size_t added = 0;
      std::size_t cursor = vn_rng.next_below(pool.size());
      std::size_t scanned = 0;
      while (added < mutated && scanned < pool.size()) {
        const net::Route& candidate = pool[cursor];
        cursor = (cursor + 1) % pool.size();
        ++scanned;
        if (!table.contains(candidate.prefix)) {
          table.add(candidate);
          ++added;
        }
      }
      // If the pool could not supply enough unique prefixes (extremely
      // unlikely), the table is slightly smaller; Assumption 2 tolerance.
    }
    set.tables.push_back(std::move(table));
  }
  set.measured_alpha = measure_alpha(set.tables);
  return set;
}

TableSet CorrelatedTableSetGenerator::generate_with_alpha(
    std::size_t vn_count, double target_alpha, std::uint64_t seed) const {
  VR_REQUIRE(target_alpha >= 0.0 && target_alpha <= 1.0,
             "target_alpha must be in [0,1]");
  if (vn_count == 1) return generate(vn_count, 0.0, seed);

  // α is monotonically decreasing in the mutation fraction: bisect.
  double lo = 0.0;  // mutation 0 -> α = 1 (identical tables)
  double hi = 1.0;  // mutation 1 -> α near its floor (independent tables)
  std::optional<TableSet> best;
  double best_gap = std::numeric_limits<double>::infinity();
  for (unsigned step = 0; step < kMaxBisectionSteps; ++step) {
    const double mid = (lo + hi) / 2.0;
    TableSet candidate = generate(vn_count, mid, seed);
    const double measured = candidate.measured_alpha;
    const double gap = std::fabs(measured - target_alpha);
    if (gap < best_gap) {
      best = std::move(candidate);
      best_gap = gap;
    }
    if (best_gap <= config_.alpha_tolerance) break;
    if (measured > target_alpha) {
      lo = mid;  // too much overlap -> mutate more
    } else {
      hi = mid;
    }
  }
  return std::move(*best);
}

}  // namespace vr::virt
