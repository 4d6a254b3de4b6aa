// Correlated table-set generation: produces K per-VN routing tables whose
// structural merge realizes a requested merging efficiency α.
//
// The paper's merged experiments are parameterized purely by α (20 % and
// 80 %); real per-VN tables with those overlaps are not available, so we
// derive K tables from a common base table by mutating a fraction of each
// table's prefixes. More mutation => less node sharing => lower α. The
// mutation fraction realizing a target α is found by bisection on the
// measured effective α of the actual structural merge.
#pragma once

#include <cstdint>
#include <vector>

#include "netbase/table_gen.hpp"
#include "virt/merged_trie.hpp"

namespace vr::virt {

/// A generated set of per-VN tables plus the realized overlap.
struct TableSet {
  std::vector<net::RoutingTable> tables;
  /// Effective α measured on the leaf-pushed structural merge (the form the
  /// pipeline actually deploys).
  double measured_alpha = 1.0;
  /// Mutation fraction that produced the set.
  double mutation_fraction = 0.0;
};

/// Generator configuration.
struct TableSetConfig {
  net::TableProfile profile = net::TableProfile::edge_default();
  /// Tolerance on |measured α − target α| for generate_with_alpha.
  double alpha_tolerance = 0.03;
  /// Whether α is measured on leaf-pushed tries (the deployed form) or the
  /// raw tries.
  bool leaf_push = true;
};

class CorrelatedTableSetGenerator {
 public:
  explicit CorrelatedTableSetGenerator(TableSetConfig config);

  /// K tables, each sharing (1 − mutation_fraction) of its prefixes with a
  /// common base table; mutated prefixes are redrawn per VN. Deterministic
  /// in (config, vn_count, mutation_fraction, seed).
  [[nodiscard]] TableSet generate(std::size_t vn_count,
                                  double mutation_fraction,
                                  std::uint64_t seed) const;

  /// Bisects the mutation fraction until the measured effective α of the
  /// structural merge is within alpha_tolerance of `target_alpha` (or the
  /// step cap is reached; the best candidate is returned either way).
  [[nodiscard]] TableSet generate_with_alpha(std::size_t vn_count,
                                             double target_alpha,
                                             std::uint64_t seed) const;

  /// Measures the effective α of an arbitrary table set (utility shared
  /// with tests and benches).
  [[nodiscard]] double measure_alpha(
      const std::vector<net::RoutingTable>& tables) const;

  [[nodiscard]] const TableSetConfig& config() const noexcept {
    return config_;
  }

 private:
  TableSetConfig config_;
  net::SyntheticTableGenerator base_gen_;
};

}  // namespace vr::virt
