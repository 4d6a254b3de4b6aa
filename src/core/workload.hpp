// Workload realization: turns a Scenario into the concrete memory images
// and (optionally) the real tries/tables the estimator, the PnR experiment
// and the pipeline simulator consume.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/scenario.hpp"
#include "power/analytical_model.hpp"
#include "trie/memory_layout.hpp"
#include "trie/trie_stats.hpp"
#include "virt/merged_trie.hpp"
#include "virt/table_set_gen.hpp"

namespace vr::core {

/// The realized workload for one scenario.
struct Workload {
  /// Structural statistics of the representative (leaf-pushed if
  /// configured) per-VN trie.
  trie::TrieStats representative_stats;
  /// Pointer/NHI stage memory of the representative per-VN trie (the
  /// Eqs. 1/3 resource input).
  trie::StageMemory per_vn_memory;
  /// Stage-memory image of one VN's pipeline (NV/VS engines).
  power::EngineSpec per_vn_engine;
  /// Per-VN engines under the Assumption 2 relaxation
  /// (Scenario::table_size_spread > 0); empty when all VNs share
  /// per_vn_engine.
  std::vector<power::EngineSpec> heterogeneous_engines;
  /// Pointer/NHI stage memory of the merged trie (merged scheme only;
  /// empty otherwise): structural or overlap-predicted, per the scenario's
  /// merged source. The Eq. 5 resource input.
  trie::StageMemory merged_memory;
  /// Stage-memory image of the merged pipeline (merged scheme only; empty
  /// stage_bits otherwise).
  power::EngineSpec merged_engine;
  /// α actually used: the scenario's α in analytic mode, the measured
  /// effective α in structural mode.
  double alpha_used = 1.0;
  std::size_t prefix_count = 0;

  /// Structural artifacts, populated only in MergedSource::kStructural (or
  /// when `keep_tables` is requested): real tables/tries for the pipeline
  /// simulator and the examples.
  std::vector<net::RoutingTable> tables;
  std::vector<trie::UnibitTrie> tries;
  std::optional<virt::MergedTrie> merged_trie;
};

/// Realizes a scenario's workload. `keep_tables` forces table/trie
/// construction even in analytic mode (for simulation-backed examples and
/// tests); the representative table is always built (its statistics feed
/// the analytic mode too).
[[nodiscard]] Workload realize_workload(const Scenario& scenario,
                                        bool keep_tables = false);

}  // namespace vr::core
