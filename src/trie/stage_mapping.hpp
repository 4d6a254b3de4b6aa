// Mapping of trie levels onto the stages of a linear lookup pipeline.
//
// The paper (Sec. V-D) maps each trie level onto one pipeline stage with an
// independently accessible per-stage memory, and fixes the pipeline depth at
// N = 28 stages (Sec. VI). A trie shallower than the pipeline leaves the
// tail stages empty (pass-through); a deeper trie is rejected.
#pragma once

#include <cstddef>
#include <vector>

#include "trie/trie_stats.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::trie {

/// Policy for fitting a trie of height H into N stages. One level per
/// stage is the only policy; the parameter stays for existing callers.
enum class MappingPolicy {
  /// Level i -> stage i. Requires level_count <= stage_count; trailing
  /// stages are empty.
  kOneLevelPerStage,
};

/// An immutable level->stage assignment: level l is handled by stage l.
class StageMapping {
 public:
  /// Builds a mapping for `level_count` levels onto `stage_count` stages.
  /// Throws vr::CapacityError when levels exceed stages.
  StageMapping(std::size_t level_count, std::size_t stage_count,
               MappingPolicy policy);

  [[nodiscard]] std::size_t stage_count() const noexcept {
    return stage_count_;
  }
  [[nodiscard]] std::size_t level_count() const noexcept {
    return level_count_;
  }

 private:
  std::size_t level_count_;
  std::size_t stage_count_;
};

/// Per-stage node counts for a trie under a mapping: the M_{i,j} inputs of
/// the power model.
struct StageOccupancy {
  /// Per stage: total / internal / leaf node counts.
  std::vector<std::size_t> nodes;
  std::vector<std::size_t> internal_nodes;
  std::vector<std::size_t> leaf_nodes;
};

[[nodiscard]] StageOccupancy occupancy(const TrieStats& stats,
                                       const StageMapping& mapping);

}  // namespace vr::trie
