// Analytical merging model (DESIGN.md Sec. 3).
//
// The paper abstracts table structure into the single merging-efficiency
// parameter α (Assumption 4: α = common nodes / total nodes). As printed,
// Eq. 5's memory term `α · Σ_k M_k` *grows* with α, contradicting the
// definition and Figs. 4/8; we implement the overlap-consistent closed form
//
//     T(K, n, α) = K·n / (1 + (K−1)·α)
//
// (α=1 → T=n fully shared; α=0 → T=K·n disjoint) and keep the literal
// printed rule available for the ablation bench.
#pragma once

#include <cstdint>
#include <vector>

#include "trie/memory_layout.hpp"
#include "trie/trie_stats.hpp"

namespace vr::virt {

/// Which merged-memory rule to apply.
enum class MergedMemoryRule {
  kOverlapConsistent,  ///< T = K·n/(1+(K−1)α); leaves widen to K-wide NHI
  kPaperLiteral,       ///< memory = α · Σ_k M_k, exactly as Eq. 5 prints
};

/// Merged node count for K equal tries of `nodes_per_trie` nodes at merging
/// efficiency `alpha` in [0,1].
[[nodiscard]] double merged_node_count(std::size_t vn_count,
                                       double nodes_per_trie, double alpha);

/// Predicts the per-stage memory of the merged trie analytically from the
/// statistics of ONE representative per-VN trie (Assumption 2: all tables
/// equal size): every level's internal/leaf counts are scaled by the merged
/// expansion factor K/(1+(K−1)α), and leaf words widen to K NHI entries.
/// Under kPaperLiteral, the per-stage memory is instead α·K times the
/// single-trie stage memory with single-width leaves.
[[nodiscard]] trie::StageMemory predict_merged_stage_memory(
    const trie::TrieStats& representative, const trie::StageMapping& mapping,
    const trie::NodeEncoding& encoding, std::size_t vn_count, double alpha,
    MergedMemoryRule rule = MergedMemoryRule::kOverlapConsistent);

}  // namespace vr::virt
