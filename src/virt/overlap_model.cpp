#include "virt/overlap_model.hpp"

#include <cmath>

#include "common/error.hpp"

namespace vr::virt {

double merged_node_count(std::size_t vn_count, double nodes_per_trie,
                         double alpha) {
  VR_REQUIRE(vn_count >= 1, "vn_count must be >= 1");
  VR_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0,1]");
  VR_REQUIRE(nodes_per_trie >= 0.0, "node count must be non-negative");
  const auto k = static_cast<double>(vn_count);
  return k * nodes_per_trie / (1.0 + (k - 1.0) * alpha);
}

trie::StageMemory predict_merged_stage_memory(
    const trie::TrieStats& representative, const trie::StageMapping& mapping,
    const trie::NodeEncoding& encoding, std::size_t vn_count, double alpha,
    MergedMemoryRule rule) {
  VR_REQUIRE(vn_count >= 1, "vn_count must be >= 1");
  const auto occ = trie::occupancy(representative, mapping);
  trie::StageMemory memory;
  const std::size_t stages = mapping.stage_count();
  memory.pointer_bits.assign(stages, 0);
  memory.nhi_bits.assign(stages, 0);

  switch (rule) {
    case MergedMemoryRule::kOverlapConsistent: {
      // Scale each stage's node population by the merged expansion factor,
      // then apply word widths (leaves widen to K NHI entries).
      const double expansion =
          merged_node_count(vn_count, 1.0, alpha);  // K/(1+(K−1)α)
      for (std::size_t s = 0; s < stages; ++s) {
        const double internal =
            std::round(static_cast<double>(occ.internal_nodes[s]) * expansion);
        const double leaves =
            std::round(static_cast<double>(occ.leaf_nodes[s]) * expansion);
        memory.pointer_bits[s] = static_cast<std::uint64_t>(
            internal * encoding.internal_word_bits());
        memory.nhi_bits[s] = static_cast<std::uint64_t>(
            leaves * encoding.leaf_word_bits(vn_count));
      }
      break;
    }
    case MergedMemoryRule::kPaperLiteral: {
      // Eq. 5 verbatim: per-stage memory = α · Σ_k M_{k,stage}, with the
      // single-VN word widths (the printed equation has no vector leaves).
      for (std::size_t s = 0; s < stages; ++s) {
        const double sum_ptr = static_cast<double>(occ.internal_nodes[s]) *
                               encoding.internal_word_bits() *
                               static_cast<double>(vn_count);
        const double sum_nhi = static_cast<double>(occ.leaf_nodes[s]) *
                               encoding.leaf_word_bits(1) *
                               static_cast<double>(vn_count);
        memory.pointer_bits[s] =
            static_cast<std::uint64_t>(std::round(alpha * sum_ptr));
        memory.nhi_bits[s] =
            static_cast<std::uint64_t>(std::round(alpha * sum_nhi));
      }
      break;
    }
  }
  return memory;
}

}  // namespace vr::virt
