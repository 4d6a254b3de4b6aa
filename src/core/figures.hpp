// Figure builders: one function per table/figure of the paper's evaluation.
// The bench binaries print these; the integration tests assert their
// qualitative shapes (who wins, what grows, where the error stays bounded).
#pragma once

#include <cstdint>
#include <memory>

#include "common/table.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "core/validator.hpp"
#include "core/workload_cache.hpp"

namespace vr::core {

/// Sweep configuration shared by the figure builders.
struct FigureOptions {
  std::uint64_t seed = 1;
  std::size_t max_vn = 15;       ///< Figs. 5–8 sweep K = 1..15 (Sec. VI-A)
  std::size_t memory_max_vn = 30;  ///< Fig. 4 sweeps K = 1..30
  std::size_t stages = 28;
  net::TableProfile table_profile = net::TableProfile::edge_default();
  MergedSource merged_source = MergedSource::kAnalyticAlpha;
  fpga::BramPolicy bram_policy = fpga::BramPolicy::kMixed;

  /// Worker threads for the K sweeps (0 = default_sweep_threads(), i.e.
  /// VR_THREADS or the hardware concurrency; 1 = serial). Output tables
  /// are bit-identical for every thread count.
  std::size_t threads = 0;
  /// Reuse realized workloads through the process-global WorkloadCache.
  /// Identical results either way; off only costs rebuild time.
  bool use_cache = true;
};

class FigureBuilder {
 public:
  explicit FigureBuilder(fpga::DeviceSpec device, FigureOptions options = {},
                         fpga::PnrEffects effects = {});

  /// Fig. 2 — BRAM power (mW) of one 18 Kb / 36 Kb block vs frequency
  /// (100..500 MHz), both speed grades.
  [[nodiscard]] SeriesTable fig2_bram_power() const;

  /// Fig. 3 — per-stage logic+signal power (mW) vs frequency, both grades.
  [[nodiscard]] SeriesTable fig3_logic_power() const;

  /// Fig. 4 — pointer (left) and NHI (right) memory requirements (Kbits)
  /// vs number of VNs for merged(α_high), merged(α_low) and separate.
  struct Fig4 {
    SeriesTable pointer_memory;
    SeriesTable nhi_memory;
  };
  [[nodiscard]] Fig4 fig4_memory() const;

  /// Figs. 5/6 — total power (W) vs K at a speed grade. Fig. 5 includes
  /// the non-virtualized series; Fig. 6 restricts to the virtualized ones
  /// (and uses the experimental numbers, where the tool-optimization
  /// decrease is visible). Series come in (model, experimental) pairs.
  [[nodiscard]] SeriesTable fig5_total_power(fpga::SpeedGrade grade) const;
  [[nodiscard]] SeriesTable fig6_virtualized_power(
      fpga::SpeedGrade grade) const;

  /// Fig. 7 — model percentage error vs K at a grade.
  [[nodiscard]] SeriesTable fig7_model_error(fpga::SpeedGrade grade) const;

  /// Fig. 8 — power per unit throughput (mW/Gbps) vs K at a grade.
  [[nodiscard]] SeriesTable fig8_efficiency(fpga::SpeedGrade grade) const;

  /// Sec. V-E — trie statistics of the representative table (prefixes,
  /// raw/leaf-pushed node counts) next to the paper's reported values.
  [[nodiscard]] TextTable table_trie_stats() const;

  [[nodiscard]] const ModelValidator& validator() const noexcept {
    return validator_;
  }
  [[nodiscard]] const FigureOptions& options() const noexcept {
    return options_;
  }

  /// The scenario used at one sweep point (exposed so tests can reproduce
  /// exactly what a figure contains).
  [[nodiscard]] Scenario sweep_scenario(power::Scheme scheme,
                                        std::size_t vn_count, double alpha,
                                        fpga::SpeedGrade grade) const;

 private:
  /// Realized workload of a sweep point — through the global WorkloadCache
  /// when options_.use_cache, freshly built otherwise.
  [[nodiscard]] std::shared_ptr<const Workload> workload_for(
      const Scenario& scenario) const;

  fpga::DeviceSpec device_;
  FigureOptions options_;
  ModelValidator validator_;
  SweepRunner runner_;
};

}  // namespace vr::core
