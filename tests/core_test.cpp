#include <gtest/gtest.h>

#include <cmath>

#include "core/estimator.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/validator.hpp"
#include "core/workload.hpp"

namespace vr::core {
namespace {

Scenario base_scenario(power::Scheme scheme, std::size_t k,
                       fpga::SpeedGrade grade = fpga::SpeedGrade::kMinus2) {
  Scenario s;
  s.scheme = scheme;
  s.vn_count = k;
  s.grade = grade;
  return s;
}

// A smaller profile keeps the structural tests fast.
net::TableProfile small_profile() {
  net::TableProfile profile;
  profile.prefix_count = 600;
  return profile;
}

// ---------------------------------------------------------------- workload --

TEST(WorkloadTest, RepresentativeEngineHas28Stages) {
  const Workload w = realize_workload(base_scenario(power::Scheme::kSeparate,
                                                    4));
  EXPECT_EQ(w.per_vn_engine.stage_count(), 28u);
  EXPECT_EQ(w.prefix_count, 3725u);
  EXPECT_TRUE(w.merged_engine.stage_bits.empty());
  EXPECT_TRUE(w.tables.empty());  // analytic mode keeps nothing
}

TEST(WorkloadTest, MergedAnalyticUsesScenarioAlpha) {
  Scenario s = base_scenario(power::Scheme::kMerged, 6);
  s.alpha = 0.35;
  const Workload w = realize_workload(s);
  EXPECT_DOUBLE_EQ(w.alpha_used, 0.35);
  EXPECT_EQ(w.merged_engine.stage_count(), 28u);
  EXPECT_GT(w.merged_engine.stage_bits[20], 0u);
}

TEST(WorkloadTest, MergedMemoryShrinksWithAlpha) {
  Scenario lo = base_scenario(power::Scheme::kMerged, 8);
  lo.alpha = 0.2;
  Scenario hi = lo;
  hi.alpha = 0.8;
  const Workload wlo = realize_workload(lo);
  const Workload whi = realize_workload(hi);
  std::uint64_t lo_total = 0;
  std::uint64_t hi_total = 0;
  for (const auto b : wlo.merged_engine.stage_bits) lo_total += b;
  for (const auto b : whi.merged_engine.stage_bits) hi_total += b;
  EXPECT_GT(lo_total, hi_total);
}

TEST(WorkloadTest, StructuralModeBuildsTablesAndMeasuresAlpha) {
  Scenario s = base_scenario(power::Scheme::kMerged, 3);
  s.merged_source = MergedSource::kStructural;
  s.alpha = 0.5;
  s.table_profile = small_profile();
  const Workload w = realize_workload(s);
  EXPECT_EQ(w.tables.size(), 3u);
  EXPECT_EQ(w.tries.size(), 3u);
  ASSERT_TRUE(w.merged_trie.has_value());
  EXPECT_EQ(w.merged_trie->vn_count(), 3u);
  EXPECT_NEAR(w.alpha_used, 0.5, 0.1);
}

TEST(WorkloadTest, KeepTablesForcesArtifacts) {
  Scenario s = base_scenario(power::Scheme::kSeparate, 2);
  s.table_profile = small_profile();
  const Workload w = realize_workload(s, /*keep_tables=*/true);
  EXPECT_EQ(w.tables.size(), 2u);
  ASSERT_TRUE(w.merged_trie.has_value());
}

TEST(WorkloadTest, DeterministicInSeed) {
  Scenario s = base_scenario(power::Scheme::kMerged, 4);
  const Workload a = realize_workload(s);
  const Workload b = realize_workload(s);
  EXPECT_EQ(a.per_vn_engine.stage_bits, b.per_vn_engine.stage_bits);
  EXPECT_EQ(a.merged_engine.stage_bits, b.merged_engine.stage_bits);
}

// --------------------------------------------------------------- estimator --

class EstimatorTest : public ::testing::Test {
 protected:
  fpga::DeviceSpec device_ = fpga::DeviceSpec::xc6vlx760();
  PowerEstimator estimator_{device_};
};

TEST_F(EstimatorTest, NvPowerScalesLinearlyWithK) {
  std::vector<double> totals;
  for (std::size_t k : {1u, 5u, 10u, 15u}) {
    totals.push_back(
        estimator_.estimate(base_scenario(power::Scheme::kNonVirtualized, k))
            .power.total_w()
            .value());
  }
  // Slope ≈ one device's leakage (4.5 W) as in Fig. 5.
  const double slope = (totals[3] - totals[0]) / 14.0;
  EXPECT_NEAR(slope, 4.5, 0.2);
}

TEST_F(EstimatorTest, VirtualizedPowerIsRoughlyFlatInK) {
  const double p2 =
      estimator_.estimate(base_scenario(power::Scheme::kSeparate, 2))
          .power.total_w()
          .value();
  const double p15 =
      estimator_.estimate(base_scenario(power::Scheme::kSeparate, 15))
          .power.total_w()
          .value();
  EXPECT_LT(std::fabs(p15 - p2), 0.5);  // watts, vs ~60 W swing for NV
}

TEST_F(EstimatorTest, SavingsProportionalToK) {
  // The paper's headline: virtualizing saves power proportional to K.
  for (std::size_t k : {4u, 8u, 15u}) {
    const double nv =
        estimator_.estimate(base_scenario(power::Scheme::kNonVirtualized, k))
            .power.total_w()
            .value();
    const double vs =
        estimator_.estimate(base_scenario(power::Scheme::kSeparate, k))
            .power.total_w()
            .value();
    EXPECT_NEAR(nv / vs, static_cast<double>(k), 0.18 * static_cast<double>(k));
  }
}

TEST_F(EstimatorTest, MergedClockDegradesWithK) {
  Scenario s = base_scenario(power::Scheme::kMerged, 2);
  s.alpha = 0.2;
  const double f2 = estimator_.estimate(s).freq_mhz.value();
  s.vn_count = 15;
  const double f15 = estimator_.estimate(s).freq_mhz.value();
  EXPECT_LT(f15, 0.75 * f2);  // Sec. VI-B "decreases significantly"
}

TEST_F(EstimatorTest, SeparateClockStaysHigh) {
  const double f1 =
      estimator_.estimate(base_scenario(power::Scheme::kSeparate, 1))
          .freq_mhz.value();
  const double f15 =
      estimator_.estimate(base_scenario(power::Scheme::kSeparate, 15))
          .freq_mhz.value();
  EXPECT_GT(f15, 0.8 * f1);
}

TEST_F(EstimatorTest, EfficiencyOrderingMatchesFig8) {
  // VS best, NV second, VM worst (Sec. VI-B).
  for (std::size_t k : {4u, 8u, 15u}) {
    const double vs =
        estimator_.estimate(base_scenario(power::Scheme::kSeparate, k))
            .mw_per_gbps.value();
    const double nv =
        estimator_.estimate(base_scenario(power::Scheme::kNonVirtualized, k))
            .mw_per_gbps.value();
    Scenario vm = base_scenario(power::Scheme::kMerged, k);
    vm.alpha = 0.8;
    const double vm80 = estimator_.estimate(vm).mw_per_gbps.value();
    EXPECT_LT(vs, nv);
    EXPECT_LT(nv, vm80);
  }
}

TEST_F(EstimatorTest, LowAlphaMergedWorseThanHighAlpha) {
  Scenario s = base_scenario(power::Scheme::kMerged, 10);
  s.alpha = 0.8;
  const Estimate hi = estimator_.estimate(s);
  s.alpha = 0.2;
  const Estimate lo = estimator_.estimate(s);
  EXPECT_GT(lo.mw_per_gbps.value(), hi.mw_per_gbps.value());
  EXPECT_GT(lo.power.memory_w.value(), hi.power.memory_w.value());
  EXPECT_LT(lo.freq_mhz.value(), hi.freq_mhz.value());
}

TEST_F(EstimatorTest, SeparateFitsExactlyFifteenVns) {
  EXPECT_TRUE(
      estimator_.estimate(base_scenario(power::Scheme::kSeparate, 15))
          .fit.fits);
  EXPECT_FALSE(
      estimator_.estimate(base_scenario(power::Scheme::kSeparate, 16))
          .fit.io_ok);
}

TEST_F(EstimatorTest, RequestedFrequencyHonored) {
  Scenario s = base_scenario(power::Scheme::kSeparate, 4);
  s.freq_mhz = units::Megahertz{123.0};
  const Estimate est = estimator_.estimate(s);
  EXPECT_DOUBLE_EQ(est.freq_mhz.value(), 123.0);
  EXPECT_DOUBLE_EQ(est.power.freq_mhz.value(), 123.0);
}

TEST_F(EstimatorTest, MinusOneLPowerThirtyPercentLower) {
  const Estimate hi =
      estimator_.estimate(base_scenario(power::Scheme::kSeparate, 8));
  const Estimate lo = estimator_.estimate(
      base_scenario(power::Scheme::kSeparate, 8, fpga::SpeedGrade::kMinus1L));
  const double saving = 1.0 - lo.power.total_w() / hi.power.total_w();
  EXPECT_NEAR(saving, 0.30, 0.06);  // Sec. VI-B
  // ...at similar mW/Gbps (low-power grade trades clock for power).
  EXPECT_NEAR(lo.mw_per_gbps / hi.mw_per_gbps, 1.0, 0.12);
}

// -------------------------------------------------------------- experiment --

class ExperimentTest : public ::testing::Test {
 protected:
  fpga::DeviceSpec device_ = fpga::DeviceSpec::xc6vlx760();
  ExperimentRunner runner_{device_};
  PowerEstimator estimator_{device_};
};

TEST_F(ExperimentTest, ExperimentAndModelShareClock) {
  for (const auto scheme :
       {power::Scheme::kNonVirtualized, power::Scheme::kSeparate,
        power::Scheme::kMerged}) {
    const Scenario s = base_scenario(scheme, 6);
    const Workload w = realize_workload(s);
    EXPECT_NEAR(runner_.run(s, w).freq_mhz.value(),
                estimator_.estimate(s, w).freq_mhz.value(), 1e-9)
        << power::to_string(scheme);
  }
}

TEST_F(ExperimentTest, NvUsesKDevices) {
  const ExperimentResult r =
      runner_.run(base_scenario(power::Scheme::kNonVirtualized, 7));
  EXPECT_EQ(r.power.devices, 7u);
  EXPECT_GT(r.power.static_w.value(), 6.0 * 4.0);
}

TEST_F(ExperimentTest, DeterministicRuns) {
  const Scenario s = base_scenario(power::Scheme::kMerged, 5);
  const ExperimentResult a = runner_.run(s);
  const ExperimentResult b = runner_.run(s);
  EXPECT_DOUBLE_EQ(a.power.total_w().value(), b.power.total_w().value());
}

TEST_F(ExperimentTest, VsExperimentalPowerDecreasesWithK) {
  // Fig. 6's observation: tool optimizations shave power as identical
  // engines are replicated, while the model stays flat.
  const double p2 = runner_.run(base_scenario(power::Scheme::kSeparate, 2))
                        .power.total_w()
                        .value();
  const double p15 = runner_.run(base_scenario(power::Scheme::kSeparate, 15))
                         .power.total_w()
                         .value();
  EXPECT_LT(p15, p2);
}

// --------------------------------------------------------------- validator --

class ValidatorTest : public ::testing::Test {
 protected:
  ModelValidator validator_{fpga::DeviceSpec::xc6vlx760()};
};

TEST_F(ValidatorTest, ErrorWithinPaperBound) {
  // The paper's headline validation: max |error| <= 3 % (Sec. VI-A).
  std::vector<Scenario> grid;
  for (const auto grade :
       {fpga::SpeedGrade::kMinus2, fpga::SpeedGrade::kMinus1L}) {
    for (std::size_t k : {1u, 4u, 8u, 15u}) {
      grid.push_back(
          base_scenario(power::Scheme::kNonVirtualized, k, grade));
      grid.push_back(base_scenario(power::Scheme::kSeparate, k, grade));
      Scenario vm = base_scenario(power::Scheme::kMerged, k, grade);
      vm.alpha = 0.8;
      grid.push_back(vm);
      vm.alpha = 0.2;
      grid.push_back(vm);
    }
  }
  for (const ValidationPoint& p : validator_.validate_all(grid)) {
    EXPECT_LE(std::fabs(p.error_total_pct), 3.0);
  }
}

TEST_F(ValidatorTest, ErrorSignsAndComponents) {
  const ValidationPoint p =
      validator_.validate(base_scenario(power::Scheme::kSeparate, 8));
  EXPECT_NE(p.error_total_pct, 0.0);  // effects are on by default
  EXPECT_GT(p.model.power.total_w().value(), 0.0);
  EXPECT_GT(p.experiment.power.total_w().value(), 0.0);
  // Total error is a power-weighted blend of the component errors.
  const double lo = std::min(p.error_static_pct, p.error_dynamic_pct);
  const double hi = std::max(p.error_static_pct, p.error_dynamic_pct);
  EXPECT_GE(p.error_total_pct, lo - 1e-9);
  EXPECT_LE(p.error_total_pct, hi + 1e-9);
}

TEST_F(ValidatorTest, MergedErrorExceedsNonVirtualized) {
  // Sec. VI-A: "for non-virtualized and virtualized-separate, the error is
  // much less compared to that of virtualized-merged".
  Scenario vm = base_scenario(power::Scheme::kMerged, 12);
  vm.alpha = 0.2;
  const double vm_err =
      std::fabs(validator_.validate(vm).error_total_pct);
  const double nv_err = std::fabs(
      validator_
          .validate(base_scenario(power::Scheme::kNonVirtualized, 12))
          .error_total_pct);
  EXPECT_GT(vm_err, nv_err);
}

TEST_F(ValidatorTest, ZeroEffectsGiveNearZeroError) {
  const fpga::PnrEffects none{0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0};
  const ModelValidator exact(fpga::DeviceSpec::xc6vlx760(), none);
  for (const auto scheme :
       {power::Scheme::kNonVirtualized, power::Scheme::kSeparate,
        power::Scheme::kMerged}) {
    const ValidationPoint p = exact.validate(base_scenario(scheme, 6));
    EXPECT_NEAR(p.error_total_pct, 0.0, 1e-6) << power::to_string(scheme);
  }
}

}  // namespace
}  // namespace vr::core
