#include <gtest/gtest.h>

#include "common/units.hpp"
#include "fpga/distram.hpp"
#include "power/utilization.hpp"

namespace vr {
namespace {

// ----------------------------------------------------------- dist RAM --

TEST(DistRamTest, ZeroBitsZeroPower) {
  EXPECT_DOUBLE_EQ(fpga::distram_power_w(0, units::Megahertz{400.0}).value(),
                   0.0);
  EXPECT_EQ(fpga::distram_luts(0), 0u);
}

TEST(DistRamTest, PowerLinearInFrequencyAndSize) {
  const double p1 =
      fpga::distram_power_w(1024, units::Megahertz{100.0}).value();
  EXPECT_NEAR(fpga::distram_power_w(1024, units::Megahertz{400.0}).value(),
              4.0 * p1, 1e-15);
  const double big =
      fpga::distram_power_w(10 * 1024, units::Megahertz{100.0}).value();
  EXPECT_GT(big, 5.0 * p1);  // grows with size (plus the base term)
}

TEST(DistRamTest, LutsCeilAt64Bits) {
  EXPECT_EQ(fpga::distram_luts(1), 1u);
  EXPECT_EQ(fpga::distram_luts(64), 1u);
  EXPECT_EQ(fpga::distram_luts(65), 2u);
  EXPECT_EQ(fpga::distram_luts(1024), 16u);
}

TEST(DistRamTest, TinyMemoriesPreferDistRam) {
  const auto choice = fpga::choose_stage_memory(
      256, fpga::SpeedGrade::kMinus2, units::Megahertz{400.0});
  EXPECT_EQ(choice.tech, fpga::MemoryTech::kDistRam);
  EXPECT_GT(choice.luts, 0u);
  EXPECT_EQ(choice.bram_halves, 0u);
}

TEST(DistRamTest, LargeMemoriesPreferBram) {
  const auto choice = fpga::choose_stage_memory(
      100 * 1024, fpga::SpeedGrade::kMinus2, units::Megahertz{400.0});
  EXPECT_EQ(choice.tech, fpga::MemoryTech::kBram);
  EXPECT_GT(choice.bram_halves, 0u);
  EXPECT_EQ(choice.luts, 0u);
}

TEST(DistRamTest, CrossoverConsistentWithChoices) {
  const std::uint64_t crossover =
      fpga::distram_crossover_bits(fpga::SpeedGrade::kMinus2);
  EXPECT_GT(crossover, 1024u);
  EXPECT_LT(crossover, 36u * 1024u);
  // Just below the crossover distRAM wins; just above (rounded to the
  // next BRAM decision point) BRAM wins.
  EXPECT_EQ(fpga::choose_stage_memory(crossover - 64,
                                      fpga::SpeedGrade::kMinus2,
                                      units::Megahertz{250.0})
                .tech,
            fpga::MemoryTech::kDistRam);
  EXPECT_EQ(fpga::choose_stage_memory(crossover + 64,
                                      fpga::SpeedGrade::kMinus2,
                                      units::Megahertz{250.0})
                .tech,
            fpga::MemoryTech::kBram);
}

TEST(DistRamTest, ChoicePowerIsTheMinimum) {
  for (const std::uint64_t bits : {100ull, 5000ull, 20000ull, 80000ull}) {
    const auto choice = fpga::choose_stage_memory(
        bits, fpga::SpeedGrade::kMinus1L, units::Megahertz{300.0});
    const double bram =
        fpga::allocate_bram(bits, fpga::BramPolicy::kMixed)
            .power_w(fpga::SpeedGrade::kMinus1L, units::Megahertz{300.0})
            .value();
    const double dist =
        fpga::distram_power_w(bits, units::Megahertz{300.0}).value();
    EXPECT_NEAR(choice.power_w.value(), std::min(bram, dist), 1e-15);
  }
}

// --------------------------------------------------------- utilization --

TEST(UtilizationTest, ZipfZeroSkewIsUniform) {
  const auto zipf = power::zipf_utilization(6, 0.0);
  ASSERT_EQ(zipf.size(), 6u);
  for (const double mu : zipf) EXPECT_NEAR(mu, 1.0 / 6.0, 1e-12);
}

TEST(UtilizationTest, ZipfSkewConcentratesOnFirstVn) {
  const auto mu = power::zipf_utilization(10, 1.0);
  double sum = 0.0;
  for (std::size_t i = 1; i < mu.size(); ++i) {
    EXPECT_LT(mu[i], mu[i - 1]);
    sum += mu[i];
  }
  sum += mu[0];
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(mu[0], 0.3);  // harmonic(10) ~ 2.93 -> first share ~0.34
}

TEST(UtilizationTest, RejectsBadInputs) {
  EXPECT_DEATH((void)power::zipf_utilization(0, 1.0), "at least one");
  EXPECT_DEATH((void)power::zipf_utilization(4, -1.0), "skew");
}

// --------------------------------------------------------- device catalog --

TEST(DeviceCatalogTest, AllEntriesAreConsistent) {
  const auto catalog = fpga::DeviceSpec::catalog();
  ASSERT_GE(catalog.size(), 4u);
  for (const fpga::DeviceSpec& spec : catalog) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_GT(spec.logic_cells, 0u);
    EXPECT_EQ(spec.luts, spec.slices * 4);
    EXPECT_EQ(spec.flip_flops, spec.slices * 8);
    EXPECT_GT(spec.bram_bits, 0u);
    EXPECT_GT(spec.io_pins, 0u);
    // Leakage scales with area: every part stays below the LX760's and
    // keeps the -1L advantage.
    EXPECT_LE(spec.static_power_w(fpga::SpeedGrade::kMinus2).value(), 4.51);
    EXPECT_LT(spec.static_power_w(fpga::SpeedGrade::kMinus1L),
              spec.static_power_w(fpga::SpeedGrade::kMinus2));
  }
}

TEST(DeviceCatalogTest, SmallerPartsLeakLess) {
  const auto lx760 = fpga::DeviceSpec::xc6vlx760();
  const auto lx240 = fpga::DeviceSpec::xc6vlx240t();
  EXPECT_LT(lx240.static_power_w(fpga::SpeedGrade::kMinus2).value(),
            0.5 * lx760.static_power_w(fpga::SpeedGrade::kMinus2).value());
}

TEST(DeviceCatalogTest, SxPartIsBramHeavy) {
  const auto sx = fpga::DeviceSpec::xc6vsx475t();
  const auto lx = fpga::DeviceSpec::xc6vlx550t();
  EXPECT_GT(sx.bram_bits, lx.bram_bits);
  EXPECT_LT(sx.luts, lx.luts);
}

}  // namespace
}  // namespace vr
