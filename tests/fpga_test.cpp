#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "fpga/bram.hpp"
#include "fpga/device.hpp"
#include "fpga/freq_model.hpp"
#include "fpga/pnr_sim.hpp"
#include "fpga/xpe_tables.hpp"

namespace vr::fpga {
namespace {

// ---------------------------------------------------------------- device --

TEST(DeviceTest, Xc6vlx760MatchesTableII) {
  const DeviceSpec spec = DeviceSpec::xc6vlx760();
  EXPECT_EQ(spec.name, "XC6VLX760");
  EXPECT_NEAR(static_cast<double>(spec.logic_cells), 758e3, 1e3);
  EXPECT_EQ(spec.bram_bits, 26ull * 1024 * 1024);
  EXPECT_EQ(spec.distributed_ram_bits, 8ull * 1024 * 1024);
  EXPECT_EQ(spec.io_pins, 1200u);
}

TEST(DeviceTest, StaticPowerMatchesSectionVA) {
  const DeviceSpec spec = DeviceSpec::xc6vlx760();
  EXPECT_NEAR(spec.static_power_w(SpeedGrade::kMinus2).value(), 4.5, 0.01);
  EXPECT_NEAR(spec.static_power_w(SpeedGrade::kMinus1L).value(), 3.1, 0.01);
}

TEST(DeviceTest, LowPowerGradeHasLowerClockAndPower) {
  const DeviceSpec spec = DeviceSpec::xc6vlx760();
  EXPECT_LT(spec.base_fmax_mhz(SpeedGrade::kMinus1L),
            spec.base_fmax_mhz(SpeedGrade::kMinus2));
  EXPECT_LT(spec.static_power_w(SpeedGrade::kMinus1L),
            spec.static_power_w(SpeedGrade::kMinus2));
}

TEST(IoBudgetTest, FifteenEnginesSaturateTwelveHundredPins) {
  // Sec. VI-A: the separate scheme hit the pin limit at 15 VNs.
  const IoBudget io;
  EXPECT_LE(io.required(15), 1200u);
  EXPECT_GT(io.required(16), 1200u);
  EXPECT_EQ(io.max_engines(1200), 15u);
}

TEST(IoBudgetTest, DegenerateBudgets) {
  const IoBudget io;
  EXPECT_EQ(io.max_engines(0), 0u);
  EXPECT_EQ(io.max_engines(io.shared_pins), 0u);
}

// ------------------------------------------------------------ xpe tables --

TEST(XpeTablesTest, TableIIICoefficients) {
  EXPECT_DOUBLE_EQ(
      XpeTables::bram_uw_per_mhz(BramKind::k18, SpeedGrade::kMinus2).value(),
      13.65);
  EXPECT_DOUBLE_EQ(
      XpeTables::bram_uw_per_mhz(BramKind::k36, SpeedGrade::kMinus2).value(),
      24.60);
  EXPECT_DOUBLE_EQ(
      XpeTables::bram_uw_per_mhz(BramKind::k18, SpeedGrade::kMinus1L).value(),
      11.00);
  EXPECT_DOUBLE_EQ(
      XpeTables::bram_uw_per_mhz(BramKind::k36, SpeedGrade::kMinus1L).value(),
      19.70);
}

TEST(XpeTablesTest, BramPowerLinearInFrequencyAndBlocks) {
  const double p1 = XpeTables::bram_power_w(BramKind::k36, SpeedGrade::kMinus2,
                                            1, units::Megahertz{100.0})
                        .value();
  EXPECT_NEAR(p1, 24.60e-6 * 100.0, 1e-12);
  EXPECT_NEAR(XpeTables::bram_power_w(BramKind::k36, SpeedGrade::kMinus2, 3,
                                      units::Megahertz{200.0})
                  .value(),
              6.0 * p1, 1e-12);
}

TEST(XpeTablesTest, LogicCoefficientsMatchSectionVC) {
  EXPECT_DOUBLE_EQ(
      XpeTables::logic_stage_uw_per_mhz(SpeedGrade::kMinus2).value(), 5.180);
  EXPECT_DOUBLE_EQ(
      XpeTables::logic_stage_uw_per_mhz(SpeedGrade::kMinus1L).value(), 3.937);
  // 28 stages at 400 MHz, grade -2: 28 * 5.18 * 400 µW ≈ 58 mW.
  EXPECT_NEAR(XpeTables::logic_power_w(SpeedGrade::kMinus2, 28,
                                       units::Megahertz{400.0})
                  .value(),
              0.0580, 0.0005);
}

TEST(XpeTablesTest, PeFootprintMatchesSectionVC) {
  const auto pe = XpeTables::pe_footprint();
  EXPECT_EQ(pe.slice_registers, 1689u);
  EXPECT_EQ(pe.total_luts(), 336u + 126u + 376u);
}

TEST(XpeTablesTest, BramCapacities) {
  EXPECT_EQ(bram_capacity_bits(BramKind::k18), 18u * 1024);
  EXPECT_EQ(bram_capacity_bits(BramKind::k36), 36u * 1024);
}

// ---------------------------------------------------------------- bram --

TEST(BramTest, ZeroBitsNeedNoBlocks) {
  for (const auto policy :
       {BramPolicy::k18Only, BramPolicy::k36Only, BramPolicy::kMixed}) {
    const BramAllocation alloc = allocate_bram(0, policy);
    EXPECT_EQ(alloc.halves(), 0u);
  }
}

TEST(BramTest, TinyMemoryStillTakesAWholeBlock) {
  // Sec. V-B: "despite how small the amount of memory required, a BRAM
  // block has to be assigned".
  EXPECT_EQ(allocate_bram(1, BramPolicy::k18Only).blocks18, 1u);
  EXPECT_EQ(allocate_bram(1, BramPolicy::k36Only).blocks36, 1u);
  EXPECT_EQ(allocate_bram(1, BramPolicy::kMixed).blocks18, 1u);
}

TEST(BramTest, CeilingSemantics) {
  const std::uint64_t cap18 = bram_capacity_bits(BramKind::k18);
  EXPECT_EQ(allocate_bram(cap18, BramPolicy::k18Only).blocks18, 1u);
  EXPECT_EQ(allocate_bram(cap18 + 1, BramPolicy::k18Only).blocks18, 2u);
}

TEST(BramTest, MixedUsesSmallTailBlock) {
  const std::uint64_t cap36 = bram_capacity_bits(BramKind::k36);
  const std::uint64_t cap18 = bram_capacity_bits(BramKind::k18);
  const BramAllocation a = allocate_bram(cap36 + cap18, BramPolicy::kMixed);
  EXPECT_EQ(a.blocks36, 1u);
  EXPECT_EQ(a.blocks18, 1u);
  const BramAllocation b =
      allocate_bram(cap36 + cap18 + 1, BramPolicy::kMixed);
  EXPECT_EQ(b.blocks36, 2u);
  EXPECT_EQ(b.blocks18, 0u);
}

TEST(BramTest, AllocationCapacityCoversRequest) {
  for (const auto policy :
       {BramPolicy::k18Only, BramPolicy::k36Only, BramPolicy::kMixed}) {
    for (std::uint64_t bits = 1; bits < 300000; bits += 7919) {
      const BramAllocation alloc = allocate_bram(bits, policy);
      EXPECT_GE(alloc.blocks18 * bram_capacity_bits(BramKind::k18) +
                    alloc.blocks36 * bram_capacity_bits(BramKind::k36),
                bits);
    }
  }
}

TEST(BramTest, MixedNeverWorseThan36Only) {
  for (std::uint64_t bits = 1; bits < 500000; bits += 4096) {
    const auto mixed = allocate_bram(bits, BramPolicy::kMixed);
    const auto only36 = allocate_bram(bits, BramPolicy::k36Only);
    EXPECT_LE(mixed.halves(), only36.halves());
    EXPECT_LE(mixed.power_w(SpeedGrade::kMinus2, units::Megahertz{400.0})
                  .value(),
              only36.power_w(SpeedGrade::kMinus2, units::Megahertz{400.0})
                      .value() +
                  1e-12);
  }
}

TEST(BramTest, HalvesAndEquivalents) {
  BramAllocation alloc;
  alloc.blocks18 = 3;
  alloc.blocks36 = 2;
  EXPECT_EQ(alloc.halves(), 7u);
  EXPECT_DOUBLE_EQ(alloc.blocks36_equivalent(), 3.5);
}

TEST(BramTest, PlanAggregates) {
  const std::vector<std::uint64_t> stage_bits{0, 18 * 1024, 200000};
  const StageBramPlan plan = plan_stage_bram(stage_bits, BramPolicy::kMixed);
  EXPECT_EQ(plan.per_stage.size(), 3u);
  EXPECT_EQ(plan.total.halves(), plan.per_stage[0].halves() +
                                     plan.per_stage[1].halves() +
                                     plan.per_stage[2].halves());
  EXPECT_DOUBLE_EQ(plan.max_stage_blocks36eq,
                   plan.per_stage[2].blocks36_equivalent());
}

TEST(BramTest, DeviceHalves) {
  const DeviceSpec spec = DeviceSpec::xc6vlx760();
  EXPECT_EQ(device_bram_halves(spec),
            26ull * 1024 * 1024 / (18 * 1024));
}

// ------------------------------------------------------------ freq model --

TEST(FreqModelTest, LightDesignRunsNearBaseClock) {
  const DeviceSpec spec = DeviceSpec::xc6vlx760();
  DesignResources light;
  light.max_stage_blocks36eq = 1.0;
  light.bram_halves = 4;
  light.pipelines = 1;
  EXPECT_NEAR(achievable_fmax_mhz(spec, SpeedGrade::kMinus2, light).value(),
              spec.base_fmax_mhz(SpeedGrade::kMinus2).value(), 1.0);
}

TEST(FreqModelTest, WideStagesSlowTheClock) {
  const DeviceSpec spec = DeviceSpec::xc6vlx760();
  DesignResources narrow;
  narrow.max_stage_blocks36eq = 1.0;
  narrow.pipelines = 1;
  DesignResources wide = narrow;
  wide.max_stage_blocks36eq = 20.0;
  EXPECT_LT(achievable_fmax_mhz(spec, SpeedGrade::kMinus2, wide),
            achievable_fmax_mhz(spec, SpeedGrade::kMinus2, narrow));
}

TEST(FreqModelTest, MonotoneInEveryCongestionInput) {
  const DeviceSpec spec = DeviceSpec::xc6vlx760();
  DesignResources base;
  base.max_stage_blocks36eq = 3.0;
  base.bram_halves = 100;
  base.pipelines = 4;
  const units::Megahertz f0 =
      achievable_fmax_mhz(spec, SpeedGrade::kMinus2, base);
  for (auto mutate : {+[](DesignResources& r) { r.max_stage_blocks36eq *= 2; },
                      +[](DesignResources& r) { r.bram_halves *= 4; },
                      +[](DesignResources& r) { r.pipelines += 8; }}) {
    DesignResources worse = base;
    mutate(worse);
    EXPECT_LT(achievable_fmax_mhz(spec, SpeedGrade::kMinus2, worse), f0);
  }
}

TEST(FreqModelTest, LowPowerGradeScalesDown) {
  const DeviceSpec spec = DeviceSpec::xc6vlx760();
  DesignResources r;
  r.max_stage_blocks36eq = 2.0;
  r.bram_halves = 50;
  r.pipelines = 2;
  const units::Megahertz f2 = achievable_fmax_mhz(spec, SpeedGrade::kMinus2, r);
  const units::Megahertz f1l =
      achievable_fmax_mhz(spec, SpeedGrade::kMinus1L, r);
  EXPECT_NEAR(f1l / f2, 280.0 / 400.0, 1e-9);
}

// --------------------------------------------------------------- pnr sim --

class PnrSimTest : public ::testing::Test {
 protected:
  static PnrDesign simple_design(std::size_t pipelines, double activity,
                                 std::uint64_t stage_bits = 30000) {
    PnrDesign design;
    for (std::size_t p = 0; p < pipelines; ++p) {
      PipelinePlacement placement;
      placement.stage_bits.assign(28, stage_bits);
      placement.activity = activity;
      design.pipelines.push_back(std::move(placement));
    }
    return design;
  }

  PnrSimulator sim_{DeviceSpec::xc6vlx760()};
};

TEST_F(PnrSimTest, DeterministicReports) {
  const PnrDesign design = simple_design(4, 0.25);
  const PnrReport a = sim_.analyze(design);
  const PnrReport b = sim_.analyze(design);
  EXPECT_DOUBLE_EQ(a.total_w().value(), b.total_w().value());
  EXPECT_DOUBLE_EQ(a.clock_mhz.value(), b.clock_mhz.value());
}

TEST_F(PnrSimTest, StaticPowerNearGradeValue) {
  const PnrReport report = sim_.analyze(simple_design(1, 1.0));
  EXPECT_NEAR(report.static_w.value(), 4.5, 4.5 * 0.05);  // Sec. V-A ±5 %
}

TEST_F(PnrSimTest, ZeroActivityKillsDynamicPower) {
  const PnrReport report = sim_.analyze(simple_design(2, 0.0));
  EXPECT_DOUBLE_EQ(report.logic_w.value(), 0.0);
  EXPECT_DOUBLE_EQ(report.bram_w.value(), 0.0);
  EXPECT_GT(report.static_w.value(), 0.0);
}

TEST_F(PnrSimTest, DynamicScalesWithActivity) {
  const PnrReport half = sim_.analyze(simple_design(1, 0.5));
  const PnrReport full = sim_.analyze(simple_design(1, 1.0));
  EXPECT_NEAR(full.logic_w / half.logic_w, 2.0, 0.05);
  EXPECT_NEAR(full.bram_w / half.bram_w, 2.0, 0.05);
}

TEST_F(PnrSimTest, RequestedFrequencyCapsClock) {
  PnrDesign design = simple_design(1, 1.0);
  design.requested_freq_mhz = units::Megahertz{150.0};
  EXPECT_NEAR(sim_.analyze(design).clock_mhz.value(), 150.0, 1e-9);
  // Above Fmax: clipped to Fmax.
  design.requested_freq_mhz = units::Megahertz{10000.0};
  EXPECT_LT(sim_.analyze(design).clock_mhz.value(), 10000.0);
}

TEST_F(PnrSimTest, BramOverflowThrows) {
  // 28 stages x 1 pipeline x 1 Mbit/stage = 28 Mbit > 26 Mbit device BRAM.
  EXPECT_THROW((void)sim_.analyze(simple_design(1, 1.0, 1024 * 1024)),
               CapacityError);
}

TEST_F(PnrSimTest, LogicOverflowThrows) {
  // 838 LUTs/stage * 28 stages * 21 pipelines ≈ 493k > 474k LUTs.
  PnrDesign design = simple_design(21, 0.1, 1024);
  EXPECT_THROW((void)sim_.analyze(design), CapacityError);
}

TEST_F(PnrSimTest, ReplicationReducesPerPipelineLogicPower) {
  // Clock-tree sharing: K pipelines consume < K × one pipeline's logic
  // power at the same clock and activity.
  PnrDesign one = simple_design(1, 1.0);
  one.requested_freq_mhz = units::Megahertz{200.0};
  PnrDesign eight = simple_design(8, 1.0);
  eight.requested_freq_mhz = units::Megahertz{200.0};
  const PnrReport r1 = sim_.analyze(one);
  const PnrReport r8 = sim_.analyze(eight);
  EXPECT_LT(r8.logic_w, 8.0 * r1.logic_w);
  EXPECT_GT(r8.logic_w, 7.0 * r1.logic_w);
}

TEST_F(PnrSimTest, ReplicationTrimsStaticPower) {
  const PnrReport r1 = sim_.analyze(simple_design(1, 0.1));
  const PnrReport r8 = sim_.analyze(simple_design(8, 0.1));
  EXPECT_LT(r8.static_w, r1.static_w * 1.03);
  // The trim plus area growth stays inside the ±5 % band.
  EXPECT_NEAR(r8.static_w.value(), 4.5, 4.5 * 0.05);
}

TEST_F(PnrSimTest, UtilizationFieldsPopulated) {
  const PnrReport report = sim_.analyze(simple_design(4, 0.5));
  EXPECT_GT(report.bram_utilization, 0.0);
  EXPECT_LT(report.bram_utilization, 1.0);
  EXPECT_GT(report.logic_utilization, 0.0);
  EXPECT_EQ(report.resources.pipelines, 4u);
  EXPECT_EQ(report.luts_used, 838u * 28u * 4u);
}

TEST_F(PnrSimTest, RejectsBadInput) {
  PnrDesign empty;
  EXPECT_DEATH((void)sim_.analyze(empty), "no pipelines");
  PnrDesign bad = simple_design(1, 2.0);
  EXPECT_DEATH((void)sim_.analyze(bad), "activity");
}

}  // namespace
}  // namespace vr::fpga
