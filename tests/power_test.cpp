#include <gtest/gtest.h>

#include <cmath>

#include "fpga/xpe_tables.hpp"
#include "power/analytical_model.hpp"
#include "power/efficiency.hpp"
#include "power/resource_model.hpp"
#include "power/scheme.hpp"

namespace vr::power {
namespace {

EngineSpec uniform_engine(std::size_t stages, std::uint64_t bits_per_stage) {
  EngineSpec engine;
  engine.stage_bits.assign(stages, bits_per_stage);
  return engine;
}

OperatingPoint default_op(double freq = 400.0,
                          fpga::SpeedGrade grade = fpga::SpeedGrade::kMinus2) {
  OperatingPoint op;
  op.grade = grade;
  op.freq_mhz = units::Megahertz{freq};
  return op;
}

class AnalyticalModelTest : public ::testing::Test {
 protected:
  fpga::DeviceSpec device_ = fpga::DeviceSpec::xc6vlx760();
  AnalyticalModel model_{device_};
};

// -------------------------------------------------------------- scheme --

TEST(SchemeTest, DeviceAndEngineCounts) {
  EXPECT_EQ(devices_for(Scheme::kNonVirtualized, 7), 7u);
  EXPECT_EQ(devices_for(Scheme::kSeparate, 7), 1u);
  EXPECT_EQ(devices_for(Scheme::kMerged, 7), 1u);
  EXPECT_EQ(engines_per_device(Scheme::kNonVirtualized, 7), 1u);
  EXPECT_EQ(engines_per_device(Scheme::kSeparate, 7), 7u);
  EXPECT_EQ(engines_per_device(Scheme::kMerged, 7), 1u);
}

TEST(SchemeTest, ThroughputScalesWithEnginesNotVns) {
  // NV and VS aggregate K engines; VM is time-shared (Sec. IV-C).
  const double one = aggregate_throughput_gbps(Scheme::kMerged, 8, units::Megahertz{400.0}).value();
  EXPECT_NEAR(one, 128.0, 1e-9);
  EXPECT_NEAR(aggregate_throughput_gbps(Scheme::kSeparate, 8, units::Megahertz{400.0}).value(),
              8 * 128.0, 1e-9);
  EXPECT_NEAR(aggregate_throughput_gbps(Scheme::kNonVirtualized, 8, units::Megahertz{400.0}).value(),
              8 * 128.0, 1e-9);
}

// ------------------------------------------------------------ equations --

TEST_F(AnalyticalModelTest, StageMemoryPowerFollowsTableIII) {
  OperatingPoint op = default_op(300.0);
  op.bram_policy = fpga::BramPolicy::k36Only;
  // 100 Kbit -> ceil(100K/36K) = 3 blocks of 36 Kb.
  const double expected = 3 * 24.60e-6 * 300.0;
  EXPECT_NEAR(model_.stage_memory_power_w(units::Bits{100 * 1024}, op).value(), expected, 1e-12);
}

TEST_F(AnalyticalModelTest, StageLogicPowerFollowsSectionVC) {
  EXPECT_NEAR(model_.stage_logic_power_w(default_op(250.0)).value(),
              5.18e-6 * 250.0, 1e-12);
  EXPECT_NEAR(model_.stage_logic_power_w(
                  default_op(250.0, fpga::SpeedGrade::kMinus1L)).value(),
              3.937e-6 * 250.0, 1e-12);
}

TEST_F(AnalyticalModelTest, NvStaticScalesWithK) {
  // Eq. 2: K devices each pay full leakage.
  const EngineSpec engine = uniform_engine(28, 30000);
  for (std::size_t k : {1u, 4u, 15u}) {
    const std::vector<EngineSpec> engines(k, engine);
    const PowerBreakdown p = model_.estimate_nv(engines, default_op());
    EXPECT_NEAR(p.static_w.value(), static_cast<double>(k) * 4.5, 1e-9);
    EXPECT_EQ(p.devices, k);
  }
}

TEST_F(AnalyticalModelTest, VsStaticPaidOnce) {
  // Eq. 4: leakage shared across the K virtual routers.
  const EngineSpec engine = uniform_engine(28, 30000);
  const std::vector<EngineSpec> engines(10, engine);
  const PowerBreakdown p = model_.estimate_vs(engines, default_op());
  EXPECT_NEAR(p.static_w.value(), 4.5, 1e-9);
  EXPECT_EQ(p.devices, 1u);
}

TEST_F(AnalyticalModelTest, NvAndVsShareDynamicPower) {
  // Eqs. 2 and 4 have identical dynamic terms.
  const EngineSpec engine = uniform_engine(28, 30000);
  const std::vector<EngineSpec> engines(6, engine);
  const PowerBreakdown nv = model_.estimate_nv(engines, default_op());
  const PowerBreakdown vs = model_.estimate_vs(engines, default_op());
  EXPECT_NEAR(nv.dynamic_w().value(), vs.dynamic_w().value(), 1e-12);
}

TEST_F(AnalyticalModelTest, UniformUtilizationMakesDynamicKIndependent) {
  // With µ_i = 1/K, the summed dynamic power equals one engine at µ=1
  // regardless of K (Assumption 1's consequence the paper discusses at
  // Fig. 6).
  const EngineSpec engine = uniform_engine(28, 30000);
  const PowerBreakdown p1 =
      model_.estimate_vs(std::vector<EngineSpec>(1, engine), default_op());
  const PowerBreakdown p12 =
      model_.estimate_vs(std::vector<EngineSpec>(12, engine), default_op());
  EXPECT_NEAR(p1.dynamic_w().value(), p12.dynamic_w().value(), 1e-12);
}

TEST_F(AnalyticalModelTest, ExplicitUtilizationWeighting) {
  const EngineSpec engine = uniform_engine(28, 30000);
  OperatingPoint op = default_op();
  op.utilization = {1.0, 0.0};
  const PowerBreakdown p =
      model_.estimate_vs(std::vector<EngineSpec>(2, engine), op);
  OperatingPoint op_single = default_op();
  op_single.utilization = {1.0};
  const PowerBreakdown single =
      model_.estimate_vs(std::vector<EngineSpec>(1, engine), op_single);
  EXPECT_NEAR(p.dynamic_w().value(), single.dynamic_w().value(), 1e-12);
}

TEST_F(AnalyticalModelTest, VmAggregatesUtilization) {
  // Eq. 6: the merged engine is busy whenever any VN offers traffic.
  const EngineSpec merged = uniform_engine(28, 200000);
  const PowerBreakdown p = model_.estimate_vm(merged, 8, default_op());
  const PowerBreakdown p1 = model_.estimate_vm(merged, 1, default_op());
  EXPECT_NEAR(p.dynamic_w().value(), p1.dynamic_w().value(), 1e-12);  // Σµ = 1 either way
  EXPECT_NEAR(p.static_w.value(), 4.5, 1e-9);
}

TEST_F(AnalyticalModelTest, PowerScalesLinearlyWithFrequency) {
  const EngineSpec engine = uniform_engine(28, 50000);
  const std::vector<EngineSpec> engines(4, engine);
  const PowerBreakdown lo = model_.estimate_vs(engines, default_op(100.0));
  const PowerBreakdown hi = model_.estimate_vs(engines, default_op(400.0));
  EXPECT_NEAR(hi.dynamic_w() / lo.dynamic_w(), 4.0, 1e-9);
  EXPECT_NEAR(hi.static_w.value(), lo.static_w.value(), 1e-12);  // static is f-independent
}

TEST_F(AnalyticalModelTest, LowPowerGradeSavesRoughlyThirtyPercent) {
  // Sec. VI-B: "30% less power ... when speed grade -1L was chosen".
  const EngineSpec engine = uniform_engine(28, 50000);
  const std::vector<EngineSpec> engines(8, engine);
  const PowerBreakdown hi = model_.estimate_vs(engines, default_op(300.0));
  const PowerBreakdown lo = model_.estimate_vs(
      engines, default_op(300.0, fpga::SpeedGrade::kMinus1L));
  const double saving = 1.0 - lo.total_w() / hi.total_w();
  EXPECT_GT(saving, 0.20);
  EXPECT_LT(saving, 0.40);
}

TEST_F(AnalyticalModelTest, UtilizationValidation) {
  const EngineSpec engine = uniform_engine(4, 1000);
  OperatingPoint op = default_op();
  op.utilization = {0.5};  // wrong size for 2 engines
  const std::vector<EngineSpec> engines(2, engine);
  EXPECT_DEATH((void)model_.estimate_vs(engines, op), "utilization");
}

// --------------------------------------------------------- resource model --

trie::StageMemory sample_memory() {
  trie::StageMemory memory;
  memory.pointer_bits = {1000, 36000, 72000};
  memory.nhi_bits = {0, 8000, 64000};
  return memory;
}

TEST(ResourceModelTest, NvVsDifferOnlyInDevicesAndIo) {
  const trie::StageMemory memory = sample_memory();
  const SchemeResources nv = replicated_resources(
      Scheme::kNonVirtualized, memory, 5, fpga::BramPolicy::kMixed);
  const SchemeResources vs = replicated_resources(
      Scheme::kSeparate, memory, 5, fpga::BramPolicy::kMixed);
  EXPECT_EQ(nv.devices, 5u);
  EXPECT_EQ(vs.devices, 1u);
  EXPECT_EQ(nv.pointer_bits, vs.pointer_bits);
  EXPECT_EQ(nv.nhi_bits, vs.nhi_bits);
  EXPECT_EQ(nv.luts, vs.luts);
  EXPECT_LT(nv.io_pins, vs.io_pins);  // VS packs all interfaces on one chip
  // VS's single device carries 5x the BRAM of one NV device.
  EXPECT_EQ(vs.bram_per_device.total.halves(),
            5 * nv.bram_per_device.total.halves());
}

TEST(ResourceModelTest, TotalsScaleWithK) {
  const trie::StageMemory memory = sample_memory();
  const SchemeResources one = replicated_resources(
      Scheme::kSeparate, memory, 1, fpga::BramPolicy::kMixed);
  const SchemeResources ten = replicated_resources(
      Scheme::kSeparate, memory, 10, fpga::BramPolicy::kMixed);
  EXPECT_EQ(ten.pointer_bits.value(), 10 * one.pointer_bits.value());
  EXPECT_EQ(ten.nhi_bits.value(), 10 * one.nhi_bits.value());
  EXPECT_EQ(ten.luts, 10 * one.luts);
}

TEST(ResourceModelTest, MergedSingleEngine) {
  const trie::StageMemory memory = sample_memory();
  const SchemeResources vm =
      merged_resources(memory, 12, fpga::BramPolicy::kMixed);
  EXPECT_EQ(vm.devices, 1u);
  EXPECT_EQ(vm.engines, 1u);
  EXPECT_EQ(vm.pointer_bits.value(), memory.total_pointer_bits());
  EXPECT_EQ(vm.io_pins, fpga::IoBudget{}.required(1));
}

TEST(ResourceModelTest, FitChecksIoLimit) {
  const trie::StageMemory memory = sample_memory();
  const fpga::DeviceSpec device = fpga::DeviceSpec::xc6vlx760();
  const SchemeResources fits = replicated_resources(
      Scheme::kSeparate, memory, 15, fpga::BramPolicy::kMixed);
  EXPECT_TRUE(check_fit(fits, device).fits);
  const SchemeResources too_many = replicated_resources(
      Scheme::kSeparate, memory, 16, fpga::BramPolicy::kMixed);
  const FitReport report = check_fit(too_many, device);
  EXPECT_FALSE(report.fits);
  EXPECT_FALSE(report.io_ok);
  EXPECT_TRUE(report.bram_ok);
}

TEST(ResourceModelTest, FitChecksBramLimit) {
  trie::StageMemory huge;
  huge.pointer_bits.assign(28, 1024 * 1024);
  huge.nhi_bits.assign(28, 0);
  const SchemeResources vm =
      merged_resources(huge, 2, fpga::BramPolicy::kMixed);
  const FitReport report =
      check_fit(vm, fpga::DeviceSpec::xc6vlx760());
  EXPECT_FALSE(report.fits);
  EXPECT_FALSE(report.bram_ok);
}

TEST(ResourceModelTest, MaxVnCountScansUpward) {
  const trie::StageMemory memory = sample_memory();
  const fpga::DeviceSpec device = fpga::DeviceSpec::xc6vlx760();
  const std::size_t max_k = max_vn_count(
      device, 40, [&](std::size_t k) {
        return replicated_resources(Scheme::kSeparate, memory, k,
                                    fpga::BramPolicy::kMixed);
      });
  EXPECT_EQ(max_k, 15u);  // pin-limited, Sec. VI-A
}

// ------------------------------------------------------------ efficiency --

TEST(EfficiencyTest, MwPerGbps) {
  EXPECT_DOUBLE_EQ(mw_per_gbps(units::Watts{4.5}, units::Gbps{128.0}).value(),
                   4500.0 / 128.0);
  EXPECT_DOUBLE_EQ(mw_per_gbps(units::Watts{4.5}, units::Gbps{0.0}).value(),
                   0.0);
}

TEST(EfficiencyTest, SchemeEfficiencyUsesAggregateThroughput) {
  PowerBreakdown p;
  p.static_w = units::Watts{4.5};
  p.freq_mhz = units::Megahertz{400.0};
  const auto efficiency = [&p](Scheme scheme) {
    return mw_per_gbps(p.total_w(),
                       aggregate_throughput_gbps(scheme, 8, p.freq_mhz))
        .value();
  };
  const double vs = efficiency(Scheme::kSeparate);
  const double vm = efficiency(Scheme::kMerged);
  EXPECT_NEAR(vm / vs, 8.0, 1e-9);  // VM divides by a single engine's rate
}

}  // namespace
}  // namespace vr::power
