// Cross-validation of the two dynamic-power backends (DESIGN.md §13),
// run under `ctest -L power-model`. The acceptance bound: on a uniform
// trace, the activity backend's per-VN dynamic watts agree with the
// analytical µ backend within 10% per VN, for all three schemes and
// K ∈ {2, 4, 8}. Both backends price the same XPE coefficients, so on
// steady traffic the only gap is pipeline ramp-up/drain edges and BRAM
// block quantization — far inside 10%. Shaped traffic is the benches'
// business (bench/perf_activity); this file pins the agreement that makes
// their divergence meaningful.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dataplane/full_router.hpp"
#include "fpga/device.hpp"
#include "fpga/xpe_tables.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/traffic.hpp"
#include "power/activity_model.hpp"
#include "power/power_model.hpp"
#include "trie/memory_layout.hpp"
#include "trie/unibit_trie.hpp"
#include "virt/merged_trie.hpp"

namespace vr::power {
namespace {

constexpr std::size_t kStages = 28;
constexpr units::Megahertz kFreqMhz{300.0};

EngineSpec engine_spec_of(const trie::TrieStats& stats,
                          std::size_t nhi_width) {
  const trie::StageMapping mapping(stats.nodes_per_level.size(), kStages,
                                   trie::MappingPolicy::kOneLevelPerStage);
  const trie::StageMemory memory = trie::stage_memory(
      trie::occupancy(stats, mapping), trie::NodeEncoding{}, nhi_width);
  EngineSpec spec;
  for (std::size_t s = 0; s < kStages; ++s) {
    spec.stage_bits.push_back(memory.stage_bits(s));
  }
  return spec;
}

/// One uniform-trace run of every scheme at VN count `k`, with everything
/// both backends need to price it.
struct UniformRun {
  std::vector<net::RoutingTable> tables;
  std::vector<trie::UnibitTrie> tries;
  std::vector<EngineSpec> engines;
  EngineSpec merged_engine;
  ActivityCounters separate_activity;
  ActivityCounters merged_activity;
};

UniformRun run_uniform(std::size_t k) {
  UniformRun run;
  net::TableProfile profile;
  profile.prefix_count = 200;
  const net::SyntheticTableGenerator table_gen(profile);
  std::vector<const net::RoutingTable*> table_ptrs;
  for (std::uint64_t v = 0; v < k; ++v) {
    run.tables.push_back(table_gen.generate(30 + v));
  }
  for (const auto& t : run.tables) table_ptrs.push_back(&t);
  std::vector<pipeline::TrieView> views;
  std::vector<const trie::UnibitTrie*> trie_ptrs;
  for (const auto& t : run.tables) {
    run.tries.emplace_back(trie::UnibitTrie(t).leaf_pushed());
  }
  for (const auto& t : run.tries) {
    views.emplace_back(t);
    trie_ptrs.push_back(&t);
    run.engines.push_back(engine_spec_of(trie::compute_stats(t), 1));
  }
  const virt::MergedTrie merged{
      std::span<const trie::UnibitTrie* const>(trie_ptrs)};
  run.merged_engine = engine_spec_of(merged.stats_as_trie(), k);

  dataplane::FrameGenConfig frame_config;
  frame_config.traffic =
      net::make_shaped_config(net::TraceShape::kUniform, 8000, 0.6, k);
  const dataplane::FrameGenerator frame_gen(frame_config, table_ptrs);
  const auto frames =
      frame_gen.generate(dataplane::FrameGenerator::derive_seed(99, k));

  dataplane::FullRouterConfig router_config;
  router_config.scheduler.vn_count = k;
  router_config.scheduler.port_count = 16;
  router_config.scheduler.queue_capacity = 256;
  {
    pipeline::SeparateRouter lookup(views, kStages);
    run.separate_activity =
        dataplane::run_full_router(lookup, frames, router_config).activity;
  }
  {
    pipeline::MergedRouter lookup(merged, kStages);
    run.merged_activity =
        dataplane::run_full_router(lookup, frames, router_config).activity;
  }
  return run;
}

OperatingPoint operating_point(std::vector<double> mu) {
  OperatingPoint op;
  op.grade = fpga::SpeedGrade::kMinus2;
  op.bram_policy = fpga::BramPolicy::kMixed;
  op.freq_mhz = kFreqMhz;
  op.utilization = std::move(mu);
  return op;
}

// ------------------------------------------- uniform-trace cross-validation

/// The `ctest -L power-model` acceptance bound.
TEST(PowerModelCrossValidation, BackendsAgreeWithinTenPercentPerVn) {
  const MuModel mu_model(fpga::DeviceSpec::xc6vlx760());
  const ActivityModel act_model;
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const UniformRun run = run_uniform(k);
    for (const Scheme scheme :
         {Scheme::kNonVirtualized, Scheme::kSeparate, Scheme::kMerged}) {
      const bool is_merged = scheme == Scheme::kMerged;
      const ActivityCounters& activity =
          is_merged ? run.merged_activity : run.separate_activity;
      ModelContext ctx;
      ctx.scheme = scheme;
      ctx.vn_count = k;
      if (is_merged) {
        ctx.merged_engine = &run.merged_engine;
      } else {
        ctx.engines = run.engines;
      }
      // The measured µ is what a perfectly informed capacity planner would
      // write down: feeding it to MuModel makes the 10% bound a model-
      // equivalence statement, not a test of the traffic generator.
      ctx.op = operating_point(activity.utilization());
      ctx.activity = &activity;

      const std::vector<units::Watts> mu_w = mu_model.per_vn_dynamic_w(ctx);
      const std::vector<units::Watts> act_w = act_model.per_vn_dynamic_w(ctx);
      ASSERT_EQ(mu_w.size(), k);
      ASSERT_EQ(act_w.size(), k);
      for (std::size_t v = 0; v < k; ++v) {
        ASSERT_GT(mu_w[v].value(), 0.0)
            << "scheme " << to_string(scheme) << " K=" << k << " vn=" << v;
        const double div =
            act_w[v].value() / mu_w[v].value() - 1.0;
        EXPECT_NEAR(div, 0.0, 0.10)
            << "scheme " << to_string(scheme) << " K=" << k << " vn=" << v
            << ": mu=" << mu_w[v].value() << " W, activity="
            << act_w[v].value() << " W";
      }
    }
  }
}

/// NV and VS have identical dynamic terms (Eqs. 2 vs 4 differ only in
/// leakage bookkeeping); both backends must reproduce that identity.
TEST(PowerModelCrossValidation, NvAndVsDynamicTermsAreIdentical) {
  const MuModel mu_model(fpga::DeviceSpec::xc6vlx760());
  const ActivityModel act_model;
  const UniformRun run = run_uniform(3);
  ModelContext ctx;
  ctx.vn_count = 3;
  ctx.engines = run.engines;
  ctx.op = operating_point(run.separate_activity.utilization());
  ctx.activity = &run.separate_activity;
  for (const DynamicPowerModel* model :
       {static_cast<const DynamicPowerModel*>(&mu_model),
        static_cast<const DynamicPowerModel*>(&act_model)}) {
    ctx.scheme = Scheme::kNonVirtualized;
    const auto nv = model->per_vn_dynamic_w(ctx);
    ctx.scheme = Scheme::kSeparate;
    const auto vs = model->per_vn_dynamic_w(ctx);
    ASSERT_EQ(nv.size(), vs.size());
    for (std::size_t v = 0; v < nv.size(); ++v) {
      EXPECT_DOUBLE_EQ(nv[v].value(), vs[v].value()) << model->name();
    }
  }
}

/// MuModel is a per-VN resolution of AnalyticalModel, not a reimplementation:
/// its per-VN watts must sum to exactly the wrapped estimator's dynamic
/// total for every scheme (the bit-identity that keeps the goldens honest).
TEST(PowerModelCrossValidation, MuModelSumsToAnalyticalDynamic) {
  const MuModel mu_model(fpga::DeviceSpec::xc6vlx760());
  const UniformRun run = run_uniform(4);
  // Skewed but sub-saturation µ so the VM served/offered clamp stays inert.
  const std::vector<double> mu = {0.4, 0.2, 0.1, 0.05};
  ModelContext ctx;
  ctx.vn_count = 4;
  ctx.engines = run.engines;
  ctx.merged_engine = &run.merged_engine;
  ctx.op = operating_point(mu);
  for (const Scheme scheme :
       {Scheme::kNonVirtualized, Scheme::kSeparate, Scheme::kMerged}) {
    ctx.scheme = scheme;
    units::Watts sum_w{0.0};
    for (const units::Watts& w : mu_model.per_vn_dynamic_w(ctx)) sum_w += w;
    const PowerBreakdown breakdown = mu_model.breakdown(ctx);
    EXPECT_NEAR(sum_w.value(), breakdown.dynamic_w().value(), 1e-12)
        << to_string(scheme);
  }
}

// ------------------------------------------------------- component pieces

TEST(EventEnergiesTest, DerivesFromXpeTables) {
  using fpga::XpeTables;
  for (const fpga::SpeedGrade grade :
       {fpga::SpeedGrade::kMinus2, fpga::SpeedGrade::kMinus1L}) {
    const EventEnergies e = EventEnergies::from_xpe(grade);
    const double bram18_pj =
        XpeTables::bram_uw_per_mhz(fpga::BramKind::k18, grade).value();
    const double logic_pj = XpeTables::logic_stage_uw_per_mhz(grade).value();
    EXPECT_DOUBLE_EQ(e.buffer_read_pj.value(), bram18_pj);
    EXPECT_DOUBLE_EQ(e.buffer_write_pj.value(), bram18_pj);
    EXPECT_DOUBLE_EQ(e.parser_pj.value(), logic_pj);
    EXPECT_DOUBLE_EQ(e.crossbar_pj.value(), logic_pj);
    EXPECT_DOUBLE_EQ(e.editor_pj.value(), logic_pj);
    EXPECT_DOUBLE_EQ(e.arbiter_pj.value(), 0.5 * logic_pj);
  }
}

// ---------------------------------------------- arbiter comparison counts

/// Hand-built DRR round: one port, two VNs, one packet for VN0, a link
/// fast enough to transmit it in the first cycle. The arbiter examines
/// VN0 (granting a quantum) and then VN1 (an empty skip) — two
/// comparisons for one grant, the work the grant count alone misses.
TEST(SchedulerArbiterTest, ComparisonsCountQueueExaminations) {
  dataplane::SchedulerConfig config;
  config.port_count = 1;
  config.vn_count = 2;
  config.bytes_per_cycle = 2000.0;
  dataplane::DrrScheduler scheduler(config);
  dataplane::ForwardedPacket packet;
  packet.vnid = 0;
  packet.port = 0;
  packet.payload_bytes = 100;
  ASSERT_TRUE(scheduler.enqueue(packet, 0));
  std::vector<dataplane::EgressRecord> egress;
  scheduler.tick(0, &egress);
  ASSERT_EQ(egress.size(), 1u);
  const dataplane::SchedulerStats& stats = scheduler.stats();
  EXPECT_EQ(stats.arbiter_grants_per_vn[0], 1u);
  EXPECT_EQ(stats.arbiter_grants_per_vn[1], 0u);
  EXPECT_EQ(stats.arbiter_comparisons_per_vn[0], 1u);
  EXPECT_EQ(stats.arbiter_comparisons_per_vn[1], 1u);
}

/// On real end-to-end runs the two counters cross-validate: every grant
/// required at least one examination, so comparisons dominate grants per
/// VN, and strictly in total (idle queues are examined without granting).
TEST(SchedulerArbiterTest, ComparisonsDominateGrantsOnRealRuns) {
  const UniformRun run = run_uniform(4);
  for (const ActivityCounters* act :
       {&run.separate_activity, &run.merged_activity}) {
    for (std::size_t v = 0; v < act->vn_count(); ++v) {
      EXPECT_GE(act->arbiter_comparisons[v], act->arbiter_decisions[v])
          << "vn=" << v;
    }
    EXPECT_GT(ActivityCounters::total(act->arbiter_comparisons),
              ActivityCounters::total(act->arbiter_decisions));
  }
}

TEST(ActivityCountersTest, UtilizationIsBusyShareOfStageCycles) {
  ActivityCounters a(2, 4);
  EXPECT_EQ(a.utilization(0), 0.0);  // empty window
  a.cycles = 10;
  a.busy(0, 0) = 10;
  a.busy(0, 1) = 5;
  a.busy(0, 2) = 5;
  EXPECT_DOUBLE_EQ(a.utilization(0), 0.5);
  EXPECT_EQ(a.utilization(1), 0.0);
  EXPECT_EQ(a.utilization(), (std::vector<double>{0.5, 0.0}));
}

TEST(ActivityModelTest, RequiresActivityCounters) {
  const ActivityModel model;
  const UniformRun run = run_uniform(2);
  ModelContext ctx;
  ctx.scheme = Scheme::kSeparate;
  ctx.vn_count = 2;
  ctx.engines = run.engines;
  ctx.op = operating_point({0.3, 0.3});
  EXPECT_DEATH((void)model.per_vn_dynamic_w(ctx), "activity");
}

TEST(ActivityModelTest, GatedMemoryNeverExceedsBusyCharged) {
  // stage_reads counts a subset of stage_busy cycles (a traversal that
  // already terminated occupies the stage without reading), so the
  // read-gated memory figure is bounded by the busy-charged one.
  const ActivityModel model;
  const UniformRun run = run_uniform(2);
  ModelContext ctx;
  ctx.scheme = Scheme::kSeparate;
  ctx.vn_count = 2;
  ctx.engines = run.engines;
  ctx.op = operating_point(run.separate_activity.utilization());
  ctx.activity = &run.separate_activity;
  const ActivityPower power = model.estimate(ctx);
  EXPECT_GT(power.memory_w.value(), 0.0);
  EXPECT_LE(power.memory_gated_w.value(), power.memory_w.value());
  EXPECT_GT(power.overhead_w().value(), 0.0);
  EXPECT_DOUBLE_EQ(power.dynamic_w().value(),
                   power.core_w().value() + power.overhead_w().value());
}

TEST(ActivityModelTest, ZeroCyclesGiveZeroPower) {
  const ActivityCounters activity(1, 4);
  const EngineSpec engine{{100, 100, 100, 100}};
  ModelContext ctx;
  ctx.vn_count = 1;
  ctx.engines = std::span<const EngineSpec>(&engine, 1);
  ctx.op = operating_point({});
  ctx.activity = &activity;
  EXPECT_DOUBLE_EQ(ActivityModel().estimate(ctx).dynamic_w().value(), 0.0);
}

TEST(ActivityModelTest, MismatchedStageCountsDie) {
  ActivityCounters activity(1, 4);
  activity.cycles = 10;
  const EngineSpec engine{{100, 100}};
  ModelContext ctx;
  ctx.vn_count = 1;
  ctx.engines = std::span<const EngineSpec>(&engine, 1);
  ctx.op = operating_point({});
  ctx.activity = &activity;
  EXPECT_DEATH((void)ActivityModel().estimate(ctx), "stage count");
}

TEST(ResolveMuTest, EmptyUtilizationMeansUniformShare) {
  ModelContext ctx;
  ctx.vn_count = 4;
  const std::vector<double> mu = resolve_mu(ctx);
  ASSERT_EQ(mu.size(), 4u);
  for (const double m : mu) EXPECT_DOUBLE_EQ(m, 0.25);
}

TEST(ResolveMuTest, RejectsWrongSizeVector) {
  ModelContext ctx;
  ctx.vn_count = 4;
  ctx.op.utilization = {0.5, 0.5};
  EXPECT_DEATH((void)resolve_mu(ctx), "utilization");
}

}  // namespace
}  // namespace vr::power
