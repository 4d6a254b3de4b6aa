#include "core/figures.hpp"

#include <cmath>

#include "common/units.hpp"
#include "fpga/xpe_tables.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::core {

namespace {

constexpr double kFreqStartMhz = 100.0;
constexpr double kFreqStopMhz = 500.0;
constexpr double kFreqStepMhz = 50.0;
/// The paper's two merged cases: "α = 80 %" and "α = 20 %".
constexpr double kAlphaHigh = 0.8;
constexpr double kAlphaLow = 0.2;

/// Wall time to build one figure, one labeled family member per figure.
obs::Histogram& figure_timer(const char* figure) {
  return obs::Registry::global().histogram("figures.build_ns",
                                           {{"figure", figure}});
}

}  // namespace

FigureBuilder::FigureBuilder(fpga::DeviceSpec device, FigureOptions options,
                             fpga::PnrEffects effects)
    : device_(std::move(device)),
      options_(options),
      validator_(device_, effects),
      runner_(options.threads) {}

std::shared_ptr<const Workload> FigureBuilder::workload_for(
    const Scenario& scenario) const {
  if (options_.use_cache) {
    return WorkloadCache::global().realize(scenario);
  }
  return std::make_shared<const Workload>(realize_workload(scenario));
}

Scenario FigureBuilder::sweep_scenario(power::Scheme scheme,
                                       std::size_t vn_count, double alpha,
                                       fpga::SpeedGrade grade) const {
  Scenario s;
  s.scheme = scheme;
  s.vn_count = vn_count;
  s.grade = grade;
  s.bram_policy = options_.bram_policy;
  s.stages = options_.stages;
  s.alpha = alpha;
  s.merged_source = options_.merged_source;
  s.table_profile = options_.table_profile;
  s.seed = options_.seed;
  return s;
}

SeriesTable FigureBuilder::fig2_bram_power() const {
  const obs::ScopedTimer timer(figure_timer("fig2"));
  SeriesTable table(
      "Fig. 2 - BRAM power vs operating frequency (single block, mW)",
      "freq_mhz",
      {"18Kb(-2)", "36Kb(-2)", "18Kb(-1L)", "36Kb(-1L)"});
  for (double f = kFreqStartMhz; f <= kFreqStopMhz; f += kFreqStepMhz) {
    const units::Megahertz freq{f};
    const auto block_mw = [freq](fpga::BramKind kind, fpga::SpeedGrade g) {
      return units::to_milliwatts(
                 fpga::XpeTables::bram_power_w(kind, g, 1, freq))
          .value();
    };
    table.add_point(
        f, {block_mw(fpga::BramKind::k18, fpga::SpeedGrade::kMinus2),
            block_mw(fpga::BramKind::k36, fpga::SpeedGrade::kMinus2),
            block_mw(fpga::BramKind::k18, fpga::SpeedGrade::kMinus1L),
            block_mw(fpga::BramKind::k36, fpga::SpeedGrade::kMinus1L)});
  }
  return table;
}

SeriesTable FigureBuilder::fig3_logic_power() const {
  const obs::ScopedTimer timer(figure_timer("fig3"));
  SeriesTable table(
      "Fig. 3 - per-stage logic+signal power vs frequency (mW)", "freq_mhz",
      {"stage(-2)", "stage(-1L)"});
  for (double f = kFreqStartMhz; f <= kFreqStopMhz; f += kFreqStepMhz) {
    const units::Megahertz freq{f};
    table.add_point(
        f, {units::to_milliwatts(fpga::XpeTables::logic_power_w(
                                     fpga::SpeedGrade::kMinus2, 1, freq))
                .value(),
            units::to_milliwatts(fpga::XpeTables::logic_power_w(
                                     fpga::SpeedGrade::kMinus1L, 1, freq))
                .value()});
  }
  return table;
}

FigureBuilder::Fig4 FigureBuilder::fig4_memory() const {
  const obs::ScopedTimer timer(figure_timer("fig4"));
  const std::string hi = "merged(a=" +
                         TextTable::num(kAlphaHigh * 100.0, 0) +
                         "%)";
  const std::string lo = "merged(a=" +
                         TextTable::num(kAlphaLow * 100.0, 0) + "%)";
  Fig4 fig{
      SeriesTable("Fig. 4 (left) - pointer memory vs #VNs (Kbits)",
                  "vn_count", {hi, lo, "separate"}),
      SeriesTable("Fig. 4 (right) - NHI memory vs #VNs (Kbits)", "vn_count",
                  {hi, lo, "separate"}),
  };
  const PowerEstimator& estimator = validator_.estimator();
  struct Row {
    double ptr[3] = {0, 0, 0};
    double nhi[3] = {0, 0, 0};
  };
  const std::vector<Row> rows =
      runner_.map(options_.memory_max_vn, [&](std::size_t i) {
        const std::size_t k = i + 1;
        Row row;
        const struct {
          power::Scheme scheme;
          double alpha;
        } cases[3] = {{power::Scheme::kMerged, kAlphaHigh},
                      {power::Scheme::kMerged, kAlphaLow},
                      {power::Scheme::kSeparate, 1.0}};
        for (int c = 0; c < 3; ++c) {
          const Scenario s = sweep_scenario(cases[c].scheme, k,
                                            cases[c].alpha,
                                            fpga::SpeedGrade::kMinus2);
          const Estimate est = estimator.estimate(s, *workload_for(s));
          row.ptr[c] = units::bits_to_kbits(est.resources.pointer_bits);
          row.nhi[c] = units::bits_to_kbits(est.resources.nhi_bits);
        }
        return row;
      });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    fig.pointer_memory.add_point(static_cast<double>(i + 1),
                                 {row.ptr[0], row.ptr[1], row.ptr[2]});
    fig.nhi_memory.add_point(static_cast<double>(i + 1),
                             {row.nhi[0], row.nhi[1], row.nhi[2]});
  }
  return fig;
}

SeriesTable FigureBuilder::fig5_total_power(fpga::SpeedGrade grade) const {
  const obs::ScopedTimer timer(figure_timer("fig5"));
  SeriesTable table(
      std::string("Fig. 5 - total power vs #VNs, grade ") +
          fpga::to_string(grade) + " (W; model | experimental)",
      "vn_count",
      {"NV model", "NV exp", "VS model", "VS exp", "VM80 model", "VM80 exp",
       "VM20 model", "VM20 exp"});
  const std::vector<std::vector<double>> rows =
      runner_.map(options_.max_vn, [&](std::size_t i) {
        const std::size_t k = i + 1;
        std::vector<double> row;
        const struct {
          power::Scheme scheme;
          double alpha;
        } cases[] = {{power::Scheme::kNonVirtualized, 1.0},
                     {power::Scheme::kSeparate, 1.0},
                     {power::Scheme::kMerged, kAlphaHigh},
                     {power::Scheme::kMerged, kAlphaLow}};
        for (const auto& c : cases) {
          const Scenario s = sweep_scenario(c.scheme, k, c.alpha, grade);
          const ValidationPoint point =
              validator_.validate(s, *workload_for(s));
          row.push_back(point.model.power.total_w().value());
          row.push_back(point.experiment.power.total_w().value());
        }
        return row;
      });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.add_point(static_cast<double>(i + 1), rows[i]);
  }
  return table;
}

SeriesTable FigureBuilder::fig6_virtualized_power(
    fpga::SpeedGrade grade) const {
  const obs::ScopedTimer timer(figure_timer("fig6"));
  SeriesTable table(
      std::string("Fig. 6 - virtualized schemes total power vs #VNs, grade ") +
          fpga::to_string(grade) + " (W, experimental)",
      "vn_count", {"VS", "VM80", "VM20"});
  const std::vector<std::vector<double>> rows =
      runner_.map(options_.max_vn, [&](std::size_t i) {
        const std::size_t k = i + 1;
        std::vector<double> row;
        const struct {
          power::Scheme scheme;
          double alpha;
        } cases[] = {{power::Scheme::kSeparate, 1.0},
                     {power::Scheme::kMerged, kAlphaHigh},
                     {power::Scheme::kMerged, kAlphaLow}};
        for (const auto& c : cases) {
          const Scenario s = sweep_scenario(c.scheme, k, c.alpha, grade);
          const ValidationPoint point =
              validator_.validate(s, *workload_for(s));
          row.push_back(point.experiment.power.total_w().value());
        }
        return row;
      });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.add_point(static_cast<double>(i + 1), rows[i]);
  }
  return table;
}

SeriesTable FigureBuilder::fig7_model_error(fpga::SpeedGrade grade) const {
  const obs::ScopedTimer timer(figure_timer("fig7"));
  SeriesTable table(
      std::string("Fig. 7 - model percentage error vs #VNs, grade ") +
          fpga::to_string(grade) + " (%)",
      "vn_count", {"NV", "VS", "VM80", "VM20"});
  const std::vector<std::vector<double>> rows =
      runner_.map(options_.max_vn, [&](std::size_t i) {
        const std::size_t k = i + 1;
        std::vector<double> row;
        const struct {
          power::Scheme scheme;
          double alpha;
        } cases[] = {{power::Scheme::kNonVirtualized, 1.0},
                     {power::Scheme::kSeparate, 1.0},
                     {power::Scheme::kMerged, kAlphaHigh},
                     {power::Scheme::kMerged, kAlphaLow}};
        for (const auto& c : cases) {
          const Scenario s = sweep_scenario(c.scheme, k, c.alpha, grade);
          const ValidationPoint point =
              validator_.validate(s, *workload_for(s));
          row.push_back(point.error_total_pct);
        }
        return row;
      });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.add_point(static_cast<double>(i + 1), rows[i]);
  }
  return table;
}

SeriesTable FigureBuilder::fig8_efficiency(fpga::SpeedGrade grade) const {
  const obs::ScopedTimer timer(figure_timer("fig8"));
  SeriesTable table(
      std::string("Fig. 8 - power per unit throughput vs #VNs, grade ") +
          fpga::to_string(grade) + " (mW/Gbps, experimental)",
      "vn_count", {"NV", "VS", "VM80", "VM20"});
  const std::vector<std::vector<double>> rows =
      runner_.map(options_.max_vn, [&](std::size_t i) {
        const std::size_t k = i + 1;
        std::vector<double> row;
        const struct {
          power::Scheme scheme;
          double alpha;
        } cases[] = {{power::Scheme::kNonVirtualized, 1.0},
                     {power::Scheme::kSeparate, 1.0},
                     {power::Scheme::kMerged, kAlphaHigh},
                     {power::Scheme::kMerged, kAlphaLow}};
        for (const auto& c : cases) {
          const Scenario s = sweep_scenario(c.scheme, k, c.alpha, grade);
          const ExperimentResult exp =
              validator_.runner().run(s, *workload_for(s));
          row.push_back(exp.mw_per_gbps.value());
        }
        return row;
      });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.add_point(static_cast<double>(i + 1), rows[i]);
  }
  return table;
}

TextTable FigureBuilder::table_trie_stats() const {
  const obs::ScopedTimer timer(figure_timer("tablev"));
  TextTable table("Sec. V-E - representative routing table and trie");
  table.set_header({"quantity", "this repro", "paper"});
  const net::SyntheticTableGenerator gen(options_.table_profile);
  const net::RoutingTable routing_table = gen.generate(options_.seed);
  const trie::UnibitTrie raw(routing_table);
  const trie::UnibitTrie pushed = raw.leaf_pushed();
  table.add_row({"prefixes", std::to_string(routing_table.size()), "3725"});
  table.add_row({"trie nodes (no leaf push)", std::to_string(raw.node_count()),
                 "9726"});
  table.add_row({"trie nodes (leaf pushed)",
                 std::to_string(pushed.node_count()), "16127"});
  table.add_row(
      {"nodes/prefix (raw)",
       TextTable::num(static_cast<double>(raw.node_count()) /
                          static_cast<double>(routing_table.size()),
                      2),
       TextTable::num(9726.0 / 3725.0, 2)});
  table.add_row(
      {"leaf-push expansion",
       TextTable::num(static_cast<double>(pushed.node_count()) /
                          static_cast<double>(raw.node_count()),
                      2),
       TextTable::num(16127.0 / 9726.0, 2)});
  return table;
}

}  // namespace vr::core
