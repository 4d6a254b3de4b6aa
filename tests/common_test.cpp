#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace vr {
namespace {

// ---------------------------------------------------------------- bitops --

TEST(BitopsTest, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 5), 0u);
  EXPECT_EQ(ceil_div(1, 5), 1u);
  EXPECT_EQ(ceil_div(5, 5), 1u);
  EXPECT_EQ(ceil_div(6, 5), 2u);
  EXPECT_EQ(ceil_div(10, 1), 10u);
  EXPECT_EQ(ceil_div(7, 0), 0u);  // guarded degenerate
}

TEST(BitopsTest, PrefixMask) {
  EXPECT_EQ(prefix_mask(0), 0u);
  EXPECT_EQ(prefix_mask(1), 0x80000000u);
  EXPECT_EQ(prefix_mask(8), 0xff000000u);
  EXPECT_EQ(prefix_mask(24), 0xffffff00u);
  EXPECT_EQ(prefix_mask(32), 0xffffffffu);
}

TEST(BitopsTest, BitAtMsbFirst) {
  const std::uint32_t word = 0x80000001u;
  EXPECT_TRUE(bit_at(word, 0));
  EXPECT_FALSE(bit_at(word, 1));
  EXPECT_FALSE(bit_at(word, 30));
  EXPECT_TRUE(bit_at(word, 31));
}

TEST(BitopsTest, AddressBits) {
  EXPECT_EQ(address_bits(0), 0u);
  EXPECT_EQ(address_bits(1), 0u);
  EXPECT_EQ(address_bits(2), 1u);
  EXPECT_EQ(address_bits(3), 2u);
  EXPECT_EQ(address_bits(1024), 10u);
  EXPECT_EQ(address_bits(1025), 11u);
}

// ------------------------------------------------------------------- rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextInInclusiveBounds) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.next_in(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(RngTest, NextBoolApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(17);
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.next_weighted(weights, 3), 1u);
  }
}

TEST(RngTest, WeightedApproximatesDistribution) {
  Rng rng(19);
  const double weights[] = {1.0, 3.0};
  int counts[2] = {0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_weighted(weights, 2)];
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(SplitMix64Test, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const std::uint64_t first = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), first);
  EXPECT_NE(sm.next(), first);
}

// ----------------------------------------------------------------- stats --

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 10.0;
    all.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(PercentilesTest, MedianAndExtremes) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(PercentilesTest, Interpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
}

TEST(PercentilesTest, SingleSample) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.9), 42.0);
}

TEST(PercentilesTest, SingleSampleAtEveryRank) {
  const Percentiles p({7.5});
  EXPECT_DOUBLE_EQ(p.at(0.0), 7.5);
  EXPECT_DOUBLE_EQ(p.at(0.5), 7.5);
  EXPECT_DOUBLE_EQ(p.at(1.0), 7.5);
}

TEST(PercentilesTest, ExactBoundaryRanksHitMinAndMax) {
  // q = 0 and q = 1 must land exactly on the extremes (no interpolation
  // round-off), including with unsorted input and duplicates.
  const Percentiles p({9.0, -3.0, 4.0, 4.0, 12.0});
  EXPECT_DOUBLE_EQ(p.at(0.0), -3.0);
  EXPECT_DOUBLE_EQ(p.at(1.0), 12.0);
}

TEST(PercentilesTest, NanSampleAborts) {
  // A NaN breaks std::sort's strict weak ordering (UB); the constructor
  // must refuse rather than silently produce garbage quantiles.
  EXPECT_DEATH(Percentiles({1.0, std::nan(""), 2.0}),
               "percentile sample is NaN");
}

TEST(StatsTest, PercentageErrorMatchesPaperDefinition) {
  // (model - experimental) / experimental * 100 (Sec. VI-A).
  EXPECT_DOUBLE_EQ(percentage_error(103.0, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(percentage_error(97.0, 100.0), -3.0);
  EXPECT_DOUBLE_EQ(percentage_error(0.0, 0.0), 0.0);
}

// ----------------------------------------------------------------- units --

TEST(UnitsTest, PowerConversions) {
  EXPECT_DOUBLE_EQ(units::uw_to_w(1e6), 1.0);
  EXPECT_DOUBLE_EQ(units::w_to_mw(0.5), 500.0);
}

TEST(UnitsTest, CoefficientIsPicojoulePerCycle) {
  // P = c µW at f MHz <=> E = c pJ per cycle: check the round trip.
  const double c = 24.6;  // 36Kb BRAM at -2
  const double f = 400.0;
  const double power_w = units::uw_to_w(c * f);
  const double cycles = 1e6;
  const double energy_pj = c * cycles;
  EXPECT_NEAR(units::pj_over_cycles_to_w(energy_pj, cycles, f), power_w,
              1e-12);
}

TEST(UnitsTest, ThroughputFortyBytePackets) {
  // Sec. VI-B: Gbps = 0.32 * f(MHz) at 40 B.
  EXPECT_NEAR(units::lookup_throughput_gbps(400.0, 40.0), 128.0, 1e-9);
  EXPECT_NEAR(units::lookup_throughput_gbps(100.0, 40.0), 32.0, 1e-9);
}

// ----------------------------------------------------------------- table --

TEST(TextTableTest, RendersAlignedWithHeader) {
  TextTable t("demo");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
  EXPECT_NE(out.find('1'), std::string::npos);
}

TEST(TextTableTest, CsvEscapesSpecialCharacters) {
  TextTable t;
  t.set_header({"x", "y"});
  t.add_row({"a,b", "q\"uote"});
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
  EXPECT_NE(os.str().find("\"q\"\"uote\""), std::string::npos);
}

TEST(TextTableTest, NumericRowFormatsPrecision) {
  TextTable t;
  t.set_header({"label", "v"});
  t.add_numeric_row("row", {1.23456}, 2);
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_NE(os.str().find("1.23"), std::string::npos);
  EXPECT_EQ(os.str().find("1.2345"), std::string::npos);
}

TEST(SeriesTableTest, StoresSeriesColumnwise) {
  SeriesTable t("s", "x", {"a", "b"});
  t.add_point(1.0, {10.0, 20.0});
  t.add_point(2.0, {11.0, 21.0});
  EXPECT_EQ(t.point_count(), 2u);
  EXPECT_EQ(t.series(0), (std::vector<double>{10.0, 11.0}));
  EXPECT_EQ(t.series(1), (std::vector<double>{20.0, 21.0}));
}

TEST(SeriesTableTest, CsvHasHeaderAndRows) {
  SeriesTable t("s", "k", {"m"});
  t.add_point(3.0, {7.0});
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_NE(os.str().find("k,m"), std::string::npos);
  EXPECT_NE(os.str().find("3,"), std::string::npos);
}

// ----------------------------------------------------------------- error --

TEST(ErrorTest, HierarchyIsCatchable) {
  try {
    throw CapacityError("too big");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("too big"), std::string::npos);
  }
}

}  // namespace
}  // namespace vr
