// Unit tests for the metrics module: percentiles/CDFs, Jain's index,
// timeseries accounting, FCT classification and table formatting.
#include <gtest/gtest.h>

#include "stats/fct_collector.h"
#include "stats/percentile.h"
#include "stats/table.h"
#include "stats/timeseries.h"
#include "testlib/seed.h"
#include "workload/distributions.h"

namespace acdc::stats {
namespace {

TEST(SamplerTest, BasicStatistics) {
  Sampler s;
  for (double v : {4.0, 1.0, 3.0, 2.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(SamplerTest, EmptyIsSafe) {
  Sampler s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 0.0);
}

TEST(SamplerTest, PercentileInterpolates) {
  Sampler s;
  for (int i = 0; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.5), 99.5);
}

TEST(SamplerTest, SingleValue) {
  Sampler s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.percentile(1), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 42.0);
}

TEST(SamplerTest, EmptyQuantilesAndMoments) {
  Sampler s;
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SamplerTest, AddAfterQuantileInvalidatesSortedCache) {
  Sampler s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);  // forces the sorted cache
  s.add(1.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(JainTest, PerfectFairnessIsOne) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({2, 2, 2, 2, 2}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0, 0}), 1.0);
}

TEST(JainTest, StarvationApproachesOneOverN) {
  const double j = jain_fairness_index({10, 0, 0, 0, 0});
  EXPECT_NEAR(j, 0.2, 1e-9);
}

TEST(JainTest, KnownValue) {
  // (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
  EXPECT_NEAR(jain_fairness_index({1, 2, 3}), 36.0 / 42.0, 1e-12);
}

TEST(TimeseriesTest, BucketsAccumulate) {
  Timeseries ts(sim::milliseconds(100));
  ts.add(sim::milliseconds(10), 500);
  ts.add(sim::milliseconds(90), 500);
  ts.add(sim::milliseconds(150), 250);
  ASSERT_EQ(ts.bucket_count(), 2u);
  EXPECT_DOUBLE_EQ(ts.bucket_sum(0), 1000);
  EXPECT_DOUBLE_EQ(ts.bucket_sum(1), 250);
  // 1000 bytes over 100 ms = 80 kbps.
  EXPECT_DOUBLE_EQ(ts.bucket_rate_bps(0), 80'000);
  EXPECT_DOUBLE_EQ(ts.sum_range(0, sim::milliseconds(100)), 1000);
  EXPECT_DOUBLE_EQ(ts.sum_range(0, sim::milliseconds(200)), 1250);
}

TEST(TimeseriesTest, OutOfOrderAddAccumulates) {
  Timeseries ts(sim::milliseconds(100));
  ts.add(sim::milliseconds(950), 1);  // creates buckets 0..9
  ts.add(sim::milliseconds(50), 2);   // goes back to bucket 0
  ts.add(sim::milliseconds(250), 4);  // bucket 2
  ts.add(sim::milliseconds(70), 8);   // bucket 0 again
  ASSERT_EQ(ts.bucket_count(), 10u);
  EXPECT_DOUBLE_EQ(ts.bucket_sum(0), 10);
  EXPECT_DOUBLE_EQ(ts.bucket_sum(2), 4);
  EXPECT_DOUBLE_EQ(ts.bucket_sum(9), 1);
  for (std::size_t i : {1u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    EXPECT_DOUBLE_EQ(ts.bucket_sum(i), 0.0) << "bucket " << i;
  }
}

TEST(TimeseriesTest, SumRangeSpanningPartialBuckets) {
  Timeseries ts(sim::milliseconds(100));
  ts.add(sim::milliseconds(10), 1);   // bucket 0 (starts at 0)
  ts.add(sim::milliseconds(110), 2);  // bucket 1 (starts at 100ms)
  ts.add(sim::milliseconds(210), 4);  // bucket 2 (starts at 200ms)
  // A range cutting into the middle of buckets counts exactly the buckets
  // whose *start* lies in [from, to): bucket 0 (starts before `from`) is
  // excluded even though the range overlaps it.
  EXPECT_DOUBLE_EQ(
      ts.sum_range(sim::milliseconds(50), sim::milliseconds(250)), 6);
  // `from` at a bucket start is inclusive; `to` at a bucket start is not.
  EXPECT_DOUBLE_EQ(
      ts.sum_range(sim::milliseconds(100), sim::milliseconds(200)), 2);
  // Ranges beyond the last bucket, and empty ranges.
  EXPECT_DOUBLE_EQ(
      ts.sum_range(sim::milliseconds(300), sim::milliseconds(900)), 0);
  EXPECT_DOUBLE_EQ(
      ts.sum_range(sim::milliseconds(150), sim::milliseconds(150)), 0);
}

TEST(FctCollectorTest, SplitsMiceAndBackground) {
  FctCollector fct(10'000);
  fct.record(1'000, sim::milliseconds(1));
  fct.record(10'000, sim::milliseconds(2));   // boundary counts as mouse
  fct.record(1'000'000, sim::milliseconds(50));
  EXPECT_EQ(fct.mice_ms().count(), 2u);
  EXPECT_EQ(fct.background_ms().count(), 1u);
  EXPECT_EQ(fct.all_ms().count(), 3u);
  EXPECT_DOUBLE_EQ(fct.background_ms().max(), 50.0);
}

TEST(TableTest, FormatsAligned) {
  Table t({"a", "long header"});
  t.add_row({"1", "x"});
  t.add_row({"22"});  // short rows are padded
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a  | long header |"), std::string::npos);
  EXPECT_NE(s.find("| 22 |"), std::string::npos);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::num(0.123456), "0.123");
  EXPECT_EQ(Table::num(123456), "123456");
  EXPECT_EQ(Table::num(0), "0");
}

}  // namespace
}  // namespace acdc::stats

namespace acdc::workload {
namespace {

TEST(DistributionTest, QuantilesMonotone) {
  for (const auto* d :
       {&web_search_distribution(), &data_mining_distribution()}) {
    std::int64_t last = 0;
    for (double u = 0.0; u <= 1.0; u += 0.01) {
      const std::int64_t q = d->quantile(u);
      EXPECT_GE(q, last) << d->name() << " u=" << u;
      last = q;
    }
  }
}

TEST(DistributionTest, SamplesWithinSupport) {
  sim::Rng rng(testlib::test_seed(3));
  const auto& d = web_search_distribution();
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t s = d.sample(rng);
    EXPECT_GE(s, d.points().front().bytes);
    EXPECT_LE(s, d.points().back().bytes);
  }
}

TEST(DistributionTest, DataMiningIsMiceHeavyByCount) {
  // 80% of data-mining flows are <= 10KB; web-search's 80th percentile is
  // ~1.5MB — the "heavier tail" contrast of §5.2.
  EXPECT_LE(data_mining_distribution().quantile(0.8), 10'000);
  EXPECT_GE(web_search_distribution().quantile(0.8), 1'000'000);
}

TEST(DistributionTest, MeansReflectTails) {
  const double ws = web_search_distribution().mean_bytes();
  const double dm = data_mining_distribution().mean_bytes();
  EXPECT_GT(ws, 500'000);  // ~1.6MB
  EXPECT_GT(dm, 100'000);  // elephants dominate the byte count
  EXPECT_LT(dm, ws);       // (with the truncated tail)
}

TEST(DistributionTest, SamplingMatchesCdf) {
  sim::Rng rng(testlib::test_seed(11));
  const auto& d = data_mining_distribution();
  int mice = 0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    if (d.sample(rng) <= 10'000) ++mice;
  }
  EXPECT_NEAR(static_cast<double>(mice) / kN, 0.8, 0.02);
}

}  // namespace
}  // namespace acdc::workload
