#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "harness/stats.hpp"

namespace perfbench {
namespace {

TEST(PercentileRank, NearestRankRule) {
  EXPECT_EQ(percentile_rank(0, 50), 0u);
  EXPECT_EQ(percentile_rank(1, 50), 1u);
  EXPECT_EQ(percentile_rank(1, 99), 1u);
  EXPECT_EQ(percentile_rank(100, 50), 50u);
  EXPECT_EQ(percentile_rank(101, 50), 51u);
  // 99/100 * 1000 is exactly 990: no spurious round-up to 991.
  EXPECT_EQ(percentile_rank(1000, 99), 990u);
  EXPECT_EQ(percentile_rank(999, 99), 990u);
  EXPECT_EQ(percentile_rank(10, 100), 10u);
}

TEST(PercentileRank, TenBeyondP99NeedsAThousandSamples) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(1100, 99), 11u);

  std::vector<double> v(999, 1.0);
  EXPECT_FALSE(summarize(v).p99_reportable);
  v.push_back(1.0);
  EXPECT_TRUE(summarize(v).p99_reportable);
}

TEST(Percentile, PicksTheRankedSample) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  EXPECT_EQ(percentile(v, 50), 500.0);
  EXPECT_EQ(percentile(v, 99), 990.0);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50), 0.0);

  std::vector<double> w(v);
  const Summary s = summarize(w);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
}

TEST(Series, KeepsEverySampleUpToCapacity) {
  Series series(8);
  for (int i = 0; i < 5; ++i) series.add(i);
  EXPECT_EQ(series.seen(), 5u);
  EXPECT_EQ(series.values(), (std::vector<double>{0, 1, 2, 3, 4}));
}

TEST(Series, ReservoirIsAUniformSampleOfTheStream) {
  Series series(2000);
  for (int i = 0; i < 200000; ++i) series.add(i);
  EXPECT_EQ(series.seen(), 200000u);
  const std::vector<double> kept = series.values();
  ASSERT_EQ(kept.size(), 2000u);
  const Summary s = series.summary();
  EXPECT_NEAR(s.p50, 100000.0, 6000.0);
  EXPECT_NEAR(s.p99, 198000.0, 2000.0);
  // Deterministic: the same stream keeps the same sample.
  Series again(2000);
  for (int i = 0; i < 200000; ++i) again.add(i);
  EXPECT_EQ(again.values(), kept);
}

TEST(Digest, DependsOnEveryByteAndItsOrder) {
  Digest a;
  Digest b;
  Digest c;
  a.value(std::uint64_t{1});
  a.value(std::uint64_t{2});
  b.value(std::uint64_t{2});
  b.value(std::uint64_t{1});
  c.value(std::uint64_t{1});
  c.value(std::uint64_t{2});
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a.get(), c.get());
}

}  // namespace
}  // namespace perfbench
