// Tests of the benchmark's own arithmetic (stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankOnRawSamples) {
  const std::vector<double> v = Ramp(100);
  EXPECT_EQ(PercentileSorted(v, 0.5), 50.0);
  EXPECT_EQ(PercentileSorted(v, 0.99), 99.0);
  EXPECT_EQ(PercentileSorted(v, 1.0), 100.0);
  EXPECT_EQ(PercentileSorted({7.0}, 0.5), 7.0);
  EXPECT_TRUE(std::isnan(PercentileSorted({}, 0.5)));
}

TEST(Percentile, NeverAboveTheMaximum) {
  // Unlike a log2 histogram bucket bound, a raw-sample percentile is one
  // of the samples.
  const std::vector<double> v = {100, 200, 121878};
  EXPECT_LE(PercentileSorted(v, 0.99), 121878.0);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(20, 0.5), 10u);
  EXPECT_EQ(SamplesBeyond(10, 1.0), 0u);
}

TEST(Percentile, TailIsHighestWithTenBeyond) {
  EXPECT_EQ(TailQuantile(10000), 0.999);
  EXPECT_EQ(TailQuantile(9999), 0.99);
  EXPECT_EQ(TailQuantile(1000), 0.99);
  EXPECT_EQ(TailQuantile(999), 0.9);
  EXPECT_EQ(TailQuantile(100), 0.9);
  EXPECT_EQ(TailQuantile(99), 0.5);
  EXPECT_EQ(TailQuantile(20), 0.5);
  EXPECT_EQ(TailQuantile(19), 0.0);
}

TEST(Percentile, UnsupportedQuantileIsNotReported) {
  const Quantile p99 = QuantileOf(Ramp(999), 0.99);
  EXPECT_FALSE(p99.reported());
  EXPECT_EQ(p99.samples, 999u);
  EXPECT_EQ(p99.beyond, 9u);
  const Quantile ok = QuantileOf(Ramp(1000), 0.99);
  EXPECT_TRUE(ok.reported());
  EXPECT_EQ(ok.value, 990.0);
  EXPECT_EQ(ok.beyond, 10u);
  const Quantile tail = TailOf(Ramp(150));
  EXPECT_EQ(tail.q, 0.9);
  EXPECT_EQ(tail.value, 135.0);
  EXPECT_FALSE(TailOf(Ramp(5)).reported());
}

TEST(Percentile, FailedRequestsMissTheLimit) {
  // 20 of 1000 reads failed: the p99 lands on a failure. It reports the
  // slowest answered read (above the limit here), finite and flagged.
  std::vector<double> v = Ramp(1000);
  for (size_t i = 0; i < 20; ++i) v[i] = kMissed;
  const Quantile p99 = QuantileOf(v, 0.99);
  EXPECT_TRUE(p99.reported());
  EXPECT_TRUE(p99.missed);
  EXPECT_EQ(p99.value, 1000.0);
  // The median lands on an answered read and is untouched.
  const Quantile p50 = QuantileOf(v, 0.5);
  EXPECT_FALSE(p50.missed);
  EXPECT_EQ(p50.value, 520.0);
}

TEST(Percentile, FailedRequestsReportAtLeastTheLimit) {
  // Fast answered reads, most reads failed: the median reports the limit,
  // never a figure faster than it.
  std::vector<double> v(30, kMissed);
  for (size_t i = 0; i < 5; ++i) v[i] = 0.5;
  const Quantile p50 = QuantileOf(v, 0.5);
  EXPECT_TRUE(p50.missed);
  EXPECT_EQ(p50.value, kLatencyLimitMs);
  const Quantile all_failed = QuantileOf(std::vector<double>(30, kMissed), 0.5);
  EXPECT_EQ(all_failed.value, kLatencyLimitMs);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(FailFraction, CountsAgainstAttempts) {
  EXPECT_EQ(FailFraction(0, 0), 0.0);
  EXPECT_EQ(FailFraction(0, 50), 0.0);
  EXPECT_EQ(FailFraction(5, 50), 0.1);
  EXPECT_EQ(FailFraction(50, 50), 1.0);
}

TEST(SelfTime, SubtractsDirectChildrenOnTheSameThread) {
  // root [0,100) > a [10,40) > b [15,25); root > c [50,70).
  const std::vector<Span> spans = {
      {"root", 1, 0, 100}, {"a", 1, 10, 30}, {"b", 1, 15, 10},
      {"c", 1, 50, 20}};
  const auto t = SelfTimes(spans);
  EXPECT_EQ(t.at("root").self_us, 50u);  // 100 - 30 - 20
  EXPECT_EQ(t.at("a").self_us, 20u);     // 30 - 10
  EXPECT_EQ(t.at("b").self_us, 10u);
  EXPECT_EQ(t.at("c").self_us, 20u);
  EXPECT_EQ(t.at("root").total_us, 100u);
}

TEST(SelfTime, OtherThreadsAreNotChildren) {
  const std::vector<Span> spans = {{"job", 1, 0, 100}, {"work", 2, 10, 50}};
  const auto t = SelfTimes(spans);
  EXPECT_EQ(t.at("job").self_us, 100u);
  EXPECT_EQ(t.at("work").self_us, 50u);
}

TEST(SelfTime, SumsRepeatedNamesAndOrderDoesNotMatter) {
  const std::vector<Span> spans = {{"x", 1, 30, 10}, {"p", 1, 0, 60},
                                   {"x", 1, 5, 10},  {"x", 2, 0, 7}};
  const auto t = SelfTimes(spans);
  EXPECT_EQ(t.at("x").count, 3u);
  EXPECT_EQ(t.at("x").self_us, 27u);
  EXPECT_EQ(t.at("p").self_us, 40u);
}

TEST(SelfTime, SameStartEnclosingSpanIsTheParent) {
  const std::vector<Span> spans = {{"child", 1, 10, 5}, {"parent", 1, 10, 20}};
  const auto t = SelfTimes(spans);
  EXPECT_EQ(t.at("parent").self_us, 15u);
  EXPECT_EQ(t.at("child").self_us, 5u);
}

TEST(SelfTime, ChildRunningPastItsParentIsClipped) {
  // Microsecond rounding can let a child end after its parent.
  const std::vector<Span> spans = {{"p", 1, 0, 10}, {"c", 1, 5, 8}};
  const auto t = SelfTimes(spans);
  EXPECT_EQ(t.at("p").self_us, 5u);
}

}  // namespace
}  // namespace perfbench
