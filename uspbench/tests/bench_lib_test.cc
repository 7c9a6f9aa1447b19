#include "bench_lib.h"

#include <gtest/gtest.h>

#include <vector>

namespace uspbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

Span MakeSpan(int64_t start, int64_t end) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(PercentileTest, CountsSamplesBeyondNearestRank) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10u);
  EXPECT_EQ(SamplesBeyond(10, 100.0), 0u);
}

TEST(PercentileTest, NearestRankOfAscendingSample) {
  std::vector<double> v = OneTo(1000);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(NearestRank(v, 99.0), 990.0);
  EXPECT_EQ(NearestRank(v, 50.0), 500.0);
  EXPECT_EQ(NearestRank(v, 100.0), 1000.0);
}

TEST(PercentileTest, HighestSupportedKeepsTenSamplesBeyond) {
  const Tail big = HighestSupported(OneTo(10000));
  EXPECT_EQ(big.percentile, 99.9);
  EXPECT_EQ(big.value, 9990.0);
  EXPECT_EQ(big.count, 10000u);

  const Tail p99 = HighestSupported(OneTo(1000));
  EXPECT_EQ(p99.percentile, 99.0);
  EXPECT_EQ(p99.value, 990.0);

  const Tail p90 = HighestSupported(OneTo(100));
  EXPECT_EQ(p90.percentile, 90.0);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.count, 100u);

  const Tail none = HighestSupported(OneTo(15));
  EXPECT_EQ(none.percentile, 0.0);
  EXPECT_EQ(none.count, 15u);
}

TEST(PercentileTest, WindowMedianTakesMedianOfWindowPercentiles) {
  // Eight windows of 1000 samples; window w holds (w + 1) * 1000 + j.
  std::vector<double> v;
  for (size_t w = 0; w < 8; ++w) {
    for (size_t j = 0; j < 1000; ++j) v.push_back((w + 1) * 1000.0 + j);
  }
  size_t windows = 0;
  // Window p99s are 1989, 2989, ..., 8989; the nearest-rank median is the
  // 4th.
  EXPECT_EQ(WindowMedian(v, 99.0, 8, &windows), 4989.0);
  EXPECT_EQ(windows, 8u);
  EXPECT_EQ(WindowMedian(v, 50.0, 8, &windows), 4499.0);
  // At most max_windows windows, each still >= kMinWindow samples.
  WindowMedian(v, 99.0, 3, &windows);
  EXPECT_EQ(windows, 3u);
}

TEST(PercentileTest, WindowMedianIgnoresOneSlowWindow) {
  std::vector<double> v(5000, 10.0);
  for (size_t j = 2000; j < 3000; ++j) v[j] = 1000.0;  // one stalled window
  size_t windows = 0;
  EXPECT_EQ(WindowMedian(v, 99.0, 8, &windows), 10.0);
  EXPECT_EQ(windows, 5u);
}

TEST(PercentileTest, WindowMedianRefusesTooFewSamples) {
  size_t windows = 7;
  EXPECT_EQ(WindowMedian(std::vector<double>(999, 1.0), 99.0, 8, &windows),
            0.0);
  EXPECT_EQ(windows, 0u);
}

TEST(SelfTimeTest, SubtractsTheUnionOfClippedChildren) {
  const Span parent = MakeSpan(0, 100);
  // Overlapping [10,20) and [15,30) cover 20; [50,60) covers 10; [90,120)
  // is clipped to [90,100) and covers 10; [200,300) lies outside.
  const std::vector<Span> children = {MakeSpan(15, 30), MakeSpan(10, 20),
                                      MakeSpan(50, 60), MakeSpan(90, 120),
                                      MakeSpan(200, 300)};
  EXPECT_EQ(SelfTimeNs(parent, children), 60);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(0, 100), MakeSpan(20, 40)}), 0);
}

TEST(AttributionTest, RequestBelongsToLastBatchEndingBeforeReady) {
  const std::vector<Span> batches = {MakeSpan(0, 10), MakeSpan(12, 20),
                                     MakeSpan(25, 40)};
  // Submitted while batch 0 ran, ready after batch 1 ended.
  EXPECT_EQ(AttributeToBatch(batches, 11, 21), 1);
  // Ready exactly at batch 2's end.
  EXPECT_EQ(AttributeToBatch(batches, 11, 40), 2);
  // Queue wait is the batch start minus the submit time.
  EXPECT_EQ(batches[AttributeToBatch(batches, 5, 21)].start_ns - 5, 7);
  // The last batch ending before ready started before the submit: none.
  EXPECT_EQ(AttributeToBatch(batches, 13, 21), -1);
  // Ready before any batch ended.
  EXPECT_EQ(AttributeToBatch(batches, 0, 9), -1);
}

TEST(OpenLoopScheduleTest, DueTimesAndLateness) {
  const OpenLoopSchedule schedule(1000, 1000.0);  // one arrival per ms
  EXPECT_EQ(schedule.Due(0), 1000);
  EXPECT_EQ(schedule.Due(3), 1000 + 3000000);
  EXPECT_EQ(schedule.Lateness(3, schedule.Due(3) + 500), 500);
  EXPECT_EQ(schedule.Lateness(3, schedule.Due(3) - 500), 0);
  const OpenLoopSchedule thirds(0, 3.0);
  EXPECT_EQ(thirds.Due(1), 333333333);
  EXPECT_EQ(thirds.Due(3), 1000000000);
}

TEST(TracerTest, RecordsOnlyWhenEnabled) {
  Tracer off(false);
  { ScopedSpan span(&off, "x"); }
  EXPECT_TRUE(off.Spans().empty());

  Tracer on(true);
  uint64_t parent_id = 0;
  {
    ScopedSpan parent(&on, "parent", 0, 7);
    parent_id = parent.id();
    ScopedSpan child(&on, "child", parent.id(), 7);
  }
  const std::vector<Span> spans = on.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "child");
  EXPECT_EQ(spans[0].parent, parent_id);
  EXPECT_EQ(spans[0].request, 7u);
  EXPECT_EQ(spans[1].name, "parent");
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_EQ(on.Named("child").size(), 1u);
}

}  // namespace
}  // namespace uspbench
