#include "serve/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "metrics_check.h"

namespace targad {
namespace serve {
namespace {

TEST(Pow2HistogramTest, BucketsByPowerOfTwo) {
  Pow2Histogram h;
  h.Record(0);    // Bucket 0: {0}.
  h.Record(1);    // Bucket 1: [1, 2).
  h.Record(2);    // Bucket 2: [2, 4).
  h.Record(3);
  h.Record(4);    // Bucket 3: [4, 8).
  h.Record(100);  // Bucket 7: [64, 128).
  const auto buckets = h.Buckets();
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(buckets[7], 1u);
  EXPECT_EQ(h.Count(), 6u);
}

TEST(Pow2HistogramTest, HugeValuesSaturateLastBucket) {
  Pow2Histogram h;
  h.Record(~uint64_t{0});
  EXPECT_EQ(h.Buckets()[Pow2Histogram::kNumBuckets - 1], 1u);
}

TEST(Pow2HistogramTest, PercentileUpperBounds) {
  Pow2Histogram h;
  EXPECT_EQ(PercentileUpperBound(h.Buckets(), 0.5), 0u);  // Empty.
  // 90 fast samples (~100us bucket [64,128)), 10 slow (~10000us [8192,16384)).
  for (int i = 0; i < 90; ++i) h.Record(100);
  for (int i = 0; i < 10; ++i) h.Record(10'000);
  EXPECT_EQ(PercentileUpperBound(h.Buckets(), 0.50), 128u);
  EXPECT_EQ(PercentileUpperBound(h.Buckets(), 0.90), 128u);
  EXPECT_EQ(PercentileUpperBound(h.Buckets(), 0.95), 16384u);
  EXPECT_EQ(PercentileUpperBound(h.Buckets(), 0.99), 16384u);
  EXPECT_EQ(PercentileUpperBound(h.Buckets(), 1.0), 16384u);

  // The p-quantile is the sample at the nearest rank, ceil(p * N). For
  // {1, 100, 100}, rank ceil(1.5) = 2 is 100, in [64, 128).
  Pow2Histogram three;
  three.Record(1);
  three.Record(100);
  three.Record(100);
  EXPECT_EQ(PercentileUpperBound(three.Buckets(), 0.5), 128u);
  // 0.29 * 100 is 28.999999999999996 in double; the rank is still 29.
  Pow2Histogram hundred;
  for (int i = 0; i < 28; ++i) hundred.Record(1);
  for (int i = 0; i < 72; ++i) hundred.Record(100);
  EXPECT_EQ(PercentileUpperBound(hundred.Buckets(), 0.29), 128u);
  // 0.28 * 25 is 7.000000000000001 in double; the rank is still 7.
  Pow2Histogram twenty_five;
  for (int i = 0; i < 7; ++i) twenty_five.Record(1);
  for (int i = 0; i < 18; ++i) twenty_five.Record(100);
  EXPECT_EQ(PercentileUpperBound(twenty_five.Buckets(), 0.28), 2u);
}

TEST(ServeMetricsTest, CountersAndDerivedFields) {
  ServeMetrics metrics;
  for (int i = 0; i < 10; ++i) metrics.RecordSubmitted();
  metrics.RecordRejected();
  metrics.RecordBatch(6);
  metrics.RecordBatch(4);
  for (int i = 0; i < 9; ++i) metrics.RecordCompleted(100);
  metrics.RecordFailed(50);
  metrics.RecordModelSwap();

  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.requests_submitted, 10u);
  EXPECT_EQ(s.requests_rejected, 1u);
  EXPECT_EQ(s.requests_completed, 9u);
  EXPECT_EQ(s.requests_failed, 1u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.rows_scored, 10u);
  EXPECT_EQ(s.model_swaps, 1u);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 5.0);
  EXPECT_GT(s.latency_p99_us, 0u);
}

// Every row of the serve table renders exactly once, with its own value,
// in the exit report and in the line form the STATS reply appends. Each
// counter and histogram gets a distinct, non-zero value, so a row that
// printed another row's value would not parse back.
TEST(ServeMetricsTest, EveryKeyRendersOnceWithItsValue) {
  ServeMetrics metrics;
  const auto repeat = [](int n, const auto& record) {
    for (int i = 0; i < n; ++i) record();
  };
  repeat(20, [&] { metrics.RecordSubmitted(); });
  repeat(2, [&] { metrics.RecordRejected(); });
  repeat(3, [&] { metrics.RecordModelSwap(); });
  metrics.RecordUnknownModelRows(4);
  for (uint64_t rows : {1, 2, 4, 8, 16, 32, 64}) metrics.RecordBatch(rows);
  repeat(9, [&] { metrics.RecordCompleted(100); });
  repeat(5, [&] { metrics.RecordFailed(3000); });
  repeat(11, [&] { metrics.RecordRegistryHit(); });
  repeat(12, [&] { metrics.RecordRegistryMiss(); });
  repeat(13, [&] { metrics.RecordRegistryEviction(); });
  repeat(14, [&] { metrics.RecordRegistryRefresh(); });
  repeat(6, [&] { metrics.RecordRegistryPoll(/*failed=*/false); });
  repeat(10, [&] { metrics.RecordRegistryPoll(/*failed=*/true); });
  for (uint64_t us = 1; us <= 15; ++us) metrics.RecordRegistryLoad(us * 40);
  metrics.RecordModelRows("alpha", 17, 18);
  metrics.RecordModelRows("beta gamma", 19, 21);

  const MetricsSnapshot s = metrics.Snapshot();
  const std::string report = metrics.Report();
  testing::ExpectEveryRowOnce in_report(report);
  s.ForEach(in_report);
  EXPECT_NE(report.find("\n  model alpha: scored=17 failed=18\n"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("\n  model beta gamma: scored=19 failed=21\n"),
            std::string::npos)
      << report;

  MetricsText line(MetricsText::Layout::kLine);
  s.ForEach(line);
  testing::ExpectEveryRowOnce in_line(line.str());
  s.ForEach(in_line);
  // The line holds the table's rows and nothing else: no per-model rows.
  EXPECT_EQ(testing::MetricValues(line.str()).size(), in_line.rows());
  EXPECT_EQ(line.str().find('\n'), std::string::npos);
}

TEST(ServeMetricsTest, ConcurrentRecordingLosesNothing) {
  ServeMetrics metrics;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        metrics.RecordSubmitted();
        metrics.RecordCompleted(static_cast<uint64_t>(i % 1000));
      }
    });
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.requests_submitted, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(s.requests_completed, uint64_t{kThreads} * kPerThread);
  uint64_t histogram_total = 0;
  for (uint64_t b : s.latency_buckets) histogram_total += b;
  EXPECT_EQ(histogram_total, uint64_t{kThreads} * kPerThread);
}

}  // namespace
}  // namespace serve
}  // namespace targad
