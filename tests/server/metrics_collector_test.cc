#include "src/server/metrics_collector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/util/rng.h"

namespace bouncer::server {
namespace {

WorkItem ItemWithTimes(QueryTypeId type, Nanos wait, Nanos processing) {
  WorkItem item;
  item.type = type;
  item.enqueued = kSecond;
  item.dequeued = item.enqueued + wait;
  item.completed = item.dequeued + processing;
  return item;
}

TEST(MetricsCollectorTest, RecordsCompletion) {
  MetricsCollector collector(3);
  collector.Record(ItemWithTimes(1, 2 * kMillisecond, 8 * kMillisecond),
                   Outcome::kCompleted);
  const auto report = collector.Report(1);
  EXPECT_EQ(report.received, 1u);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_DOUBLE_EQ(report.rt_p50_ms, 10.0);
  EXPECT_DOUBLE_EQ(report.pt_p50_ms, 8.0);
}

TEST(MetricsCollectorTest, RecordsRejectionWithoutSamples) {
  MetricsCollector collector(3);
  collector.Record(ItemWithTimes(1, 0, 0), Outcome::kRejected);
  const auto report = collector.Report(1);
  EXPECT_EQ(report.received, 1u);
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_DOUBLE_EQ(report.rejection_pct, 100.0);
}

TEST(MetricsCollectorTest, SheddedCountsAsRejected) {
  MetricsCollector collector(3);
  collector.Record(ItemWithTimes(1, 0, 0), Outcome::kShedded);
  EXPECT_EQ(collector.Report(1).rejected, 1u);
}

TEST(MetricsCollectorTest, ExpiredTrackedSeparately) {
  MetricsCollector collector(3);
  collector.Record(ItemWithTimes(1, 0, 0), Outcome::kExpired);
  const auto report = collector.Report(1);
  EXPECT_EQ(report.expired, 1u);
  EXPECT_EQ(report.rejected, 0u);
}

TEST(MetricsCollectorTest, RecordingToggle) {
  MetricsCollector collector(3);
  collector.SetRecording(false);
  collector.Record(ItemWithTimes(1, 0, kMillisecond), Outcome::kCompleted);
  EXPECT_EQ(collector.Report(1).received, 0u);
  collector.SetRecording(true);
  collector.Record(ItemWithTimes(1, 0, kMillisecond), Outcome::kCompleted);
  EXPECT_EQ(collector.Report(1).received, 1u);
}

TEST(MetricsCollectorTest, OutOfRangeTypeIgnored) {
  MetricsCollector collector(2);
  collector.Record(ItemWithTimes(9, 0, 0), Outcome::kCompleted);
  EXPECT_EQ(collector.Overall().received, 0u);
}

TEST(MetricsCollectorTest, OverallAggregates) {
  MetricsCollector collector(3);
  collector.Record(ItemWithTimes(1, 0, 2 * kMillisecond),
                   Outcome::kCompleted);
  collector.Record(ItemWithTimes(2, 0, 4 * kMillisecond),
                   Outcome::kCompleted);
  collector.Record(ItemWithTimes(2, 0, 0), Outcome::kRejected);
  const auto overall = collector.Overall();
  EXPECT_EQ(overall.received, 3u);
  EXPECT_EQ(overall.completed, 2u);
  EXPECT_NEAR(overall.rejection_pct, 100.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(overall.rt_mean_ms, 3.0);
}

TEST(MetricsCollectorTest, SnapshotsNeverTornUnderConcurrentRecording) {
  // Record() bumps the outcome counter before `received` (release), and
  // readers load `received` first (acquire); a snapshot must therefore
  // never show more received than the per-outcome counters explain —
  // for any type and for the Overall() aggregate — no matter how the
  // reader interleaves with the writers. At quiescence the counts match
  // exactly.
  constexpr size_t kTypes = 4;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 50'000;
  MetricsCollector collector(kTypes + 1);
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&collector, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const auto type = static_cast<QueryTypeId>(1 + (i + w) % kTypes);
        const auto outcome = static_cast<Outcome>(i % 4);
        collector.Record(ItemWithTimes(type, kMillisecond, kMillisecond),
                         outcome);
      }
    });
  }

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (QueryTypeId type = 1; type <= kTypes; ++type) {
        const auto report = collector.Report(type);
        // kShedded folds into `rejected`, so these four outcome buckets
        // partition every recorded item.
        ASSERT_LE(report.received,
                  report.completed + report.rejected + report.expired)
            << "torn per-type snapshot";
      }
      const auto overall = collector.Overall();
      ASSERT_LE(overall.received,
                overall.completed + overall.rejected + overall.expired)
          << "torn overall snapshot";
    }
  });

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const auto overall = collector.Overall();
  const uint64_t total = kWriters * kPerWriter;
  EXPECT_EQ(overall.received, total);
  EXPECT_EQ(overall.completed + overall.rejected + overall.expired, total);
  // Outcome::kCompleted/kRejected/kExpired/kShedded each got total/4, and
  // shedded folds into rejected.
  EXPECT_EQ(overall.completed, total / 4);
  EXPECT_EQ(overall.rejected, total / 2);
  EXPECT_EQ(overall.expired, total / 4);
}

TEST(MetricsCollectorTest, BusyMsIsExactProcessingTimeSum) {
  // BusyMs() must come from the exactly-accumulated nanosecond sum, not
  // mean * count: many odd-valued samples would accumulate double
  // rounding error through the mean while the integer sum stays exact.
  MetricsCollector collector(2);
  constexpr int kItems = 10'000;
  constexpr Nanos kProcessing = 123'457;  // Odd ns, not ms-aligned.
  for (int i = 0; i < kItems; ++i) {
    collector.Record(ItemWithTimes(1, kMicrosecond, kProcessing),
                     Outcome::kCompleted);
  }
  const auto report = collector.Report(1);
  EXPECT_EQ(report.pt_total_ns, static_cast<int64_t>(kItems) * kProcessing);
  EXPECT_DOUBLE_EQ(report.BusyMs(),
                   static_cast<double>(kItems) * kProcessing / 1e6);
  // Non-completed outcomes charge no busy time.
  collector.Record(ItemWithTimes(1, 0, kSecond), Outcome::kRejected);
  EXPECT_EQ(collector.Report(1).pt_total_ns,
            static_cast<int64_t>(kItems) * kProcessing);
  // The overall aggregate sums the per-type exact sums.
  EXPECT_DOUBLE_EQ(collector.Overall().BusyMs(), report.BusyMs());
}

TEST(MetricsCollectorTest, ResetClears) {
  MetricsCollector collector(2);
  collector.Record(ItemWithTimes(1, 0, kMillisecond), Outcome::kCompleted);
  collector.Reset();
  EXPECT_EQ(collector.Overall().received, 0u);
  EXPECT_DOUBLE_EQ(collector.Report(1).rt_p50_ms, 0.0);
}

// One pooled row pinned to the bit: the percentiles are order statistics
// and the means sum each type's samples in recording order.
TEST(MetricsCollectorTest, OverallRowPinnedToTheBit) {
  MetricsCollector collector(3);
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    WorkItem item;
    item.type = static_cast<QueryTypeId>(rng.NextU64() % 3);
    item.enqueued = kSecond;
    item.dequeued =
        item.enqueued + static_cast<Nanos>(rng.NextExponential(2e6));
    item.completed =
        item.dequeued + static_cast<Nanos>(rng.NextExponential(5e6));
    collector.Record(item, rng.NextU64() % 10 == 0 ? Outcome::kRejected
                                                   : Outcome::kCompleted);
  }
  const auto overall = collector.Overall();
  EXPECT_EQ(overall.received, 5000u);
  EXPECT_EQ(overall.rejected, 519u);
  EXPECT_EQ(overall.rt_mean_ms, 6.8887815440749707);
  EXPECT_EQ(overall.rt_p50_ms, 5.5347780000000002);
  EXPECT_EQ(overall.rt_p90_ms, 13.757728999999999);
  EXPECT_EQ(overall.rt_p99_ms, 25.632028999999999);
  EXPECT_EQ(overall.pt_mean_ms, 4.9061066793126438);
  EXPECT_EQ(overall.pt_p50_ms, 3.4600970000000002);
  EXPECT_EQ(overall.pt_p90_ms, 11.186029);
}

}  // namespace
}  // namespace bouncer::server
