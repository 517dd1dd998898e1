#include "src/stats/dual_histogram.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace bouncer::stats {
namespace {

DualHistogram::Options TestOptions(Nanos interval = kSecond,
                                   uint64_t min_samples = 1) {
  return DualHistogram::Options{interval, min_samples};
}

TEST(DualHistogramTest, EmptyBeforeFirstSwap) {
  DualHistogram h(TestOptions());
  h.Record(5 * kMillisecond);
  EXPECT_TRUE(h.ReadSummary().empty());  // Not yet published.
}

TEST(DualHistogramTest, SamplesVisibleAfterSwap) {
  DualHistogram h(TestOptions());
  h.Record(5 * kMillisecond);
  h.Record(7 * kMillisecond);
  h.ForceSwap();
  const HistogramSummary s = h.ReadSummary();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.mean, 6 * kMillisecond);
}

TEST(DualHistogramTest, MaybeSwapRespectsInterval) {
  DualHistogram h(TestOptions(kSecond));
  h.Record(100);
  EXPECT_FALSE(h.MaybeSwap(10));  // First call arms the timer.
  EXPECT_FALSE(h.MaybeSwap(kSecond - 1));
  EXPECT_TRUE(h.MaybeSwap(kSecond + 10));  // First period elapsed.
  EXPECT_FALSE(h.MaybeSwap(kSecond + 11));
  EXPECT_FALSE(h.MaybeSwap(2 * kSecond + 9));
  EXPECT_TRUE(h.MaybeSwap(2 * kSecond + 11));
}

TEST(DualHistogramTest, SwapRotatesBuffers) {
  DualHistogram h(TestOptions());
  h.Record(1 * kMillisecond);
  h.ForceSwap();
  h.Record(9 * kMillisecond);
  h.ForceSwap();
  // Second window only.
  EXPECT_EQ(h.ReadSummary().mean, 9 * kMillisecond);
  h.ForceSwap();
  // Third window is empty; retention keeps the last published summary.
  EXPECT_EQ(h.ReadSummary().mean, 9 * kMillisecond);
}

TEST(DualHistogramTest, StaleRetentionBelowMinSamples) {
  DualHistogram h(TestOptions(kSecond, /*min_samples=*/10));
  for (int i = 0; i < 20; ++i) h.Record(2 * kMillisecond);
  h.ForceSwap();
  EXPECT_EQ(h.ReadSummary().count, 20u);
  // Only 3 samples this window: below threshold, previous summary stays.
  h.Record(50 * kMillisecond);
  h.Record(50 * kMillisecond);
  h.Record(50 * kMillisecond);
  h.ForceSwap();
  const HistogramSummary s = h.ReadSummary();
  EXPECT_EQ(s.count, 20u);
  EXPECT_EQ(s.mean, 2 * kMillisecond);
}

TEST(DualHistogramTest, PublishesWhenAtThreshold) {
  DualHistogram h(TestOptions(kSecond, /*min_samples=*/3));
  h.Record(1);
  h.Record(1);
  h.Record(1);
  h.ForceSwap();
  EXPECT_EQ(h.ReadSummary().count, 3u);
}

TEST(DualHistogramTest, ActiveCountTracksCurrentBuffer) {
  DualHistogram h(TestOptions());
  h.Record(1);
  h.Record(1);
  EXPECT_EQ(h.ActiveCount(), 2u);
  h.ForceSwap();
  EXPECT_EQ(h.ActiveCount(), 0u);
}

TEST(DualHistogramTest, SwapCountIncrements) {
  DualHistogram h(TestOptions());
  EXPECT_EQ(h.SwapCount(), 0u);
  h.ForceSwap();
  h.ForceSwap();
  EXPECT_EQ(h.SwapCount(), 2u);
}

TEST(DualHistogramTest, OnlyOneThreadWinsTimedSwap) {
  DualHistogram h(TestOptions(kSecond));
  h.Record(1);
  EXPECT_FALSE(h.MaybeSwap(0));  // Arm the timer.
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      if (h.MaybeSwap(5 * kSecond)) wins.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wins.load(), 1);
}

TEST(DualHistogramTest, ConcurrentRecordAndRead) {
  DualHistogram h(TestOptions(kMillisecond));
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Nanos now = 0;
    while (!stop.load()) {
      for (int i = 0; i < 100; ++i) h.Record(3 * kMillisecond);
      now += kMillisecond;
      h.MaybeSwap(now);
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const HistogramSummary s = h.ReadSummary();
    if (s.count > 0) {
      // A consistent summary of identical samples: mean == p50 bucket-ish.
      EXPECT_EQ(s.mean, 3 * kMillisecond);
    }
  }
  stop.store(true);
  writer.join();
}

// Several reader threads hammering ReadSummary() while one dedicated
// swapper rotates buffers (and a recorder keeps feeding samples): every
// summary observed must be internally consistent — identical samples, so
// any published summary has the one true mean. Exercises the seqlock
// publication path against the swap path specifically.
TEST(DualHistogramTest, ConcurrentReadersVersusSwapper) {
  DualHistogram h(TestOptions(kMillisecond));
  std::atomic<bool> stop{false};
  std::thread recorder([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 64; ++i) h.Record(3 * kMillisecond);
    }
  });
  std::thread swapper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      h.ForceSwap();
      std::this_thread::yield();
    }
  });
  // Each reader does at least 30k reads and keeps reading until the
  // swapper has swapped a few times, so the reads really race swaps even
  // when the swapper thread starts late (the deadline turns a swapper
  // that never runs into the SwapCount failure below, not a hang).
  constexpr uint64_t kMinSwaps = 4;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto reads_done = [&](int reads) {
    return reads >= 30'000 && (h.SwapCount() >= kMinSwaps ||
                               std::chrono::steady_clock::now() >= deadline);
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; !reads_done(i); ++i) {
        const HistogramSummary s = h.ReadSummary();
        if (s.count > 0) {
          // Identical samples: any published summary must stay near the
          // one true value. Swaps wait out in-flight Record() calls, so
          // count and sum never skew apart; a torn or corrupted summary
          // would land far outside these bounds.
          ASSERT_GE(s.mean, 2 * kMillisecond);
          ASSERT_LE(s.mean, 4 * kMillisecond);
          // p50 interpolates within the bucket by rank, so it can move
          // between windows — but never outside the sample's bucket.
          ASSERT_GE(s.p50, 2 * kMillisecond);
          ASSERT_LE(s.p50, 4 * kMillisecond);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  recorder.join();
  swapper.join();
  EXPECT_GT(h.SwapCount(), 0u);
}

// ForceSwap from many threads at once must keep the swap counter exact
// and the pacing timer race-free (regression: the timer push-out used to
// be a racy read-modify-write).
TEST(DualHistogramTest, ConcurrentForceSwapKeepsCountExact) {
  DualHistogram h(TestOptions(kSecond));
  constexpr int kThreads = 4;
  constexpr uint64_t kSwapsPerThread = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kSwapsPerThread; ++i) h.ForceSwap();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.SwapCount(), kThreads * kSwapsPerThread);
}

// Timed and forced swaps racing each other, every one of them publishing
// (min_samples_to_publish = 0), must never leave the seqlock version odd:
// a reader would then spin in ReadSummary() forever (regression: two
// interleaved publishers could do exactly that).
TEST(DualHistogramTest, ConcurrentPublishersNeverWedgeReaders) {
  DualHistogram h(TestOptions(kMillisecond, /*min_samples=*/0));
  std::atomic<Nanos> clock{kSecond};
  constexpr int kPublishers = 4;
  constexpr int kSwapsPerPublisher = 20'000;
  std::atomic<int> publishers_left{kPublishers};
  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&, p] {
      for (int i = 0; i < kSwapsPerPublisher; ++i) {
        h.Record((1 + (i % 7)) * kMillisecond);
        if ((i + p) % 2 == 0) {
          h.ForceSwap();
        } else {
          // Each call jumps the clock far past the swap deadline.
          h.MaybeSwap(clock.fetch_add(kSecond) + kSecond);
        }
      }
      publishers_left.fetch_sub(1);
    });
  }

  std::mutex mu;
  std::condition_variable cv;
  bool reader_done = false;
  std::thread reader([&] {
    uint64_t reads = 0;
    // Keep reading until every publisher is done, then once more.
    while (publishers_left.load() > 0 || reads == 0) {
      const HistogramSummary s = h.ReadSummary();
      if (s.count > 0) {
        EXPECT_LE(s.p50, s.p90);
        EXPECT_LE(s.p90, s.p99);
      }
      ++reads;
    }
    h.ReadSummary();
    std::lock_guard<std::mutex> lock(mu);
    reader_done = true;
    cv.notify_one();
  });

  for (auto& t : publishers) t.join();
  bool finished = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    finished = cv.wait_for(lock, std::chrono::seconds(30),
                           [&] { return reader_done; });
  }
  if (!finished) {
    // The reader is stuck inside ReadSummary() on an odd version and can
    // never be joined: end the run as a failure instead of hanging.
    std::fprintf(stderr, "ReadSummary() wedged after concurrent swaps\n");
    std::fflush(stderr);
    std::_Exit(1);
  }
  reader.join();
  // Every ForceSwap() swaps; a timed swap can lose its CAS to another.
  EXPECT_GE(h.SwapCount(), kPublishers * kSwapsPerPublisher / 2u);
}

}  // namespace
}  // namespace bouncer::stats
