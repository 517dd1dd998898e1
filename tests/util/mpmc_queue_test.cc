#include "src/util/mpmc_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bouncer {
namespace {

TEST(MpmcQueueTest, PushPopSingleThreadFifo) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(int{i}));
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.TryPop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.TryPop(out));
}

TEST(MpmcQueueTest, CapacityRoundsUpToPowerOfTwo) {
  MpmcQueue<int> q(100);
  EXPECT_EQ(q.capacity(), 128u);
  MpmcQueue<int> q2(1);
  EXPECT_EQ(q2.capacity(), 2u);
  MpmcQueue<int> q3(64);
  EXPECT_EQ(q3.capacity(), 64u);
}

TEST(MpmcQueueTest, RejectsPushWhenFull) {
  MpmcQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(int{i}));
  EXPECT_FALSE(q.TryPush(99));
  int out = -1;
  ASSERT_TRUE(q.TryPop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(q.TryPush(99));  // Slot freed by the pop.
}

TEST(MpmcQueueTest, FailedPushLeavesValueIntact) {
  MpmcQueue<std::vector<int>> q(2);
  EXPECT_TRUE(q.TryPush(std::vector<int>{1}));
  EXPECT_TRUE(q.TryPush(std::vector<int>{2}));
  std::vector<int> v{3, 4, 5};
  EXPECT_FALSE(q.TryPush(std::move(v)));
  EXPECT_EQ(v.size(), 3u);  // Not moved from on failure.
}

TEST(MpmcQueueTest, MoveOnlyPayload) {
  MpmcQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.TryPush(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.TryPop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

/// Tagged value: producer id in the high bits, per-producer sequence in
/// the low bits, so consumers can verify both provenance and order.
constexpr uint64_t Tag(uint64_t producer, uint64_t seq) {
  return (producer << 32) | seq;
}

// The stress contract of the ring under full MPMC contention: every
// pushed value is popped exactly once (no loss, no duplication), and the
// values of any single producer come out in that producer's push order.
TEST(MpmcQueueStressTest, NoLossNoDupFifoPerProducer) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr uint64_t kPerProducer = 50'000;
  MpmcQueue<uint64_t> q(1024);

  std::atomic<uint64_t> popped_total{0};
  // consumer x producer -> last sequence seen, for per-producer FIFO.
  std::vector<std::vector<int64_t>> last_seen(
      kConsumers, std::vector<int64_t>(kProducers, -1));
  std::vector<std::vector<uint8_t>> seen(
      kProducers, std::vector<uint8_t>(kPerProducer, 0));
  std::atomic<bool> fifo_violated{false};
  std::mutex seen_mu;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (uint64_t s = 0; s < kPerProducer; ++s) {
        while (!q.TryPush(Tag(static_cast<uint64_t>(p), s))) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      uint64_t value = 0;
      while (popped_total.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (!q.TryPop(value)) {
          std::this_thread::yield();
          continue;
        }
        popped_total.fetch_add(1, std::memory_order_relaxed);
        const auto producer = static_cast<int>(value >> 32);
        const auto seq = static_cast<int64_t>(value & 0xffffffffu);
        if (seq <= last_seen[c][producer]) fifo_violated.store(true);
        last_seen[c][producer] = seq;
        std::lock_guard<std::mutex> lock(seen_mu);
        seen[producer][static_cast<size_t>(seq)]++;
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped_total.load(), kProducers * kPerProducer);
  EXPECT_FALSE(fifo_violated.load())
      << "a consumer observed one producer's values out of order";
  for (int p = 0; p < kProducers; ++p) {
    for (uint64_t s = 0; s < kPerProducer; ++s) {
      ASSERT_EQ(seen[p][s], 1) << "producer " << p << " seq " << s
                               << " popped " << int{seen[p][s]} << " times";
    }
  }
}

// Producers blocked on a full ring make progress as consumers free slots.
TEST(MpmcQueueStressTest, FullRingBackpressure) {
  MpmcQueue<uint64_t> q(4);
  constexpr uint64_t kTotal = 20'000;
  std::thread producer([&q] {
    for (uint64_t i = 0; i < kTotal; ++i) {
      while (!q.TryPush(uint64_t{i})) std::this_thread::yield();
    }
  });
  uint64_t next = 0;
  uint64_t value = 0;
  while (next < kTotal) {
    if (q.TryPop(value)) {
      ASSERT_EQ(value, next);  // Single producer + single consumer: FIFO.
      ++next;
    }
  }
  producer.join();
  EXPECT_FALSE(q.TryPop(value));
}

TEST(ParkingLotTest, NotifyWakesParkedThread) {
  ParkingLot lot;
  std::atomic<bool> ready{false};
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    lot.ParkUnless([&] { return ready.load(); });
    woke.store(true);
  });
  // Let the thread park (best-effort; the backstop timeout keeps this
  // test deterministic even if it has not parked yet).
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ready.store(true);
  lot.NotifyOne();
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

/// NotifyN(2) with four parked threads wakes two of them. A parked
/// thread also returns on the 10 ms backstop, so an attempt only counts
/// when its wake count was read before the first thread's backstop could
/// fire; a slow attempt is retried. NotifyAll would wake all four in
/// every attempt that counts.
TEST(ParkingLotTest, NotifyNWakesAtMostN) {
  using Clock = std::chrono::steady_clock;
  constexpr int kThreads = 4;
  constexpr int kWake = 2;
  bool measured = false;
  for (int attempt = 0; attempt < 50 && !measured; ++attempt) {
    ParkingLot lot;
    std::atomic<int> parked{0};
    std::atomic<int> woke{0};
    std::atomic<int64_t> first_park_ns{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        lot.ParkUnless([&] {
          // Runs under the lot's mutex, which the thread holds until it
          // waits: once `parked` reads kThreads, every thread is waiting.
          if (parked.fetch_add(1) == 0) {
            first_park_ns.store(Clock::now().time_since_epoch().count());
          }
          return false;
        });
        woke.fetch_add(1);
      });
    }
    while (parked.load() < kThreads) std::this_thread::yield();
    const Clock::time_point backstop =
        Clock::time_point(Clock::duration(first_park_ns.load())) +
        ParkingLot::kParkBackstop;
    const Clock::time_point read_at = backstop - ParkingLot::kParkBackstop / 4;
    lot.NotifyN(kWake);
    while (woke.load() < kThreads && Clock::now() < read_at) {
      std::this_thread::yield();
    }
    const int woken = woke.load();
    if (Clock::now() < backstop && woken >= kWake) {
      measured = true;
      EXPECT_EQ(woken, kWake) << "attempt " << attempt;
    }
    for (std::thread& t : threads) t.join();  // The rest time out.
  }
  EXPECT_TRUE(measured) << "no attempt finished inside the backstop window";
}

TEST(ParkingLotTest, RecheckSkipsPark) {
  ParkingLot lot;
  // Condition already true: ParkUnless must return without any notify.
  lot.ParkUnless([] { return true; });
  SUCCEED();
}

}  // namespace
}  // namespace bouncer
