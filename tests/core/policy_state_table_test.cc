#include "src/core/policy_state_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace bouncer {
namespace {

struct Counter {
  std::atomic<uint64_t> value{0};
};

TEST(PolicyStateTableTest, CellsStartZeroAndAreAddressedByTenantAndType) {
  PolicyStateTable<Counter> table(/*num_types=*/3);
  EXPECT_EQ(table.num_types(), 3u);
  table.At(5, 2).value.store(42);
  table.At(5, 1).value.store(7);
  EXPECT_EQ(table.At(5, 2).value.load(), 42u);
  EXPECT_EQ(table.At(5, 1).value.load(), 7u);
  EXPECT_EQ(table.At(5, 0).value.load(), 0u);
  EXPECT_EQ(table.At(6, 2).value.load(), 0u);
}

TEST(PolicyStateTableTest, FindNeverAllocates) {
  PolicyStateTable<Counter> table(/*num_types=*/2, /*base_tenants=*/4);
  // Chunk for tenant 1000 not allocated yet.
  EXPECT_EQ(table.Find(1000, 1), nullptr);
  table.At(1000, 1).value.store(9);
  const Counter* cell = table.Find(1000, 1);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->value.load(), 9u);
}

TEST(PolicyStateTableTest, CellAddressesAreStableAcrossGrowth) {
  // The whole point of the chunked slab: a cell's address must never
  // change after first touch, no matter how many tenants arrive later.
  PolicyStateTable<Counter> table(/*num_types=*/2, /*base_tenants=*/2);
  Counter* early = &table.At(0, 1);
  early->value.store(11);
  for (TenantId t = 1; t < 5'000; ++t) {
    (void)table.At(t, 0);
  }
  EXPECT_EQ(early, &table.At(0, 1));
  EXPECT_EQ(early->value.load(), 11u);
}

TEST(PolicyStateTableTest, DoublingChunksCoverSparseHighIndices) {
  PolicyStateTable<Counter> table(/*num_types=*/1, /*base_tenants=*/2);
  // Touch tenants around every chunk boundary of a base-2 slab.
  const TenantId probes[] = {0, 1, 2, 3, 4, 7, 8, 15, 16, 1023, 1024, 100'000};
  for (size_t i = 0; i < std::size(probes); ++i) {
    table.At(probes[i]).value.store(i + 1);
  }
  for (size_t i = 0; i < std::size(probes); ++i) {
    EXPECT_EQ(table.At(probes[i]).value.load(), i + 1) << probes[i];
  }
  // Distinct tenants get distinct cells.
  for (size_t i = 0; i < std::size(probes); ++i) {
    for (size_t j = i + 1; j < std::size(probes); ++j) {
      EXPECT_NE(&table.At(probes[i]), &table.At(probes[j]));
    }
  }
}

TEST(PolicyStateTableTest, ConcurrentFirstTouchPublishesOneChunk) {
  // All threads hammer counters across a fresh table's chunk range; the
  // CAS publication means every thread lands on the same cells and no
  // increment is lost (run under TSan in CI).
  PolicyStateTable<Counter> table(/*num_types=*/1, /*base_tenants=*/8);
  constexpr size_t kThreads = 8;
  constexpr size_t kTenants = 4'096;
  constexpr size_t kRounds = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t tenant = 0; tenant < kTenants; ++tenant) {
          table.At(static_cast<TenantId>(tenant))
              .value.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t tenant = 0; tenant < kTenants; ++tenant) {
    EXPECT_EQ(table.At(static_cast<TenantId>(tenant)).value.load(),
              kThreads * kRounds)
        << tenant;
  }
}

}  // namespace
}  // namespace bouncer
