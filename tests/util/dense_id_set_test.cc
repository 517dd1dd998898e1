#include "src/util/dense_id_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/util/rng.h"

namespace bouncer {
namespace {

std::vector<uint32_t> Members(DenseIdSet& set, size_t max_ids = SIZE_MAX) {
  std::vector<uint32_t> out;
  set.AppendTo(max_ids, &out);
  return out;
}

std::vector<uint32_t> Sorted(std::vector<uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(DenseIdSetTest, EmptyInput) {
  DenseIdSet set;
  set.Reset(1000);
  set.InsertAll({});
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(Members(set).empty());
  EXPECT_TRUE(Members(set, 0).empty());
  EXPECT_FALSE(set.Contains(0));
}

TEST(DenseIdSetTest, DuplicateHeavyInputKeepsEachIdOnce) {
  DenseIdSet set;
  set.Reset(1000);
  std::vector<uint32_t> ids;
  for (int round = 0; round < 50; ++round) {
    for (uint32_t id : {7u, 999u, 0u, 7u, 500u}) ids.push_back(id);
  }
  set.InsertAll(ids);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_EQ(Sorted(Members(set)), (std::vector<uint32_t>{0, 7, 500, 999}));
}

TEST(DenseIdSetTest, CapThatDoesNotBiteEmitsEveryMember) {
  DenseIdSet set;
  set.Reset(1000);
  const std::vector<uint32_t> ids = {900, 3, 64, 3, 128, 900};
  set.InsertAll(ids);
  EXPECT_EQ(Sorted(Members(set, 4)), (std::vector<uint32_t>{3, 64, 128, 900}));
  EXPECT_EQ(Sorted(Members(set, 5)), (std::vector<uint32_t>{3, 64, 128, 900}));
}

TEST(DenseIdSetTest, CapThatBitesKeepsTheSmallestInAscendingOrder) {
  DenseIdSet set;
  set.Reset(1000);
  // Touched words in descending order, so touch order is not id order.
  const std::vector<uint32_t> ids = {999, 700, 640, 200, 130, 129, 5, 700};
  set.InsertAll(ids);
  EXPECT_EQ(Members(set, 4), (std::vector<uint32_t>{5, 129, 130, 200}));
  EXPECT_EQ(Members(set, 1), (std::vector<uint32_t>{5}));
  EXPECT_TRUE(Members(set, 0).empty());
}

TEST(DenseIdSetTest, IdsAcrossAWordBoundary) {
  DenseIdSet set;
  set.Reset(130);
  const std::vector<uint32_t> ids = {65, 63, 64, 64, 63};
  set.InsertAll(ids);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.Contains(63));
  EXPECT_TRUE(set.Contains(64));
  EXPECT_TRUE(set.Contains(65));
  EXPECT_FALSE(set.Contains(62));
  EXPECT_FALSE(set.Contains(66));
  EXPECT_EQ(Sorted(Members(set)), (std::vector<uint32_t>{63, 64, 65}));
  EXPECT_EQ(Members(set, 2), (std::vector<uint32_t>{63, 64}));
}

TEST(DenseIdSetTest, ReuseAcrossCallsLeavesNoStaleBit) {
  DenseIdSet set;
  set.Reset(4096);
  const std::vector<uint32_t> first = {1, 63, 64, 2000, 4095};
  set.InsertAll(first);
  (void)Members(set, 2);  // Cap bites: sorts the touched list.
  set.Reset(4096);
  for (const uint32_t id : first) EXPECT_FALSE(set.Contains(id)) << id;
  EXPECT_EQ(set.size(), 0u);
  const std::vector<uint32_t> second = {2, 65};
  set.InsertAll(second);
  EXPECT_EQ(Sorted(Members(set)), (std::vector<uint32_t>{2, 65}));
  // A smaller universe after a larger one must not see the old words.
  set.Reset(70);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(2));
}

TEST(DenseIdSetTest, InsertReportsNewMembers) {
  DenseIdSet set;
  set.Reset(200);
  EXPECT_TRUE(set.Insert(100));
  EXPECT_FALSE(set.Insert(100));
  EXPECT_TRUE(set.Insert(101));
  EXPECT_TRUE(set.Insert(5000));  // Outside the universe.
  EXPECT_FALSE(set.Insert(5000));
  EXPECT_EQ(set.size(), 3u);
}

TEST(DenseIdSetTest, IdsOutsideTheUniverseAreMembersWithoutSizingTheSet) {
  DenseIdSet set;
  set.Reset(100);
  const std::vector<uint32_t> ids = {0xFFFFFFF0u, 99, 100, 0xFFFFFFF0u,
                                     0xFFFFFFFFu, 1};
  set.InsertAll(ids);
  EXPECT_EQ(set.size(), 5u);
  EXPECT_TRUE(set.Contains(0xFFFFFFF0u));
  EXPECT_TRUE(set.Contains(100));
  EXPECT_FALSE(set.Contains(101));
  EXPECT_EQ(Sorted(Members(set)),
            (std::vector<uint32_t>{1, 99, 100, 0xFFFFFFF0u, 0xFFFFFFFFu}));
  // Out-of-universe ids are larger than any id in the bit array, so they
  // come last in the smallest-k cut.
  EXPECT_EQ(Members(set, 3), (std::vector<uint32_t>{1, 99, 100}));
  set.Reset(100);
  EXPECT_FALSE(set.Contains(0xFFFFFFF0u));
  EXPECT_EQ(set.size(), 0u);
}

TEST(DenseIdSetTest, MatchesStdSetOnRandomInput) {
  DenseIdSet set;
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const auto universe = static_cast<uint32_t>(1 + rng.NextBounded(5000));
    set.Reset(universe);
    std::set<uint32_t> reference;
    const size_t batches = rng.NextBounded(4);
    for (size_t b = 0; b < batches; ++b) {
      std::vector<uint32_t> ids(rng.NextBounded(600));
      for (uint32_t& id : ids) {
        // Mostly inside the universe, a few past it.
        id = static_cast<uint32_t>(rng.NextBounded(universe + universe / 50));
      }
      set.InsertAll(ids);
      reference.insert(ids.begin(), ids.end());
    }
    ASSERT_EQ(set.size(), reference.size()) << trial;
    const size_t cap = rng.NextBounded(reference.size() + 2);
    const std::vector<uint32_t> out = Members(set, cap);
    std::vector<uint32_t> expected(reference.begin(), reference.end());
    if (expected.size() > cap) {
      expected.resize(cap);
      EXPECT_EQ(out, expected) << trial;  // Ascending smallest-k.
    } else {
      EXPECT_EQ(Sorted(out), expected) << trial;
    }
  }
}

}  // namespace
}  // namespace bouncer
