#include "src/stats/summary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/rng.h"

namespace bouncer::stats {
namespace {

/// Sort-then-index nearest rank: the definition selection must match.
double SortedNearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(values.size()))));
  return values[rank - 1];
}

/// `n` seeded samples; with `distinct` > 0 they take only that many
/// values, so most ranks fall inside long runs of duplicates.
std::vector<double> RandomSamples(Rng& rng, size_t n, uint64_t distinct) {
  std::vector<double> values(n);
  for (double& v : values) {
    v = distinct > 0 ? static_cast<double>(rng.NextBounded(distinct))
                     : rng.NextExponential(10.0);
  }
  return values;
}

SampleSummary SummaryOf(const std::vector<double>& values) {
  SampleSummary s;
  for (double v : values) s.Add(v);
  return s;
}

TEST(SampleSummaryTest, Empty) {
  SampleSummary s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.Max(), 0.0);
  EXPECT_DOUBLE_EQ(s.FractionAbove(1.0), 0.0);
}

TEST(SampleSummaryTest, MeanAndCount) {
  SampleSummary s;
  s.Add(1.0);
  s.Add(2.0);
  s.Add(3.0);
  EXPECT_EQ(s.Count(), 3u);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.0);
}

TEST(SampleSummaryTest, NearestRankPercentiles) {
  SampleSummary s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.9), 90.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 100.0);
}

TEST(SampleSummaryTest, SingleSampleAllPercentiles) {
  SampleSummary s;
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.01), 7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.99), 7.0);
}

TEST(SampleSummaryTest, AddAfterPercentileResorts) {
  SampleSummary s;
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 10.0);
  s.Add(1.0);
  s.Add(2.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 2.0);
}

TEST(SampleSummaryTest, Max) {
  SampleSummary s;
  s.Add(3.0);
  s.Add(9.0);
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(SampleSummaryTest, FractionAboveStrict) {
  SampleSummary s;
  s.Add(1.0);
  s.Add(2.0);
  s.Add(3.0);
  s.Add(4.0);
  EXPECT_DOUBLE_EQ(s.FractionAbove(2.0), 0.5);  // 3 and 4.
  EXPECT_DOUBLE_EQ(s.FractionAbove(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.FractionAbove(4.0), 0.0);
}

TEST(SampleSummaryTest, ClearResets) {
  SampleSummary s;
  s.Add(5.0);
  s.Clear();
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 0.0);
}

TEST(SampleSummaryTest, PercentilesEmptyAndEmptyList) {
  SampleSummary s;
  EXPECT_EQ(s.Percentiles({0.0, 0.5, 1.0}), std::vector<double>(3, 0.0));
  s.Add(4.0);
  EXPECT_TRUE(s.Percentiles({}).empty());
}

TEST(SampleSummaryTest, SelectionMatchesSortedNearestRank) {
  Rng rng(2024);
  const std::vector<double> kQs = {0.0, 0.001, 0.25, 0.5,  0.9,
                                   0.99, 0.999, 1.0,  -0.5, 1.5};
  std::vector<size_t> sizes = {1, 2, 3, 4, 5, 7, 10, 99, 100, 101, 1000,
                               10'000};
  for (int i = 0; i < 20; ++i) sizes.push_back(1 + rng.NextBounded(10'000));
  for (const uint64_t distinct : {0u, 1u, 3u, 50u}) {
    for (const size_t n : sizes) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " distinct=" << distinct);
      const std::vector<double> values = RandomSamples(rng, n, distinct);
      std::vector<double> qs = kQs;
      qs.push_back(rng.NextDouble());
      // One query per fresh summary, and every query on one summary whose
      // order earlier selections have already changed.
      SampleSummary reused = SummaryOf(values);
      for (const double q : qs) {
        const double want = SortedNearestRank(values, q);
        SampleSummary fresh = SummaryOf(values);
        EXPECT_EQ(fresh.Percentile(q), want) << "q=" << q;
        EXPECT_EQ(reused.Percentile(q), want) << "q=" << q;
      }
      EXPECT_EQ(reused.Max(), SortedNearestRank(values, 1.0));
      // Selection reorders but keeps the multiset.
      std::vector<double> kept = reused.samples();
      std::vector<double> sorted = values;
      std::sort(kept.begin(), kept.end());
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(kept, sorted);
    }
  }
}

TEST(SampleSummaryTest, PercentilesListUnsortedWithRepeats) {
  Rng rng(77);
  for (const uint64_t distinct : {0u, 2u}) {
    for (const size_t n : {1u, 2u, 10u, 1000u, 10'000u}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " distinct=" << distinct);
      const std::vector<double> values = RandomSamples(rng, n, distinct);
      std::vector<double> qs = {0.99, 0.5, 1.0, 0.9, 0.5, 0.0, 0.99, 0.3};
      for (int i = 0; i < 8; ++i) qs.push_back(rng.NextDouble());
      SampleSummary s = SummaryOf(values);
      const std::vector<double> got = s.Percentiles(qs);
      ASSERT_EQ(got.size(), qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(got[i], SortedNearestRank(values, qs[i])) << "q=" << qs[i];
      }
      // A second call on the reordered samples agrees with the first.
      EXPECT_EQ(s.Percentiles(qs), got);
    }
  }
}

TEST(SampleSummaryTest, AddAfterQueryIsExact) {
  Rng rng(5);
  std::vector<double> values = RandomSamples(rng, 500, 0);
  SampleSummary s = SummaryOf(values);
  s.Percentiles({0.5, 0.9, 0.99});
  for (int round = 0; round < 5; ++round) {
    for (const double v : RandomSamples(rng, 300, round % 2 == 0 ? 0 : 7)) {
      values.push_back(v);
      s.Add(v);
    }
    EXPECT_EQ(s.Count(), values.size());
    const std::vector<double> got = s.Percentiles({0.99, 0.5, 0.9});
    EXPECT_EQ(got[0], SortedNearestRank(values, 0.99));
    EXPECT_EQ(got[1], SortedNearestRank(values, 0.5));
    EXPECT_EQ(got[2], SortedNearestRank(values, 0.9));
    EXPECT_EQ(s.Percentile(0.0), SortedNearestRank(values, 0.0));
    EXPECT_EQ(s.Max(), SortedNearestRank(values, 1.0));
  }
}

TEST(SampleSummaryTest, AppendPoolsSamples) {
  SampleSummary a;
  SampleSummary b;
  a.Add(3.0);
  a.Add(1.0);
  b.Add(2.0);
  a.Append(b);
  EXPECT_EQ(a.samples(), (std::vector<double>{3.0, 1.0, 2.0}));
  EXPECT_EQ(b.Count(), 1u);
  EXPECT_EQ(a.Percentile(0.5), 2.0);
}

}  // namespace
}  // namespace bouncer::stats
