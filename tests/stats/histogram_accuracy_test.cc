// Property tests: the bucketed histogram's percentiles must agree with
// exact sample percentiles within the bucket scheme's relative-error
// bound, across qualitatively different distributions.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/stats/histogram.h"
#include "src/stats/summary.h"
#include "src/util/rng.h"

namespace bouncer::stats {
namespace {

// gtest prints this struct byte by byte into each discovered ctest name.
// The name is stored inline and leads the struct so that those names start
// with the same bytes on every build; a std::string would lead with a heap
// address that changes from run to run.
struct DistributionCase {
  char name[32];
  // Draws one sample in nanoseconds.
  Nanos (*draw)(Rng&);
};

Nanos DrawExponential(Rng& rng) {
  return static_cast<Nanos>(rng.NextExponential(5e6));
}
Nanos DrawLognormal(Rng& rng) {
  return static_cast<Nanos>(rng.NextLogNormal(15.0, 1.0));
}
Nanos DrawUniform(Rng& rng) {
  return static_cast<Nanos>(rng.NextBounded(100 * kMillisecond));
}
Nanos DrawBimodal(Rng& rng) {
  return rng.NextBernoulli(0.8)
             ? static_cast<Nanos>(1 * kMillisecond + rng.NextBounded(100000))
             : static_cast<Nanos>(80 * kMillisecond + rng.NextBounded(100000));
}
Nanos DrawHeavyTail(Rng& rng) {
  // Pareto-ish: x = scale / u^(1/alpha), alpha = 1.5.
  double u = rng.NextDouble();
  if (u < 1e-12) u = 1e-12;
  return static_cast<Nanos>(100000.0 / std::pow(u, 1.0 / 1.5));
}

class HistogramAccuracy : public ::testing::TestWithParam<DistributionCase> {
};

TEST_P(HistogramAccuracy, PercentilesMatchExactSamples) {
  const auto& param = GetParam();
  Histogram histogram;
  SampleSummary exact;
  Rng rng(0xabcdef);
  constexpr int kSamples = 200'000;
  for (int i = 0; i < kSamples; ++i) {
    const Nanos v = param.draw(rng);
    histogram.Record(v);
    exact.Add(static_cast<double>(v));
  }
  for (double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double approx = static_cast<double>(histogram.Percentile(q));
    const double truth = exact.Percentile(q);
    // Bucket relative error bound is 1/kSubCount ~ 3.1%; allow a bit of
    // slack for quantile interpolation differences.
    EXPECT_NEAR(approx, truth, truth * 0.04 + 2.0)
        << param.name << " q=" << q;
  }
}

TEST_P(HistogramAccuracy, MeanIsExact) {
  const auto& param = GetParam();
  Histogram histogram;
  SampleSummary exact;
  Rng rng(0x1234);
  for (int i = 0; i < 50'000; ++i) {
    const Nanos v = param.draw(rng);
    histogram.Record(v);
    exact.Add(static_cast<double>(v));
  }
  EXPECT_NEAR(static_cast<double>(histogram.Mean()), exact.Mean(), 1.0)
      << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, HistogramAccuracy,
    ::testing::Values(DistributionCase{"exponential", DrawExponential},
                      DistributionCase{"lognormal", DrawLognormal},
                      DistributionCase{"uniform", DrawUniform},
                      DistributionCase{"bimodal", DrawBimodal},
                      DistributionCase{"heavy_tail", DrawHeavyTail}),
    [](const ::testing::TestParamInfo<DistributionCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace bouncer::stats
