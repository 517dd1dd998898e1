#include "src/workload/load_generator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/util/clock.h"

namespace bouncer::workload {
namespace {

WorkloadSpec UniformTwoTypeMix() {
  const Slo slo{};
  return WorkloadSpec({QueryTypeSpec::FromMillis("a", 0.5, 1, 1, slo),
                       QueryTypeSpec::FromMillis("b", 0.5, 1, 1, slo)});
}

TEST(LoadGeneratorTest, ApproximatesTargetRate) {
  const auto mix = UniformTwoTypeMix();
  LoadGenerator::Options options;
  options.rate_qps = 2000.0;
  options.duration = kSecond / 2;
  std::atomic<uint64_t> received{0};
  LoadGenerator generator(&mix, options,
                          [&](size_t, Nanos) { received.fetch_add(1); });
  const uint64_t sent = generator.Run();
  EXPECT_EQ(sent, received.load());
  // ~1000 expected over 0.5 s; Poisson sd ~ 32. Allow generous slack for
  // scheduler jitter on a loaded machine.
  EXPECT_GT(sent, 700u);
  EXPECT_LT(sent, 1300u);
}

TEST(LoadGeneratorTest, SinkSeesScheduledDepartures) {
  // `due` follows the absolute schedule: increasing, and never later than
  // the moment the sink runs (a late generator fires after it).
  const auto mix = UniformTwoTypeMix();
  LoadGenerator::Options options;
  options.rate_qps = 2000.0;
  options.duration = kSecond / 10;
  Nanos last_due = 0;
  uint64_t out_of_order = 0;
  uint64_t early = 0;
  LoadGenerator generator(&mix, options, [&](size_t, Nanos due) {
    if (due <= last_due) ++out_of_order;
    if (due > SystemClock::Global()->Now()) ++early;
    last_due = due;
  });
  ASSERT_GT(generator.Run(), 0u);
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_EQ(early, 0u);
}

TEST(LoadGeneratorTest, SamplesMixProportions) {
  const auto mix = UniformTwoTypeMix();
  LoadGenerator::Options options;
  options.rate_qps = 5000.0;
  options.duration = kSecond / 2;
  std::atomic<uint64_t> type_a{0};
  std::atomic<uint64_t> total{0};
  LoadGenerator generator(&mix, options, [&](size_t type, Nanos) {
    total.fetch_add(1);
    if (type == 0) type_a.fetch_add(1);
  });
  generator.Run();
  ASSERT_GT(total.load(), 500u);
  const double frac =
      static_cast<double>(type_a.load()) / static_cast<double>(total.load());
  EXPECT_NEAR(frac, 0.5, 0.08);
}

TEST(LoadGeneratorTest, StopsEarlyOnRequest) {
  const auto mix = UniformTwoTypeMix();
  LoadGenerator::Options options;
  options.rate_qps = 100.0;
  options.duration = 30 * kSecond;  // Would run for 30 s without the stop.
  std::atomic<uint64_t> received{0};
  LoadGenerator generator(&mix, options,
                          [&](size_t, Nanos) { received.fetch_add(1); });
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    generator.RequestStop();
  });
  const auto start = std::chrono::steady_clock::now();
  generator.Run();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stopper.join();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(LoadGeneratorTest, MultiThreadedSplitsRate) {
  const auto mix = UniformTwoTypeMix();
  LoadGenerator::Options options;
  options.rate_qps = 2000.0;
  options.duration = kSecond / 2;
  options.num_threads = 2;
  std::atomic<uint64_t> received{0};
  LoadGenerator generator(&mix, options,
                          [&](size_t, Nanos) { received.fetch_add(1); });
  const uint64_t sent = generator.Run();
  EXPECT_GT(sent, 600u);
  EXPECT_LT(sent, 1400u);
}

TEST(LoadGeneratorTest, ZeroRateSendsNothing) {
  const auto mix = UniformTwoTypeMix();
  LoadGenerator::Options options;
  options.rate_qps = 0.0;
  options.duration = 50 * kMillisecond;
  LoadGenerator generator(&mix, options, [&](size_t, Nanos) { FAIL(); });
  EXPECT_EQ(generator.Run(), 0u);
}

}  // namespace
}  // namespace bouncer::workload
