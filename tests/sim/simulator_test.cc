#include "src/sim/simulator.h"

#include <gtest/gtest.h>

namespace bouncer::sim {
namespace {

using workload::PaperSimulationWorkload;
using workload::QueryTypeSpec;
using workload::WorkloadSpec;

SimulationConfig SmallConfig(double qps) {
  SimulationConfig config;
  config.parallelism = 100;
  config.arrival_rate_qps = qps;
  config.total_queries = 60000;
  config.warmup_queries = 10000;
  config.seed = 7;
  return config;
}

WorkloadSpec SingleTypeWorkload(double mean_ms, double median_ms) {
  const Slo slo{18 * kMillisecond, 50 * kMillisecond, 0};
  return WorkloadSpec(
      {QueryTypeSpec::FromMillis("only", 1.0, mean_ms, median_ms, slo)});
}

TEST(SimulatorTest, AlwaysAcceptLightLoadNoQueueing) {
  // M/M/100-ish at 30% load: response ~ service, no rejections.
  const auto workload = SingleTypeWorkload(5.0, 5.0);  // Deterministic 5 ms.
  PolicyConfig policy;
  policy.kind = PolicyKind::kAlwaysAccept;
  const double full_load = workload.FullLoadQps(100);
  Simulator simulator(workload, SmallConfig(0.3 * full_load), policy);
  const auto result = simulator.Run();
  EXPECT_EQ(result.overall.rejected, 0u);
  EXPECT_EQ(result.overall.received,
            result.overall.accepted);
  EXPECT_NEAR(result.per_type[0].rt_p50_ms, 5.0, 0.5);
  EXPECT_NEAR(result.utilization, 0.3, 0.05);
}

TEST(SimulatorTest, ConservationOfQueries) {
  const auto workload = PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncer;
  Simulator simulator(workload, SmallConfig(18000), policy);
  const auto result = simulator.Run();
  EXPECT_EQ(result.overall.received,
            result.overall.accepted + result.overall.rejected);
  // Every measured accepted query eventually completes (we drain).
  EXPECT_EQ(result.overall.accepted, result.overall.completed);
  EXPECT_GT(result.overall.received, 40000u);
}

TEST(SimulatorTest, DeterministicForSeed) {
  const auto workload = PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncer;
  Simulator a(workload, SmallConfig(18000), policy);
  Simulator b(workload, SmallConfig(18000), policy);
  const auto ra = a.Run();
  const auto rb = b.Run();
  EXPECT_EQ(ra.overall.rejected, rb.overall.rejected);
  EXPECT_DOUBLE_EQ(ra.per_type[3].rt_p50_ms, rb.per_type[3].rt_p50_ms);
}

TEST(SimulatorTest, SeedChangesOutcome) {
  const auto workload = PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncer;
  auto config_b = SmallConfig(18000);
  config_b.seed = 8;
  Simulator a(workload, SmallConfig(18000), policy);
  Simulator b(workload, config_b, policy);
  EXPECT_NE(a.Run().overall.rejected, b.Run().overall.rejected);
}

TEST(SimulatorTest, OverloadSaturatesUtilization) {
  const auto workload = PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncer;
  const double full_load = workload.FullLoadQps(100);
  Simulator simulator(workload, SmallConfig(1.3 * full_load), policy);
  const auto result = simulator.Run();
  EXPECT_GT(result.utilization, 0.95);
  EXPECT_LE(result.utilization, 1.001);
}

TEST(SimulatorTest, BouncerKeepsSlowTypeNearSlo) {
  const auto workload = PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncer;
  const double full_load = workload.FullLoadQps(100);
  auto config = SmallConfig(1.3 * full_load);
  // Exclude the cold-start transient: the first histogram publication
  // happens one swap interval (1 s of simulated time) in, during which
  // a backlog builds that takes a moment to drain.
  config.total_queries = 120000;
  config.warmup_queries = 50000;
  Simulator simulator(workload, config, policy);
  const auto result = simulator.Run();
  // Paper Fig. 6: Bouncer holds rt_p50 of slow queries at/under the SLO
  // (18 ms) under overload; allow a small margin for estimate error.
  EXPECT_LT(result.per_type[3].rt_p50_ms, 20.0);
  // And slow queries are the ones being rejected (Table 3).
  EXPECT_GT(result.per_type[3].rejection_pct, 20.0);
  EXPECT_EQ(result.per_type[0].rejected, 0u);
}

TEST(SimulatorTest, MaxQlPlateausAboveSlo) {
  const auto workload = PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kMaxQueueLength;
  policy.max_queue_length.length_limit = 400;
  const double full_load = workload.FullLoadQps(100);
  Simulator simulator(workload, SmallConfig(1.3 * full_load), policy);
  const auto result = simulator.Run();
  // Paper Fig. 6: MaxQL's rt_p50 plateaus around ~40 ms (above SLO).
  EXPECT_GT(result.per_type[3].rt_p50_ms, 25.0);
  EXPECT_LT(result.per_type[3].rt_p50_ms, 60.0);
}

TEST(SimulatorTest, AcceptFractionCapsUtilization) {
  const auto workload = PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kAcceptFraction;
  policy.accept_fraction.max_utilization = 0.95;
  // Scale the moving-average windows to the length of this short run
  // (the paper's D = 60 s assumes minute-scale runs).
  policy.accept_fraction.window_duration = kSecond;
  policy.accept_fraction.window_step = 50 * kMillisecond;
  policy.accept_fraction.update_interval = 50 * kMillisecond;
  const double full_load = workload.FullLoadQps(100);
  auto config = SmallConfig(1.4 * full_load);
  // The queue backlog accumulated before the moving averages ramp drains
  // at only (1 - MaxUtil) x capacity, so warm-up must cover ~10 s of
  // simulated time before utilization settles at the threshold.
  config.total_queries = 450000;
  config.warmup_queries = 280000;
  Simulator simulator(workload, config, policy);
  const auto result = simulator.Run();
  // Paper Fig. 7: AcceptFraction is the one policy pinned near its
  // utilization threshold.
  EXPECT_LT(result.utilization, 0.99);
  EXPECT_GT(result.utilization, 0.85);
}

TEST(SimulatorTest, TickCallbackFires) {
  const auto workload = PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncer;
  auto config = SmallConfig(15000);
  Simulator simulator(workload, config, policy);
  int ticks = 0;
  Nanos last = 0;
  simulator.SetTickCallback(kSecond, [&](Nanos now) {
    ++ticks;
    EXPECT_GT(now, last);
    last = now;
  });
  simulator.Run();
  // 60k queries at 15k qps ~ 4 s of simulated time -> several ticks.
  EXPECT_GE(ticks, 3);
}

TEST(SimulatorTest, LiveTypeCountsDuringTicks) {
  const auto workload = PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncer;
  Simulator simulator(workload, SmallConfig(20000), policy);
  bool saw_measured_traffic = false;
  simulator.SetTickCallback(kSecond, [&](Nanos) {
    const auto [received, rejected] = simulator.LiveTypeCounts(3);
    if (received > 0) saw_measured_traffic = true;
    EXPECT_LE(rejected, received);
  });
  simulator.Run();
  EXPECT_TRUE(saw_measured_traffic);
}

TEST(SimulatorTest, WarmupExcludedFromCounters) {
  const auto workload = PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kAlwaysAccept;
  auto config = SmallConfig(15000);
  config.total_queries = 30000;
  config.warmup_queries = 20000;
  Simulator simulator(workload, config, policy);
  const auto result = simulator.Run();
  EXPECT_EQ(result.overall.received, 10000u);
}

// Every exact-mode statistic of one small cell, pinned to the bit. The
// cell is the paper grid's set-up check (Bouncer, Table 1 workload, 1.2x
// load, 60k arrivals). Percentiles are order statistics, so any exact
// quantile method must reproduce these values; a change here means the
// simulated trajectory or the quantile definition moved.
TEST(SimulatorTest, ExactModeStatisticsPinnedToTheBit) {
  const auto workload = PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncer;
  policy.bouncer.histogram_swap_interval = 2 * kSecond;
  policy.bouncer.min_samples_to_publish = 30;
  SimulationConfig config;
  config.parallelism = 100;
  config.total_queries = 60000;
  config.warmup_queries = 20000;
  config.seed = 20240101;
  config.stats_mode = StatsMode::kExactSamples;
  config.arrival_rate_qps = 1.2 * workload.FullLoadQps(100);
  Simulator simulator(workload, config, policy);
  const auto result = simulator.Run();
  ASSERT_EQ(result.per_type.size(), 4u);
  EXPECT_EQ(result.overall.rejected, 8174u);
  EXPECT_EQ(result.overall.completed, 31826u);

  struct Pinned {
    double rt_mean, rt_p50, rt_p90, rt_p99, pt_p50, pt_p90, wt_p50;
  };
  const Pinned kPerType[] = {
      {157.28036418376044, 21.150262000000001, 365.32308899999998,
       405.99417099999999, 0.37417699999999998, 2.5053339999999999,
       15.895629},
      {156.87575667159476, 15.175554999999999, 370.39981999999998,
       407.14321899999999, 2.2157420000000001, 4.2989090000000001,
       11.422046999999999},
      {169.35132601158747, 86.435416000000004, 381.33469300000002,
       426.46371399999998, 7.6678069999999998, 27.061060000000001,
       11.667078999999999},
      {247.46762708310888, 289.95052500000003, 401.57761399999998,
       460.20498400000002, 12.670453, 43.743713,
       271.856359},
  };
  for (size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(result.per_type[i].name);
    const TypeStats& t = result.per_type[i];
    EXPECT_EQ(t.rt_mean_ms, kPerType[i].rt_mean);
    EXPECT_EQ(t.rt_p50_ms, kPerType[i].rt_p50);
    EXPECT_EQ(t.rt_p90_ms, kPerType[i].rt_p90);
    EXPECT_EQ(t.rt_p99_ms, kPerType[i].rt_p99);
    EXPECT_EQ(t.pt_p50_ms, kPerType[i].pt_p50);
    EXPECT_EQ(t.pt_p90_ms, kPerType[i].pt_p90);
    EXPECT_EQ(t.wt_p50_ms, kPerType[i].wt_p50);
  }
  const TypeStats& all = result.overall;
  EXPECT_EQ(all.rt_p50_ms, 235.99155200000001);
  EXPECT_EQ(all.rt_p90_ms, 376.54726699999998);
  EXPECT_EQ(all.rt_p99_ms, 415.92671200000001);
  EXPECT_EQ(all.pt_p50_ms, 2.1709360000000002);
  EXPECT_EQ(all.pt_p90_ms, 15.860951);
  EXPECT_EQ(all.wt_p50_ms, 0.0);
  // The pooled mean is a floating-point sum, so its last bits depend on
  // summation order. It sums each type's samples in arrival order; the
  // sort-based quantiles this replaced left each type's samples sorted
  // before pooling, and that order gave 167.20154636485873 (61 ulps off).
  EXPECT_EQ(all.rt_mean_ms, 167.20154636485699);
  EXPECT_NEAR(all.rt_mean_ms, 167.20154636485873, 1e-11);
}

}  // namespace
}  // namespace bouncer::sim
