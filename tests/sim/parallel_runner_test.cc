#include "src/sim/parallel_runner.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/sim/experiment.h"

namespace bouncer::sim {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.parallelism = 100;
  config.total_queries = 40000;
  config.warmup_queries = 8000;
  config.seed = 77;
  return config;
}

/// Field-exact equality: every counter and every double must match to
/// the bit (the parallel runner's contract is "bit-identical to the
/// serial path", not "statistically close").
void ExpectTypeStatsIdentical(const TypeStats& a, const TypeStats& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.useless, b.useless);
  EXPECT_EQ(a.rejection_pct, b.rejection_pct);
  EXPECT_EQ(a.rt_mean_ms, b.rt_mean_ms);
  EXPECT_EQ(a.rt_p50_ms, b.rt_p50_ms);
  EXPECT_EQ(a.rt_p90_ms, b.rt_p90_ms);
  EXPECT_EQ(a.rt_p99_ms, b.rt_p99_ms);
  EXPECT_EQ(a.pt_p50_ms, b.pt_p50_ms);
  EXPECT_EQ(a.pt_p90_ms, b.pt_p90_ms);
  EXPECT_EQ(a.wt_p50_ms, b.wt_p50_ms);
}

void ExpectResultsIdentical(const SimulationResult& a,
                            const SimulationResult& b) {
  ASSERT_EQ(a.per_type.size(), b.per_type.size());
  for (size_t i = 0; i < a.per_type.size(); ++i) {
    ExpectTypeStatsIdentical(a.per_type[i], b.per_type[i]);
  }
  ExpectTypeStatsIdentical(a.overall, b.overall);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.measured_seconds, b.measured_seconds);
  EXPECT_EQ(a.offered_qps, b.offered_qps);
  EXPECT_EQ(a.wasted_work_fraction, b.wasted_work_fraction);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(ParallelRunnerTest, DefaultJobsReadsEnvVar) {
  setenv("BOUNCER_BENCH_JOBS", "5", 1);
  EXPECT_EQ(DefaultJobs(), 5);
  setenv("BOUNCER_BENCH_JOBS", "0", 1);  // Invalid: fall back to hardware.
  EXPECT_GE(DefaultJobs(), 1);
  unsetenv("BOUNCER_BENCH_JOBS");
  EXPECT_GE(DefaultJobs(), 1);
}

TEST(ParallelRunnerTest, EmptyBatch) {
  EXPECT_TRUE(RunJobs({}, 4).empty());
}

TEST(ParallelRunnerTest, ParallelMatchesSerialBitExact) {
  const auto workload = workload::PaperSimulationWorkload();
  const double full_load = workload.FullLoadQps(100);
  std::vector<SimJob> jobs;
  for (const double factor : {0.9, 1.2, 1.5}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      SimJob job;
      job.workload = &workload;
      job.config = SmallConfig();
      job.config.arrival_rate_qps = factor * full_load;
      job.config.seed = seed;
      job.policy.kind = PolicyKind::kBouncer;
      jobs.push_back(std::move(job));
    }
  }
  const auto serial = RunJobs(jobs, 1);
  const auto parallel = RunJobs(jobs, 8);  // More threads than cores is fine.
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectResultsIdentical(serial[i], parallel[i]);
  }
}

TEST(ParallelRunnerTest, SweepLoadFactorsDeterministicAcrossJobCounts) {
  const auto workload = workload::PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncer;
  const std::vector<double> factors = {0.9, 1.1, 1.3, 1.5};

  setenv("BOUNCER_BENCH_JOBS", "1", 1);
  const auto serial =
      SweepLoadFactors(workload, SmallConfig(), policy, factors, 3);
  setenv("BOUNCER_BENCH_JOBS", "8", 1);
  const auto parallel =
      SweepLoadFactors(workload, SmallConfig(), policy, factors, 3);
  unsetenv("BOUNCER_BENCH_JOBS");

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].load_factor, parallel[i].load_factor);
    EXPECT_EQ(serial[i].offered_qps, parallel[i].offered_qps);
    ExpectResultsIdentical(serial[i].result, parallel[i].result);
  }
}

TEST(ParallelRunnerTest, SweepPolicyGridMatchesPerPolicySweeps) {
  const auto workload = workload::PaperSimulationWorkload();
  PolicyConfig bouncer;
  bouncer.kind = PolicyKind::kBouncer;
  PolicyConfig maxql;
  maxql.kind = PolicyKind::kMaxQueueLength;
  maxql.max_queue_length.length_limit = 400;
  const std::vector<double> factors = {1.0, 1.4};

  const auto grid = SweepPolicyGrid(workload, SmallConfig(),
                                    {bouncer, maxql}, factors, 2);
  ASSERT_EQ(grid.size(), 2u);
  const auto solo_bouncer =
      SweepLoadFactors(workload, SmallConfig(), bouncer, factors, 2);
  const auto solo_maxql =
      SweepLoadFactors(workload, SmallConfig(), maxql, factors, 2);
  for (size_t i = 0; i < factors.size(); ++i) {
    ExpectResultsIdentical(grid[0][i].result, solo_bouncer[i].result);
    ExpectResultsIdentical(grid[1][i].result, solo_maxql[i].result);
  }
}

/// The FIFO ring (kFifo) against the heap-backed queue: kPriority with
/// no type priorities gives every query order key 0, so the heap's
/// (order_key, sequence) order is arrival order and the two runs must
/// agree bit for bit.
TEST(SimulatorQueueTest, FifoRingMatchesHeapPathBitExact) {
  const auto workload = workload::PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncer;
  // Overload, so a deep standing queue exercises ring growth; a deadline
  // exercises the expiration-drop path through both queue structures.
  for (const double factor : {1.0, 1.5}) {
    auto config = SmallConfig();
    config.arrival_rate_qps = factor * workload.FullLoadQps(100);
    config.deadline = 200 * kMillisecond;

    Simulator ring_sim(workload, config, policy);
    const auto ring = ring_sim.Run();

    config.discipline = QueueDiscipline::kPriority;
    ASSERT_TRUE(config.type_priorities.empty());
    Simulator heap_sim(workload, config, policy);
    const auto heap = heap_sim.Run();

    ExpectResultsIdentical(ring, heap);
  }
}

TEST(SimulatorStatsTest, StreamingSummaryTracksExactPercentiles) {
  const auto workload = workload::PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncer;
  auto config = SmallConfig();
  config.arrival_rate_qps = 1.2 * workload.FullLoadQps(100);

  Simulator exact_sim(workload, config, policy);
  const auto exact = exact_sim.Run();

  config.stats_mode = StatsMode::kStreamingSummary;
  Simulator streaming_sim(workload, config, policy);
  const auto streaming = streaming_sim.Run();

  // Counters don't depend on the stats mode at all.
  EXPECT_EQ(exact.overall.received, streaming.overall.received);
  EXPECT_EQ(exact.overall.rejected, streaming.overall.rejected);
  EXPECT_EQ(exact.overall.completed, streaming.overall.completed);
  EXPECT_EQ(exact.utilization, streaming.utilization);

  // Percentiles agree within the histogram's ~3% relative-error bound
  // (plus a little slack for nearest-rank vs bucket-midpoint semantics).
  const auto near = [](double got, double want) {
    const double tol = 0.05 * want + 0.05;
    EXPECT_NEAR(got, want, tol);
  };
  near(streaming.overall.rt_p50_ms, exact.overall.rt_p50_ms);
  near(streaming.overall.rt_p90_ms, exact.overall.rt_p90_ms);
  near(streaming.overall.rt_p99_ms, exact.overall.rt_p99_ms);
  near(streaming.overall.rt_mean_ms, exact.overall.rt_mean_ms);
  near(streaming.overall.pt_p50_ms, exact.overall.pt_p50_ms);
  for (size_t i = 0; i < exact.per_type.size(); ++i) {
    near(streaming.per_type[i].rt_p50_ms, exact.per_type[i].rt_p50_ms);
    near(streaming.per_type[i].rt_p90_ms, exact.per_type[i].rt_p90_ms);
    near(streaming.per_type[i].pt_p50_ms, exact.per_type[i].pt_p50_ms);
    near(streaming.per_type[i].wt_p50_ms, exact.per_type[i].wt_p50_ms);
  }
}

TEST(SimulatorStatsTest, NoneModeKeepsCountersDropsSeries) {
  const auto workload = workload::PaperSimulationWorkload();
  PolicyConfig policy;
  policy.kind = PolicyKind::kAlwaysAccept;
  auto config = SmallConfig();
  config.arrival_rate_qps = 0.9 * workload.FullLoadQps(100);

  Simulator exact_sim(workload, config, policy);
  const auto exact = exact_sim.Run();
  config.stats_mode = StatsMode::kNone;
  Simulator none_sim(workload, config, policy);
  const auto none = none_sim.Run();

  EXPECT_EQ(none.overall.received, exact.overall.received);
  EXPECT_EQ(none.overall.completed, exact.overall.completed);
  EXPECT_EQ(none.events_processed, exact.events_processed);
  EXPECT_EQ(none.overall.rt_p50_ms, 0.0);
  EXPECT_GT(exact.overall.rt_p50_ms, 0.0);
}

}  // namespace
}  // namespace bouncer::sim
