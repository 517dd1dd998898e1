// End-to-end integration: graph cluster + open-loop load generator +
// admission control, on real threads and the real clock. Kept short;
// asserts conservation and qualitative behaviour, not exact latencies.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/graph/cluster.h"
#include "src/graph/graph_generator.h"
#include "src/server/metrics_collector.h"
#include "src/workload/load_generator.h"

namespace bouncer {
namespace {

using graph::Cluster;
using graph::GraphOp;
using graph::GraphQuery;
using graph::GraphQueryResult;
using graph::GraphStore;

const Slo kSlo{18 * kMillisecond, 50 * kMillisecond, 0};

class ClusterLoadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph::GeneratorOptions options;
    options.num_vertices = 30'000;
    options.edges_per_vertex = 8;
    graph_ = new GraphStore(graph::GeneratePreferentialAttachment(options));
  }

  struct RunOutcome {
    uint64_t sent = 0;
    server::TypeReport overall;
    server::TypeReport qt11;
  };

  RunOutcome DriveLoad(const PolicyConfig& broker_policy, double qps,
                       Nanos duration) {
    QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
    Cluster::Options options;
    options.num_brokers = 1;
    options.broker_workers = 4;
    options.num_shards = 2;
    options.shard_workers = 1;
    options.broker_policy = broker_policy;
    options.shard_policy.kind = PolicyKind::kAlwaysAccept;
    Cluster cluster(graph_, &registry, SystemClock::Global(), options);
    EXPECT_TRUE(cluster.Start().ok());

    server::MetricsCollector metrics(registry.size());
    std::atomic<uint64_t> callbacks{0};
    const auto mix = workload::PaperRealSystemMix();
    Rng query_rng(3);
    workload::LoadGenerator::Options generator_options;
    generator_options.rate_qps = qps;
    generator_options.duration = duration;
    workload::LoadGenerator generator(
        &mix, generator_options, [&](size_t type_index, Nanos) {
          const GraphQuery query = Cluster::SampleQuery(
              static_cast<GraphOp>(type_index), *graph_, query_rng);
          cluster.Submit(query, 0,
                         [&](const server::WorkItem& item,
                             server::Outcome outcome,
                             const GraphQueryResult&) {
                           metrics.Record(item, outcome);
                           callbacks.fetch_add(1);
                         });
        });
    RunOutcome outcome;
    outcome.sent = generator.Run();
    // Drain in-flight work, then stop.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (callbacks.load() < outcome.sent &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    cluster.Stop();
    EXPECT_EQ(callbacks.load(), outcome.sent) << "lost completions";
    outcome.overall = metrics.Overall();
    outcome.qt11 = metrics.Report(Cluster::TypeIdFor(GraphOp::kDistance4));
    return outcome;
  }

  static GraphStore* graph_;
};

GraphStore* ClusterLoadTest::graph_ = nullptr;

TEST_F(ClusterLoadTest, EveryQueryGetsExactlyOneOutcome) {
  PolicyConfig policy;
  policy.kind = PolicyKind::kAlwaysAccept;
  const auto outcome = DriveLoad(policy, 150, 2 * kSecond);
  EXPECT_GT(outcome.sent, 100u);
  EXPECT_EQ(outcome.overall.received, outcome.sent);
  EXPECT_EQ(outcome.overall.received,
            outcome.overall.completed + outcome.overall.rejected +
                outcome.overall.expired);
}

TEST_F(ClusterLoadTest, LightLoadMostlyAccepted) {
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncerWithAllowance;
  policy.bouncer.histogram_swap_interval = kSecond;
  policy.allowance.allowance = 0.05;
  const auto outcome = DriveLoad(policy, 60, 3 * kSecond);
  EXPECT_LT(outcome.overall.rejection_pct, 30.0);
  EXPECT_GT(outcome.overall.completed, 0u);
}

TEST_F(ClusterLoadTest, OverloadTriggersEarlyRejections) {
  PolicyConfig policy;
  policy.kind = PolicyKind::kBouncerWithAllowance;
  policy.bouncer.histogram_swap_interval = kSecond;
  policy.allowance.allowance = 0.05;
  policy.queue_guard_limit = 16;
  // 600 QPS overloaded the pre-optimization scatter path; the pooled/
  // async path sustains several times that, so push harder to get the
  // cluster genuinely past saturation.
  const auto outcome = DriveLoad(policy, 2400, 4 * kSecond);
  EXPECT_GT(outcome.overall.rejection_pct, 10.0);
  // The costly QT11 bears the brunt (paper §5.4).
  EXPECT_GT(outcome.qt11.rejection_pct, outcome.overall.rejection_pct);
}

TEST_F(ClusterLoadTest, DeadlinesExpireQueuedWork) {
  PolicyConfig policy;
  policy.kind = PolicyKind::kAlwaysAccept;
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 1;  // Single worker: queueing guaranteed.
  options.num_shards = 1;
  options.shard_workers = 1;
  options.broker_policy = policy;
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());
  std::atomic<int> expired{0};
  std::atomic<int> done{0};
  Rng rng(5);
  const Nanos now = SystemClock::Global()->Now();
  constexpr int kQueries = 60;
  for (int i = 0; i < kQueries; ++i) {
    const GraphQuery query =
        Cluster::SampleQuery(GraphOp::kDistance4, *graph_, rng);
    cluster.Submit(query, now + 20 * kMillisecond,
                   [&](const server::WorkItem&, server::Outcome outcome,
                       const GraphQueryResult&) {
                     if (outcome == server::Outcome::kExpired)
                       expired.fetch_add(1);
                     done.fetch_add(1);
                   });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (done.load() < kQueries &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  cluster.Stop();
  ASSERT_EQ(done.load(), kQueries);
  // A burst of expensive queries against one worker: most deadlines pass
  // while queued, and expired work skips processing entirely.
  EXPECT_GT(expired.load(), kQueries / 2);
}

}  // namespace
}  // namespace bouncer
