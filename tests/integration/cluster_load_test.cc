// End-to-end integration: graph cluster + open-loop load generator +
// admission control, on real threads and the real clock. Kept short;
// asserts conservation and qualitative behaviour, not exact latencies.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
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

  static Cluster::Options ClusterOptions(const PolicyConfig& broker_policy) {
    Cluster::Options options;
    options.num_brokers = 1;
    options.broker_workers = 4;
    options.num_shards = 2;
    options.shard_workers = 1;
    options.broker_policy = broker_policy;
    options.shard_policy.kind = PolicyKind::kAlwaysAccept;
    return options;
  }

  /// Waits for every sent query's callback, stops the cluster and reads
  /// the overall and QT11 rows.
  static RunOutcome Finish(Cluster& cluster, server::MetricsCollector& metrics,
                           const std::atomic<uint64_t>& callbacks,
                           uint64_t sent) {
    RunOutcome outcome;
    outcome.sent = sent;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (callbacks.load() < sent &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    cluster.Stop();
    EXPECT_EQ(callbacks.load(), sent) << "lost completions";
    outcome.overall = metrics.Overall();
    outcome.qt11 = metrics.Report(Cluster::TypeIdFor(GraphOp::kDistance4));
    return outcome;
  }

  /// Open loop: Poisson arrivals at `qps` for `duration`.
  RunOutcome DriveLoad(const PolicyConfig& broker_policy, double qps,
                       Nanos duration) {
    QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
    Cluster cluster(graph_, &registry, SystemClock::Global(),
                    ClusterOptions(broker_policy));
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
    const uint64_t sent = generator.Run();
    return Finish(cluster, metrics, callbacks, sent);
  }

  /// Closed loop of `clients` callers for `duration`, each drawing its
  /// query type from the paper mix. A served caller sends its next query
  /// at once; a rejected one parks, and each departure from the cluster
  /// releases one parked caller. With more callers than the broker
  /// admits, every departure brings two sends for one freed place, so
  /// the overload is set by the loop itself, not by how fast the sending
  /// thread runs.
  RunOutcome DriveClosedLoop(const PolicyConfig& broker_policy,
                             int clients, Nanos duration) {
    QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
    Cluster cluster(graph_, &registry, SystemClock::Global(),
                    ClusterOptions(broker_policy));
    EXPECT_TRUE(cluster.Start().ok());

    server::MetricsCollector metrics(registry.size());
    std::atomic<uint64_t> callbacks{0};
    std::mutex mu;
    std::condition_variable cv;
    int ready = clients;  // Callers free to send now.
    int parked = 0;       // Rejected callers waiting for a departure.
    int in_flight = 0;    // Sent, no callback yet.
    const auto on_done = [&](const server::WorkItem& item,
                             server::Outcome result, const GraphQueryResult&) {
      metrics.Record(item, result);
      const bool refused = result == server::Outcome::kRejected ||
                           result == server::Outcome::kShedded;
      {
        std::lock_guard<std::mutex> lock(mu);
        --in_flight;
        if (refused) {
          ++parked;
        } else {
          ++ready;
          if (parked > 0) {
            --parked;
            ++ready;
          }
        }
        // With nothing left in flight no departure will come.
        if (in_flight == 0) {
          ready += parked;
          parked = 0;
        }
        cv.notify_one();
      }
      callbacks.fetch_add(1);
    };

    const auto mix = workload::PaperRealSystemMix();
    Rng rng(3);
    uint64_t sent = 0;
    const auto end = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds(duration);
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (!cv.wait_until(lock, end, [&] { return ready > 0; })) break;
        if (std::chrono::steady_clock::now() >= end) break;
        --ready;
        ++in_flight;
      }
      const GraphQuery query = Cluster::SampleQuery(
          static_cast<GraphOp>(mix.SampleType(rng)), *graph_, rng);
      cluster.Submit(query, 0, on_done);
      ++sent;
    }
    return Finish(cluster, metrics, callbacks, sent);
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
  // The guard is only a backstop here. A tight one (16) caps the queue
  // below the length where Bouncer's estimate tells QT11 from the cheap
  // types apart; the type-blind guard then does the rejecting and QT11
  // fares no worse than the rest.
  policy.queue_guard_limit = 64;
  // More callers than the 4 workers plus the guard's 64 queue slots can
  // hold: the cluster stays past saturation however little CPU the
  // sending thread gets, which a fixed-rate open loop did not when the
  // test shared the host with others.
  const auto outcome = DriveClosedLoop(policy, 96, 4 * kSecond);
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
