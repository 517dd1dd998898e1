#include "src/graph/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>

#include "src/graph/graph_generator.h"
#include "src/graph/update_log.h"

namespace bouncer::graph {
namespace {

using server::Outcome;
using server::WorkItem;

class ClusterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.num_vertices = 20000;
    options.edges_per_vertex = 8;
    graph_ = new GraphStore(GeneratePreferentialAttachment(options));
  }

  Cluster::Options DefaultOptions() {
    Cluster::Options options;
    options.num_brokers = 1;
    options.broker_workers = 8;
    options.num_shards = 2;
    options.shard_workers = 2;
    options.work_per_edge = 4;
    options.broker_policy.kind = PolicyKind::kAlwaysAccept;
    options.shard_policy.kind = PolicyKind::kAlwaysAccept;
    return options;
  }

  /// Submits and waits for the result.
  struct SyncResult {
    Outcome outcome = Outcome::kCompleted;
    GraphQueryResult result;
    WorkItem item;
  };
  SyncResult Ask(Cluster& cluster, const GraphQuery& query,
                 Nanos deadline = 0) {
    SyncResult out;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    cluster.Submit(query, deadline,
                   [&](const WorkItem& item, Outcome outcome,
                       const GraphQueryResult& result) {
                     std::lock_guard<std::mutex> lock(mu);
                     out.outcome = outcome;
                     out.result = result;
                     out.item = item;
                     out.item.on_complete = nullptr;
                     done = true;
                     cv.notify_all();
                   });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return out;
  }

  static GraphStore* graph_;
};

GraphStore* ClusterTest::graph_ = nullptr;

TEST_F(ClusterTest, MakeRegistryHasElevenTypes) {
  const Slo slo{18 * kMillisecond, 50 * kMillisecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  EXPECT_EQ(registry.size(), 12u);  // default + QT1..QT11.
  EXPECT_EQ(registry.Name(Cluster::TypeIdFor(GraphOp::kDegree)), "QT1");
  EXPECT_EQ(registry.Name(Cluster::TypeIdFor(GraphOp::kDistance4)), "QT11");
}

TEST_F(ClusterTest, DegreeQueryMatchesStore) {
  const Slo slo{18 * kMillisecond, 50 * kMillisecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  Cluster cluster(graph_, &registry, SystemClock::Global(), DefaultOptions());
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    GraphQuery q = Cluster::SampleQuery(GraphOp::kDegree, *graph_, rng);
    const auto out = Ask(cluster, q);
    EXPECT_EQ(out.outcome, Outcome::kCompleted);
    EXPECT_TRUE(out.result.ok);
    EXPECT_EQ(out.result.value, graph_->Degree(q.source));
  }
  cluster.Stop();
}

TEST_F(ClusterTest, ExternalIdLookupMatchesDegree) {
  const Slo slo{18 * kMillisecond, 50 * kMillisecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  Cluster cluster(graph_, &registry, SystemClock::Global(), DefaultOptions());
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(2);
  GraphQuery q =
      Cluster::SampleQuery(GraphOp::kDegreeByExternalId, *graph_, rng);
  const auto out = Ask(cluster, q);
  EXPECT_EQ(out.result.value, graph_->Degree(q.source));
  cluster.Stop();
}

TEST_F(ClusterTest, EveryOpCompletes) {
  const Slo slo{18 * kMillisecond, 50 * kMillisecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  Cluster cluster(graph_, &registry, SystemClock::Global(), DefaultOptions());
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(3);
  for (size_t op = 0; op < kNumGraphOps; ++op) {
    GraphQuery q =
        Cluster::SampleQuery(static_cast<GraphOp>(op), *graph_, rng);
    const auto out = Ask(cluster, q);
    EXPECT_EQ(out.outcome, Outcome::kCompleted) << "op " << op;
    EXPECT_TRUE(out.result.ok) << "op " << op;
  }
  cluster.Stop();
}

TEST_F(ClusterTest, DistanceIsPlausible) {
  const Slo slo{18 * kMillisecond, 50 * kMillisecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  Cluster cluster(graph_, &registry, SystemClock::Global(), DefaultOptions());
  ASSERT_TRUE(cluster.Start().ok());
  // Direct neighbors are at distance 1.
  uint32_t source = 0;
  ASSERT_GT(graph_->Degree(source), 0u);
  GraphQuery q;
  q.op = GraphOp::kDistance3;
  q.source = source;
  q.target = graph_->Neighbors(source)[0];
  const auto out = Ask(cluster, q);
  EXPECT_EQ(out.result.value, 1u);
  // Distance to self is 0.
  GraphQuery self = q;
  self.target = source;
  EXPECT_EQ(Ask(cluster, self).result.value, 0u);
  cluster.Stop();
}

TEST_F(ClusterTest, BrokerTimestampsPopulated) {
  const Slo slo{18 * kMillisecond, 50 * kMillisecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  Cluster cluster(graph_, &registry, SystemClock::Global(), DefaultOptions());
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(4);
  GraphQuery q = Cluster::SampleQuery(GraphOp::kTwoHopCount, *graph_, rng);
  const auto out = Ask(cluster, q);
  EXPECT_GT(out.item.ProcessingTime(), 0);
  EXPECT_GE(out.item.ResponseTime(), out.item.ProcessingTime());
  cluster.Stop();
}

TEST_F(ClusterTest, BrokerPolicyRejectsEarly) {
  const Slo slo{18 * kMillisecond, 50 * kMillisecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  Cluster::Options options = DefaultOptions();
  options.broker_policy.kind = PolicyKind::kMaxQueueLength;
  options.broker_policy.max_queue_length.length_limit = 1;
  options.broker_workers = 1;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(5);
  std::atomic<int> rejected{0};
  std::atomic<int> finished{0};
  // Burst of heavy queries against a 1-worker broker with queue cap 1.
  for (int i = 0; i < 30; ++i) {
    GraphQuery q = Cluster::SampleQuery(GraphOp::kDistance4, *graph_, rng);
    cluster.Submit(q, 0,
                   [&](const WorkItem&, Outcome outcome,
                       const GraphQueryResult&) {
                     if (outcome == Outcome::kRejected) rejected.fetch_add(1);
                     finished.fetch_add(1);
                   });
  }
  while (finished.load() < 30) std::this_thread::yield();
  EXPECT_GT(rejected.load(), 0);
  cluster.Stop();
}

TEST_F(ClusterTest, ShardShedPropagatesAsNotOk) {
  const Slo slo{18 * kMillisecond, 50 * kMillisecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  Cluster::Options options = DefaultOptions();
  options.shard_policy.kind = PolicyKind::kMaxQueueLength;
  options.shard_policy.max_queue_length.length_limit = 1;
  options.shard_workers = 1;
  // Heavy subqueries keep the single shard worker busy long enough for
  // concurrent rounds to queue behind it; with light work the pooled
  // scatter path's work-helping drains the queue before MaxQL(1) ever
  // observes a waiting item, and nothing is shed.
  options.work_per_edge = 2048;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(6);
  std::atomic<int> not_ok{0};
  std::atomic<int> finished{0};
  const int kQueries = 40;
  for (int i = 0; i < kQueries; ++i) {
    GraphQuery q = Cluster::SampleQuery(GraphOp::kTwoHopDedup, *graph_, rng);
    cluster.Submit(q, 0,
                   [&](const WorkItem&, Outcome,
                       const GraphQueryResult& result) {
                     if (!result.ok) not_ok.fetch_add(1);
                     finished.fetch_add(1);
                   });
  }
  while (finished.load() < kQueries) std::this_thread::yield();
  EXPECT_GT(not_ok.load(), 0);
  EXPECT_GT(cluster.shard_failures(), 0u);
  cluster.Stop();
}

TEST_F(ClusterTest, RoundRobinAcrossBrokers) {
  const Slo slo{18 * kMillisecond, 50 * kMillisecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  Cluster::Options options = DefaultOptions();
  options.num_brokers = 2;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(7);
  std::atomic<int> finished{0};
  for (int i = 0; i < 40; ++i) {
    GraphQuery q = Cluster::SampleQuery(GraphOp::kDegree, *graph_, rng);
    cluster.Submit(q, 0, [&](const WorkItem&, Outcome,
                             const GraphQueryResult&) {
      finished.fetch_add(1);
    });
  }
  while (finished.load() < 40) std::this_thread::yield();
  EXPECT_GT(cluster.broker(0)->counters().received, 0u);
  EXPECT_GT(cluster.broker(1)->counters().received, 0u);
  cluster.Stop();
}

TEST_F(ClusterTest, UpdateEdgesPastTheGraphAreNeighboursWithoutSizingSets) {
  // The update log accepts any destination id. Ids past the snapshot are
  // neighbours like any other, but must not size the broker's per-worker
  // sets: sized by id, 0xFFFFFFF0 alone would ask for gigabytes.
  const Slo slo{18 * kMillisecond, 50 * kMillisecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  uint32_t source = 0;
  while (graph_->Degree(source) > 60) ++source;
  uint32_t other = source + 1;
  while (graph_->Degree(other) > 60) ++other;
  constexpr uint32_t kFarId = 0xFFFFFFF0u;
  EdgeUpdateLog log;
  log.AddEdge(source, kFarId);
  log.AddEdge(source, graph_->num_vertices());
  log.AddEdge(other, kFarId);
  Cluster::Options options = DefaultOptions();
  options.update_log = &log;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());

  const auto neighbors = Ask(cluster, {GraphOp::kNeighbors, source, 0, 0});
  EXPECT_TRUE(neighbors.result.ok);
  EXPECT_EQ(neighbors.result.value, graph_->Degree(source) + 2u);

  const auto sa = graph_->Neighbors(source);
  const auto sb = graph_->Neighbors(other);
  const std::set<uint32_t> a(sa.begin(), sa.end());
  uint64_t common = 1;  // kFarId.
  for (const uint32_t u : std::set<uint32_t>(sb.begin(), sb.end())) {
    common += a.count(u);
  }
  const auto intersection =
      Ask(cluster, {GraphOp::kCommonNeighbors, source, other, 0});
  EXPECT_TRUE(intersection.result.ok);
  EXPECT_EQ(intersection.result.value, common);

  const auto distance =
      Ask(cluster, {GraphOp::kDistance3, source, kFarId, 0});
  EXPECT_TRUE(distance.result.ok);
  EXPECT_EQ(distance.result.value, 1u);
  cluster.Stop();
}

}  // namespace
}  // namespace bouncer::graph
