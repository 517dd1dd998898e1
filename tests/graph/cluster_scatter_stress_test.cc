// Stress and regression tests for the pooled/async scatter-gather path:
// countdown correctness under synchronous shard rejections, end-to-end
// shed propagation, fail-fast on a failed query, wake-ups through the
// parked hand-offs (each round's last completion wakes its own
// gatherer; a sibling subquery wakes its shard's worker, the gatherer's
// own share wakes nobody), the park counters, and query values against
// recorded golden folds and the single-run-queue core. The suite name
// (ClusterScatter*) is matched by the TSan CI job's ctest regex.

#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "src/graph/cluster.h"
#include "src/graph/graph_generator.h"
#include "src/stats/metric_registry.h"

namespace bouncer::graph {
namespace {

using server::Outcome;

const Slo kSlo{18 * kMillisecond, 50 * kMillisecond, 0};

class ClusterScatterStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.num_vertices = 5000;
    options.edges_per_vertex = 8;
    options.seed = 11;
    graph_ = new GraphStore(GeneratePreferentialAttachment(options));
  }

  /// Submits `queries`, waits for every completion callback (bounded),
  /// and returns how many results carried ok == false.
  struct FloodResult {
    int done = 0;
    int failed_results = 0;
  };
  FloodResult Flood(Cluster& cluster, const std::vector<GraphQuery>& queries,
                    int timeout_ms = 30000) {
    std::mutex mu;
    std::condition_variable cv;
    FloodResult out;
    for (const GraphQuery& q : queries) {
      cluster.Submit(q, /*deadline=*/0,
                     [&](const server::WorkItem&, Outcome,
                         const GraphQueryResult& result) {
                       std::lock_guard<std::mutex> lock(mu);
                       ++out.done;
                       if (!result.ok) ++out.failed_results;
                       cv.notify_all();
                     });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
      return out.done == static_cast<int>(queries.size());
    });
    return out;
  }

  /// Submits one query and blocks until its completion callback ran.
  static GraphQueryResult Ask(Cluster& cluster, const GraphQuery& q) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    GraphQueryResult out;
    cluster.Submit(q, /*deadline=*/0,
                   [&](const server::WorkItem&, Outcome,
                       const GraphQueryResult& result) {
                     std::lock_guard<std::mutex> lock(mu);
                     out = result;
                     done = true;
                     cv.notify_all();
                   });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return out;
  }

  /// Runs `clients` threads, each asking `per_client` queries one after
  /// another (pausing first, so that idle workers and gatherers have
  /// parked), alternating `even_op` and `odd_op` queries. Returns the
  /// wall time of the whole run; every answer must be ok.
  static std::chrono::steady_clock::duration AskConcurrently(
      Cluster& cluster, int clients, int per_client, GraphOp even_op,
      GraphOp odd_op) {
    std::atomic<int> failed{0};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(200 + c);
        for (int i = 0; i < per_client; ++i) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          const GraphOp op = i % 2 == 0 ? even_op : odd_op;
          const GraphQuery q = Cluster::SampleQuery(op, *graph_, rng);
          if (!Ask(cluster, q).ok) failed.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failed.load(), 0);
    return std::chrono::steady_clock::now() - start;
  }

  static GraphStore* graph_;
};

GraphStore* ClusterScatterStressTest::graph_ = nullptr;

/// A 1-slot shard queue with a MaxQL(1) shard policy makes shards reject
/// subqueries synchronously — often from inside the broker's submit loop,
/// before later shards of the same round were even reached. The gather
/// countdown must still reach zero exactly once per round (it is
/// preloaded with the full round size before any submit), or the broker
/// worker deadlocks on the gate / double-notifies a recycled round.
Cluster::Options OneSlotShardOptions() {
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 8;
  options.num_shards = 2;
  options.shard_workers = 1;
  // Heavy subqueries: each one occupies the single shard worker long
  // enough for concurrent rounds to stack up behind the 1-slot queue —
  // otherwise the gather's work-helping drains it before the next
  // Decide ever sees a nonzero length and nothing is rejected.
  options.work_per_edge = 2048;
  options.shard_queue_capacity = 1;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kMaxQueueLength;
  options.shard_policy.max_queue_length.length_limit = 1;
  return options;
}

TEST_F(ClusterScatterStressTest, OneSlotShardQueueFloodFast) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster cluster(graph_, &registry, SystemClock::Global(),
                  OneSlotShardOptions());
  ASSERT_TRUE(cluster.Start().ok());
  // Multi-round queries: every round must independently survive partial
  // synchronous rejection.
  Rng rng(21);
  std::vector<GraphQuery> queries;
  for (int i = 0; i < 200; ++i) {
    queries.push_back(
        Cluster::SampleQuery(GraphOp::kTwoHopDedup, *graph_, rng));
  }
  const FloodResult out = Flood(cluster, queries);
  cluster.Stop();
  // Conservation: every query terminated exactly once, no deadlock.
  EXPECT_EQ(out.done, 200);
  // The flood must actually have tripped synchronous rejections.
  EXPECT_GT(cluster.shard_failures(), 0u);
  EXPECT_GT(out.failed_results, 0);
}

/// End-to-end shard shedding: a shard-tier rejection must surface to the
/// client as GraphQueryResult.ok == false and be counted in
/// shard_failures(), while the broker outcome stays kCompleted (the
/// broker did its work; the data plane failed).
TEST_F(ClusterScatterStressTest, ShardShedPropagatesToResult) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster cluster(graph_, &registry, SystemClock::Global(),
                  OneSlotShardOptions());
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(23);
  // Whether a flood trips the 1-slot shard queue depends on scheduling
  // (a single-core host can drain it between submits), so retry the
  // flood until at least one shed occurs; conservation must hold on
  // every attempt.
  int completed_not_ok = 0;
  for (int attempt = 0; attempt < 5 && completed_not_ok == 0; ++attempt) {
    std::vector<GraphQuery> queries;
    for (int i = 0; i < 300; ++i) {
      queries.push_back(
          Cluster::SampleQuery(GraphOp::kNeighborDegreeSum, *graph_, rng));
    }
    std::mutex mu;
    std::condition_variable cv;
    int done = 0;
    for (const GraphQuery& q : queries) {
      cluster.Submit(q, /*deadline=*/0,
                     [&](const server::WorkItem&, Outcome outcome,
                         const GraphQueryResult& result) {
                       std::lock_guard<std::mutex> lock(mu);
                       ++done;
                       if (outcome == Outcome::kCompleted && !result.ok) {
                         ++completed_not_ok;
                       }
                       cv.notify_all();
                     });
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::seconds(30),
                  [&] { return done == static_cast<int>(queries.size()); });
    }
    ASSERT_EQ(done, 300) << "attempt " << attempt;
  }
  cluster.Stop();
  EXPECT_GT(completed_not_ok, 0);
  EXPECT_GT(cluster.shard_failures(), 0u);
}

/// Mixed-op concurrent stress with wide-open admission: every op class
/// in flight at once, everything completes ok.
TEST_F(ClusterScatterStressTest, MixedOpsConcurrentAllComplete) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 8;
  options.num_shards = 3;  // Odd count: single-shard rounds + batches mix.
  options.shard_workers = 2;
  options.work_per_edge = 4;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(31);
  std::vector<GraphQuery> queries;
  for (int i = 0; i < 400; ++i) {
    const auto op = static_cast<GraphOp>(i % kNumGraphOps);
    queries.push_back(Cluster::SampleQuery(op, *graph_, rng));
  }
  const FloodResult out = Flood(cluster, queries);
  cluster.Stop();
  EXPECT_EQ(out.done, 400);
  EXPECT_EQ(out.failed_results, 0);
  EXPECT_EQ(cluster.shard_failures(), 0u);
}

/// Golden values for FastMatchesLegacyValues: per op, an FNV-1a fold of
/// the 25 query values at Rng(41), recorded from the blocking
/// sort/unique scatter-gather the current path replaced. Expand returns
/// unordered sets truncated to the smallest k ids, so intermediate
/// buffers differ in order from the sorted originals; every observable
/// value must not.
constexpr uint64_t kLegacyValueFolds[kNumGraphOps] = {
    0xf74772d20116ed80ull, 0xaae9792bfd908abdull, 0x532be2b8dd868284ull,
    0x3a98b0295c531040ull, 0xe3b0f53dfc292644ull, 0xda182cf72aec41d0ull,
    0xe145797d9c7ebf42ull, 0x36a62f8d9cf9397aull, 0x4a7a5eef02023c79ull,
    0x363af833ccff9392ull, 0x7048257aa21c2ce7ull,
};

TEST_F(ClusterScatterStressTest, FastMatchesLegacyValues) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 2;
  options.num_shards = 2;
  options.shard_workers = 1;
  options.work_per_edge = 4;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());

  Rng rng(41);
  for (size_t op = 0; op < kNumGraphOps; ++op) {
    uint64_t fold = 0xcbf29ce484222325ull;  // FNV-1a offset basis.
    for (int i = 0; i < 25; ++i) {
      const GraphQuery q =
          Cluster::SampleQuery(static_cast<GraphOp>(op), *graph_, rng);
      const GraphQueryResult result = Ask(cluster, q);
      ASSERT_TRUE(result.ok);
      fold ^= result.value;
      fold *= 0x100000001b3ull;  // FNV-1a prime.
    }
    EXPECT_EQ(fold, kLegacyValueFolds[op]) << "op " << op;
  }
  cluster.Stop();
}

/// Execution-core equivalence: the sharded core (per-worker run queues
/// with stealing, striped admission counters) and the forced single
/// global FIFO produce identical query values for every op.
TEST_F(ClusterScatterStressTest, ShardedMatchesSingleQueueValues) {
  QueryTypeRegistry registry_sharded = Cluster::MakeRegistry(kSlo);
  QueryTypeRegistry registry_single = Cluster::MakeRegistry(kSlo);
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 4;
  options.num_shards = 2;
  options.shard_workers = 2;
  options.work_per_edge = 4;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  Cluster sharded(graph_, &registry_sharded, SystemClock::Global(), options);
  options.force_single_queue = true;
  Cluster single(graph_, &registry_single, SystemClock::Global(), options);
  ASSERT_TRUE(sharded.Start().ok());
  ASSERT_TRUE(single.Start().ok());

  Rng rng(61);
  for (size_t op = 0; op < kNumGraphOps; ++op) {
    for (int i = 0; i < 10; ++i) {
      const GraphQuery q =
          Cluster::SampleQuery(static_cast<GraphOp>(op), *graph_, rng);
      const GraphQueryResult a = Ask(sharded, q);
      const GraphQueryResult b = Ask(single, q);
      ASSERT_TRUE(a.ok);
      ASSERT_TRUE(b.ok);
      EXPECT_EQ(a.value, b.value)
          << "op " << op << " source " << q.source << " target " << q.target;
    }
  }
  sharded.Stop();
  single.Stop();
}

/// TSan target for the sharded execution core end to end: concurrent
/// SubmitBatch callers with distinct run-queue hints (the network-loop
/// pattern) flood a multi-ring broker stage while gathering broker
/// workers TryRunOne-steal from the multi-ring shard stages mid-scatter.
/// Every query must terminate exactly once with a correct result.
TEST_F(ClusterScatterStressTest, ShardedBrokerStealFlood) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 4;  // 4 broker rings.
  options.num_shards = 2;
  options.shard_workers = 2;  // 2 rings per shard, stolen by gatherers.
  options.work_per_edge = 4;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());

  constexpr int kLoops = 4;
  constexpr int kBatchesPerLoop = 50;
  constexpr int kBatchSize = 8;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  int failed = 0;
  std::vector<std::thread> loops;
  for (int loop = 0; loop < kLoops; ++loop) {
    loops.emplace_back([&, loop] {
      Rng rng(100 + loop);
      for (int b = 0; b < kBatchesPerLoop; ++b) {
        std::vector<Cluster::BatchRequest> batch(kBatchSize);
        for (auto& request : batch) {
          request.query = Cluster::SampleQuery(GraphOp::kNeighborDegreeSum,
                                               *graph_, rng);
          request.done = [&](const server::WorkItem&, Outcome,
                             const GraphQueryResult& result) {
            std::lock_guard<std::mutex> lock(mu);
            ++done;
            if (!result.ok) ++failed;
            cv.notify_all();
          };
        }
        cluster.SubmitBatch(batch, static_cast<uint32_t>(loop));
      }
    });
  }
  for (auto& t : loops) t.join();

  constexpr int kTotal = kLoops * kBatchesPerLoop * kBatchSize;
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30),
                [&] { return done == kTotal; });
  }
  cluster.Stop();
  EXPECT_EQ(done, kTotal);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(cluster.shard_failures(), 0u);
}

/// Two shards, one broker worker, light subqueries: the setting of the
/// fail-fast and wake-up tests below.
Cluster::Options TwoShardOptions() {
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 1;
  options.num_shards = 2;
  options.shard_workers = 1;
  options.work_per_edge = 4;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  return options;
}

uint64_t ShardReceived(Cluster& cluster, size_t shard) {
  return cluster.shard(shard)->counters().received;
}

/// Fail fast across rounds: with both shards stopped, every subquery is
/// refused inside its Submit (a stopped stage sheds). QT4 is two
/// single-vertex Expand rounds; once the first fails the query's answer
/// is lost, so the second must not reach a shard at all.
TEST_F(ClusterScatterStressTest, FailFastSkipsRoundsAfterAFailedRound) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster cluster(graph_, &registry, SystemClock::Global(),
                  TwoShardOptions());
  ASSERT_TRUE(cluster.Start().ok());
  cluster.shard(0)->Stop(/*drain=*/false);
  cluster.shard(1)->Stop(/*drain=*/false);
  constexpr int kQueries = 20;
  Rng rng(71);
  for (int i = 0; i < kQueries; ++i) {
    const GraphQuery q =
        Cluster::SampleQuery(GraphOp::kCommonNeighbors, *graph_, rng);
    const GraphQueryResult result = Ask(cluster, q);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.value, 0u);
    EXPECT_EQ(result.fail_reason,
              static_cast<uint8_t>(RejectReason::kShardQueueFull));
  }
  EXPECT_EQ(ShardReceived(cluster, 0) + ShardReceived(cluster, 1),
            static_cast<uint64_t>(kQueries));
  cluster.Stop();
}

/// Fail fast within a round: shard 0 is stopped, shard 1 serves. QT5 on
/// an odd source runs its Expand round on shard 1 alone, then a degree
/// round over neighbours of both parities; shard 0 (submitted first)
/// refuses synchronously, so shard 1's share of that round is skipped.
/// The failed query reports value 0, not shard 1's partial degree sum.
TEST_F(ClusterScatterStressTest, FailFastSkipsRoundSiblings) {
  std::vector<uint32_t> sources;
  for (uint32_t v = 1; v < graph_->num_vertices() && sources.size() < 20;
       v += 2) {
    const auto neighbors = graph_->Neighbors(v);
    if (neighbors.size() > 128) continue;  // Keep the Expand cap moot.
    bool even = false;
    bool odd = false;
    for (const uint32_t u : neighbors) {
      if (u % 2 == 0) {
        even = true;
      } else {
        odd = true;
      }
    }
    if (even && odd) sources.push_back(v);
  }
  ASSERT_EQ(sources.size(), 20u);

  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster cluster(graph_, &registry, SystemClock::Global(),
                  TwoShardOptions());
  ASSERT_TRUE(cluster.Start().ok());
  cluster.shard(0)->Stop(/*drain=*/false);
  for (const uint32_t v : sources) {
    GraphQuery q;
    q.op = GraphOp::kNeighborDegreeSum;
    q.source = v;
    const GraphQueryResult result = Ask(cluster, q);
    EXPECT_FALSE(result.ok) << "source " << v;
    EXPECT_EQ(result.value, 0u) << "source " << v;
  }
  // One subquery per query on each shard: the Expand round on shard 1,
  // the refused degree subquery on shard 0.
  EXPECT_EQ(ShardReceived(cluster, 0), sources.size());
  EXPECT_EQ(ShardReceived(cluster, 1), sources.size());
  cluster.Stop();
}

/// Broker and shard workers park as soon as their rings are dry, and the
/// gatherer parks as soon as every shard queue is. Each of these
/// sequential multi-round queries pauses first, so that every worker has
/// parked, and then crosses parked hand-offs (the broker's always; a
/// shard's when its worker beats the helping gatherer to a subquery): a
/// lost wake-up costs the 10 ms park backstop, and a few hundred of them
/// would blow the bound.
TEST_F(ClusterScatterStressTest,
       SequentialMultiRoundQueriesNeverWaitForBackstop) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster::Options options = TwoShardOptions();
  options.broker_workers = 4;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());
  constexpr int kQueries = 1000;
  Rng rng(81);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kQueries; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    const GraphOp op =
        i % 2 == 0 ? GraphOp::kNeighborDegreeSum : GraphOp::kTwoHopDedup;
    ASSERT_TRUE(Ask(cluster, Cluster::SampleQuery(op, *graph_, rng)).ok);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  cluster.Stop();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

/// A clock that slows the threads of a scatter down in a fixed pattern:
/// every Now() on a shard worker sleeps 500 us and every Now() on a
/// broker worker 100 us (threads are told apart by their names). A shard
/// worker woken for a sibling subquery thus pops it while the gatherer
/// still sleeps in its own share, and then holds it for a millisecond:
/// the gatherer finds every queue dry and parks until the worker's
/// completion wakes it.
class HandOffClock final : public Clock {
 public:
  Nanos Now() const override {
    char name[16] = {};
    ::pthread_getname_np(::pthread_self(), name, sizeof(name));
    if (std::strncmp(name, "shard-", 6) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    } else if (std::strncmp(name, "broker-", 7) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return SystemClock::Global()->Now();
  }
};

/// The gather rule: each of these sequential QT5 queries ends with a
/// degree round over both shards whose sibling subquery the shard worker
/// runs, so the gatherer parks on nearly every query. The round's last
/// completion must wake it; a lost wake-up costs the full 10 ms
/// backstop, and a few dozen of them would blow the bound.
TEST_F(ClusterScatterStressTest,
       SequentialTwoShardRoundsNeverWaitForBackstop) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  HandOffClock clock;
  Cluster cluster(graph_, &registry, &clock, TwoShardOptions());
  ASSERT_TRUE(cluster.Start().ok());
  const auto elapsed =
      AskConcurrently(cluster, /*clients=*/1, /*per_client=*/100,
                      GraphOp::kNeighborDegreeSum, GraphOp::kNeighborDegreeSum);
  cluster.Stop();
  EXPECT_LT(elapsed, std::chrono::milliseconds(600));
}

/// The gather rule under concurrency: four clients ask single-shard
/// (QT1) and two-shard (QT5) queries at once, so gatherers help each
/// other's rounds and park while another thread runs their last
/// subquery. Each round's last completion must wake exactly the
/// gatherer that waits on it; a lost one costs the 10 ms backstop.
TEST_F(ClusterScatterStressTest,
       ConcurrentSingleAndTwoShardQueriesNeverWaitForBackstop) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  HandOffClock clock;
  Cluster::Options options = TwoShardOptions();
  options.broker_workers = 4;
  Cluster cluster(graph_, &registry, &clock, options);
  ASSERT_TRUE(cluster.Start().ok());
  const auto elapsed =
      AskConcurrently(cluster, /*clients=*/4, /*per_client=*/100,
                      GraphOp::kDegree, GraphOp::kNeighborDegreeSum);
  cluster.Stop();
  EXPECT_LT(elapsed, std::chrono::milliseconds(350));
}

/// The scatter rule for single-shard rounds: with one shard, four
/// gatherers race for its queue, and every subquery that cannot run
/// inline is queued without waking the shard worker. The gatherers'
/// help must drain those; a subquery left for the parked worker costs
/// the 10 ms backstop.
TEST_F(ClusterScatterStressTest,
       ConcurrentSingleShardQueriesNeverWaitForBackstop) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  HandOffClock clock;
  Cluster::Options options = TwoShardOptions();
  options.num_shards = 1;
  options.broker_workers = 4;
  Cluster cluster(graph_, &registry, &clock, options);
  ASSERT_TRUE(cluster.Start().ok());
  const auto elapsed =
      AskConcurrently(cluster, /*clients=*/4, /*per_client=*/100,
                      GraphOp::kDegree, GraphOp::kNeighbors);
  cluster.Stop();
  EXPECT_LT(elapsed, std::chrono::milliseconds(300));
}

/// The scatter rule for multi-shard rounds: the sibling subquery of a
/// two-shard round wakes its shard's parked worker, so the round runs on
/// two threads. Each of these sequential QT5 queries pauses first, so the
/// shard workers are parked when its degree round (both shards) goes
/// out; every wake ends one park. Without the sibling wakes the workers
/// wake only on the 10 ms backstop, a few dozen times in this run.
TEST_F(ClusterScatterStressTest, TwoShardRoundsWakeTheSiblingShardWorker) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster cluster(graph_, &registry, SystemClock::Global(),
                  TwoShardOptions());
  ASSERT_TRUE(cluster.Start().ok());
  constexpr int kQueries = 1000;
  const auto parks = [&cluster] {
    return cluster.shard(0)->counters().worker_parks +
           cluster.shard(1)->counters().worker_parks;
  };
  const uint64_t parks_before = parks();
  const auto elapsed =
      AskConcurrently(cluster, /*clients=*/1, kQueries,
                      GraphOp::kNeighborDegreeSum, GraphOp::kNeighborDegreeSum);
  const uint64_t parks_during = parks() - parks_before;
  cluster.Stop();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  // Backstop wake-ups alone would give 2 workers x 100/s x elapsed.
  const auto backstop_parks = static_cast<uint64_t>(
      2 * 100 * std::chrono::duration<double>(elapsed).count());
  EXPECT_GE(parks_during, static_cast<uint64_t>(kQueries / 2));
  EXPECT_GT(parks_during, 4 * backstop_parks);
}

/// Observability: a gatherer that finds every shard queue dry while its
/// round is still in flight parks, and the park shows in
/// cluster.gather_parks (the HandOffClock makes the shard worker hold
/// the sibling subquery of a QT5 degree round).
TEST_F(ClusterScatterStressTest, ParkedGathererCountsInGatherParks) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  HandOffClock clock;
  stats::MetricRegistry metrics;
  Cluster::Options options = TwoShardOptions();
  options.metrics = &metrics;
  Cluster cluster(graph_, &registry, &clock, options);
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(91);
  for (int i = 0; i < 100 && cluster.gather_parks() == 0; ++i) {
    const GraphQuery q =
        Cluster::SampleQuery(GraphOp::kNeighborDegreeSum, *graph_, rng);
    ASSERT_TRUE(Ask(cluster, q).ok);
  }
  EXPECT_GT(cluster.gather_parks(), 0u);
  uint64_t published = 0;
  for (const auto& [name, value] : metrics.Snapshot().counters) {
    if (name == "cluster.gather_parks") published = value;
  }
  EXPECT_GT(published, 0u);
  cluster.Stop();
}

/// Gather lots outlive Stop(): a restarted cluster's new broker threads
/// take the lots back over, and their parks still get woken.
TEST_F(ClusterScatterStressTest, RestartedClusterReusesGatherLots) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  HandOffClock clock;
  Cluster cluster(graph_, &registry, &clock, TwoShardOptions());
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(cluster.Start().ok()) << "cycle " << cycle;
    const uint64_t parks_before = cluster.gather_parks();
    const auto elapsed =
        AskConcurrently(cluster, /*clients=*/1, /*per_client=*/20,
                        GraphOp::kNeighborDegreeSum,
                        GraphOp::kNeighborDegreeSum);
    cluster.Stop();
    EXPECT_GT(cluster.gather_parks(), parks_before) << "cycle " << cycle;
    EXPECT_LT(elapsed, std::chrono::milliseconds(150)) << "cycle " << cycle;
  }
}

/// Satellite (f): with Options::shard_metrics wired, shard stages report
/// Points 1–3 per subquery batch — enough to compute shard utilization
/// (BusyMs over the worker-time budget).
TEST_F(ClusterScatterStressTest, ShardMetricsReportBusyTime) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  server::MetricsCollector shard_metrics(registry.size());
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 4;
  options.num_shards = 2;
  options.shard_workers = 1;
  options.work_per_edge = 24;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_metrics = &shard_metrics;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(51);
  std::vector<GraphQuery> queries;
  for (int i = 0; i < 100; ++i) {
    queries.push_back(
        Cluster::SampleQuery(GraphOp::kNeighborDegreeSum, *graph_, rng));
  }
  const FloodResult out = Flood(cluster, queries);
  cluster.Stop();
  ASSERT_EQ(out.done, 100);
  const server::TypeReport report = shard_metrics.Overall();
  // Each query runs >= 2 scatter rounds over 2 shards: plenty of batches.
  EXPECT_GE(report.completed, 100u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_GT(report.pt_mean_ms, 0.0);
  EXPECT_GT(report.BusyMs(), 0.0);  // Utilization numerator is populated.
}

}  // namespace
}  // namespace bouncer::graph
