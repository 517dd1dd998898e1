// Multi-reactor correctness: NetServer sharded across N event loops
// fronting one Cluster, driven over 127.0.0.1. Covers loop counts
// {1, 2, 4} end-to-end (answers checked against the graph, rejections
// delivered, per-loop stats summing to the aggregate, non-degenerate
// connection distribution), clean Stop with work still in flight, and a
// concurrent multi-client stress the TSan job runs (the
// "NetMultiReactor" suite name keeps it inside the CI regex).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/cluster.h"
#include "src/graph/graph_generator.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"

namespace bouncer::net {
namespace {

using graph::Cluster;
using graph::GraphOp;
using graph::GraphStore;

GraphStore MakeGraph() {
  graph::GeneratorOptions options;
  options.num_vertices = 2'000;
  options.edges_per_vertex = 6;
  return graph::GeneratePreferentialAttachment(options);
}

Cluster::Options SmallCluster(bool rejecting) {
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 2;
  options.num_shards = 2;
  options.shard_workers = 1;
  options.work_per_edge = 4;
  if (rejecting) {
    options.broker_policy.kind = PolicyKind::kMaxQueueLength;
    options.broker_policy.max_queue_length.length_limit = 1;
  } else {
    options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  }
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  return options;
}

struct ReactorHarness {
  explicit ReactorHarness(size_t num_loops, bool rejecting = false)
      : graph(MakeGraph()),
        registry(Cluster::MakeRegistry(Slo{kSecond, 2 * kSecond, 0})),
        cluster(&graph, &registry, SystemClock::Global(),
                SmallCluster(rejecting)) {
    EXPECT_TRUE(cluster.Start().ok());
    NetServer::Options server_options;
    server_options.num_loops = num_loops;
    server = std::make_unique<NetServer>(&cluster, server_options);
    EXPECT_TRUE(server->Start().ok());
  }

  ~ReactorHarness() {
    server->Stop();
    cluster.Stop();
  }

  GraphStore graph;
  QueryTypeRegistry registry;
  Cluster cluster;
  std::unique_ptr<NetServer> server;
};

NetClient::Options ClientOptions(uint16_t port, size_t conns,
                                 size_t in_flight) {
  NetClient::Options options;
  options.port = port;
  options.num_connections = conns;
  options.num_io_threads = 2;
  options.in_flight_per_conn = in_flight;
  return options;
}

/// Closed-loop degree queries until >= `min_queries` are queued, then a
/// full drain; every kOk answer is checked against the graph via the
/// per-connection deterministic vertex choice.
NetClient::Counters DriveDegreeLoad(ReactorHarness& harness, size_t conns,
                                    size_t in_flight, uint64_t min_queries) {
  const uint32_t num_vertices = harness.graph.num_vertices();
  NetClient client(
      ClientOptions(harness.server->port(), conns, in_flight),
      [num_vertices](size_t conn_index, uint64_t seq) {
        RequestFrame frame;
        frame.op = static_cast<uint8_t>(GraphOp::kDegree);
        frame.source =
            static_cast<uint32_t>((conn_index * 7919 + seq * 104'729) %
                                  num_vertices);
        return frame;
      });
  EXPECT_TRUE(client.Start().ok());
  client.StartClosedLoop();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (client.counters().queued < min_queries &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.StopSending();
  EXPECT_TRUE(client.WaitForDrain(10 * kSecond));
  client.Stop();
  return client.counters();
}

TEST(NetMultiReactorTest, AnswersEveryQueryAtEachLoopCount) {
  for (const size_t loops : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(loops);
    ReactorHarness harness(loops);
    ASSERT_EQ(harness.server->num_loops(), loops);
    const auto counters = DriveDegreeLoad(harness, /*conns=*/16,
                                          /*in_flight=*/4, /*min=*/1200);
    EXPECT_EQ(counters.conn_errors, 0u);
    EXPECT_GE(counters.queued, 1200u);
    EXPECT_EQ(counters.responses, counters.queued);
    EXPECT_EQ(counters.ok, counters.responses);

    // Per-loop counters must sum exactly to the aggregate, and with
    // multiple loops the connection distribution must be non-degenerate
    // (SO_REUSEPORT hashes 16 connections across the listeners; all on
    // one loop is a ~4^-15 event).
    const NetServer::Stats total = harness.server->AggregateStats();
    EXPECT_EQ(total.requests, total.responses);
    EXPECT_EQ(total.bad_frames, 0u);
    EXPECT_EQ(total.nodelay_failures, 0u);
    uint64_t sum_requests = 0, sum_accepted = 0;
    size_t loops_with_conns = 0;
    for (size_t i = 0; i < harness.server->num_loops(); ++i) {
      const NetServer::Stats s = harness.server->LoopStats(i);
      sum_requests += s.requests;
      sum_accepted += s.connections_accepted;
      if (s.connections_accepted > 0) ++loops_with_conns;
    }
    EXPECT_EQ(sum_requests, total.requests);
    EXPECT_EQ(sum_accepted, total.connections_accepted);
    if (loops > 1) {
      EXPECT_GE(loops_with_conns, 2u)
          << "every connection landed on a single loop";
    }
  }
}

TEST(NetMultiReactorTest, RejectionsDeliveredAcrossLoops) {
  // One-deep broker queue: most queries come back kRejected,
  // synchronously from whichever loop submitted them; counts must
  // reconcile across client, aggregate, and per-loop views.
  ReactorHarness harness(/*num_loops=*/2, /*rejecting=*/true);
  const uint32_t num_vertices = harness.graph.num_vertices();
  NetClient client(
      ClientOptions(harness.server->port(), /*conns=*/8, /*in_flight=*/8),
      [num_vertices](size_t conn_index, uint64_t seq) {
        RequestFrame frame;
        frame.op = static_cast<uint8_t>(GraphOp::kDegree);
        frame.source =
            static_cast<uint32_t>((conn_index + seq) % num_vertices);
        return frame;
      });
  ASSERT_TRUE(client.Start().ok());
  client.StartClosedLoop();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (client.counters().queued < 2000 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.StopSending();
  ASSERT_TRUE(client.WaitForDrain(10 * kSecond));
  client.Stop();

  const auto counters = client.counters();
  EXPECT_EQ(counters.responses, counters.queued);
  EXPECT_GT(counters.rejected + counters.shedded, 0u);
  EXPECT_GT(counters.ok, 0u);
  const NetServer::Stats total = harness.server->AggregateStats();
  EXPECT_EQ(total.rejections, counters.rejected + counters.shedded);
  uint64_t per_loop_rejections = 0;
  for (size_t i = 0; i < harness.server->num_loops(); ++i) {
    per_loop_rejections += harness.server->LoopStats(i).rejections;
  }
  EXPECT_EQ(per_loop_rejections, total.rejections);
}

TEST(NetMultiReactorTest, CleanStopWithInflightWork) {
  // Stop all four loops while admitted queries are still executing on
  // cluster workers, then stop the cluster (the required order). The
  // workers' completions route to rings whose loops are gone — they must
  // be dropped, not deadlock the shutdown; slow expensive queries keep
  // plenty in flight at the moment of the Stop.
  ReactorHarness harness(/*num_loops=*/4);
  const uint32_t num_vertices = harness.graph.num_vertices();
  NetClient client(
      ClientOptions(harness.server->port(), /*conns=*/8, /*in_flight=*/16),
      [num_vertices](size_t conn_index, uint64_t seq) {
        RequestFrame frame;
        frame.op = static_cast<uint8_t>(GraphOp::kDistance4);
        frame.source = static_cast<uint32_t>((conn_index * 131) %
                                             num_vertices);
        frame.target = static_cast<uint32_t>((seq * 137) % num_vertices);
        return frame;
      });
  ASSERT_TRUE(client.Start().ok());
  client.StartClosedLoop();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.server->AggregateStats().requests < 64 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(harness.server->AggregateStats().requests, 64u);

  client.StopSending();
  harness.server->Stop();  // In-flight work outlives the loops.
  harness.cluster.Stop();  // Must not hang on orphaned completions.
  client.Stop();
  const NetServer::Stats stats = harness.server->AggregateStats();
  EXPECT_EQ(stats.responses, stats.requests);
}

/// The names of this process's threads, from /proc/self/task/*/comm.
std::vector<std::string> ThreadNames() {
  std::vector<std::string> names;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) names.push_back(name);
  }
  return names;
}

TEST(NetMultiReactorTest, ServerThreadsAreNamed) {
  // Every server thread carries its role in its name, so per-thread CPU
  // (top -H, /proc/<pid>/task/*/stat) can be attributed without relying
  // on thread creation order.
  ReactorHarness harness(/*num_loops=*/2);
  NetClient client(ClientOptions(harness.server->port(), /*conns=*/2,
                                 /*in_flight=*/1),
                   [](size_t, uint64_t) { return RequestFrame{}; });
  ASSERT_TRUE(client.Start().ok());
  const std::vector<std::string> names = ThreadNames();
  client.Stop();
  // SmallCluster: one broker with two workers, two shards with one each.
  for (const char* expected :
       {"net-loop0", "net-loop1", "broker-0-w0", "broker-0-w1", "shard-0-w0",
        "shard-1-w0", "netcli-io0", "netcli-io1"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(NetMultiReactorTest, ConcurrentClientsAcrossLoopsStress) {
  // TSan surface: three independent clients (each with its own IO
  // threads) hammer a 4-loop server concurrently, so accept paths,
  // parse/submit batches, worker completions, and per-loop counters all
  // race for real. Every client must get every answer.
  ReactorHarness harness(/*num_loops=*/4);
  const uint32_t num_vertices = harness.graph.num_vertices();
  constexpr size_t kClients = 3;
  std::vector<NetClient::Counters> results(kClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      NetClient client(
          ClientOptions(harness.server->port(), /*conns=*/4,
                        /*in_flight=*/4),
          [num_vertices, c](size_t conn_index, uint64_t seq) {
            RequestFrame frame;
            frame.op = static_cast<uint8_t>(
                seq % 8 == 0 ? GraphOp::kNeighbors : GraphOp::kDegree);
            frame.source = static_cast<uint32_t>(
                (c * 7919 + conn_index * 104'729 + seq) % num_vertices);
            return frame;
          });
      ASSERT_TRUE(client.Start().ok());
      client.StartClosedLoop();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (client.counters().queued < 400 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      client.StopSending();
      EXPECT_TRUE(client.WaitForDrain(10 * kSecond));
      client.Stop();
      results[c] = client.counters();
    });
  }
  for (auto& thread : threads) thread.join();

  uint64_t total_queued = 0, total_responses = 0;
  for (const auto& counters : results) {
    EXPECT_EQ(counters.conn_errors, 0u);
    EXPECT_EQ(counters.responses, counters.queued);
    EXPECT_EQ(counters.failed, 0u);
    total_queued += counters.queued;
    total_responses += counters.responses;
  }
  EXPECT_GE(total_queued, kClients * 400u);
  const NetServer::Stats total = harness.server->AggregateStats();
  EXPECT_EQ(total.requests, total_queued);
  EXPECT_EQ(total.responses, total_responses);
  EXPECT_EQ(total.bad_frames, 0u);
}

}  // namespace
}  // namespace bouncer::net
