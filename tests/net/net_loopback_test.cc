// End-to-end loopback tests: NetServer fronting a real Cluster, driven
// by NetClient over 127.0.0.1. This is also the CI smoke test for the
// network front-end (ctest runs it on every push): ~1k queries per mode,
// every one answered, degree answers checked against the graph, and
// rejection status codes verified against a rejecting admission policy.
// The "NetLoopback" suite name keeps it inside the TSan job's regex.

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/tenant_registry.h"
#include "src/graph/cluster.h"
#include "src/graph/graph_generator.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/stats/metric_registry.h"
#include "src/util/rng.h"

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
    // A one-deep queue door: every query that arrives while another is
    // queued gets a synchronous early rejection.
    options.broker_policy.kind = PolicyKind::kMaxQueueLength;
    options.broker_policy.max_queue_length.length_limit = 1;
  } else {
    options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  }
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  return options;
}

struct LoopbackHarness {
  explicit LoopbackHarness(bool rejecting = false)
      : graph(MakeGraph()),
        registry(Cluster::MakeRegistry(Slo{kSecond, 2 * kSecond, 0})),
        cluster(&graph, &registry, SystemClock::Global(),
                SmallCluster(rejecting)) {
    EXPECT_TRUE(cluster.Start().ok());
    NetServer::Options server_options;
    // Every loopback test runs with the tenant dimension wired in: v1
    // traffic lands on the default tenant, so the single-tenant cases
    // double as wire-compat coverage.
    server_options.tenants = &tenants;
    server_options.metrics = &metrics;
    server = std::make_unique<NetServer>(&cluster, server_options);
    EXPECT_TRUE(server->Start().ok());
  }

  ~LoopbackHarness() {
    server->Stop();
    cluster.Stop();
  }

  GraphStore graph;
  QueryTypeRegistry registry;
  Cluster cluster;
  TenantRegistry tenants;
  stats::MetricRegistry metrics;
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

/// Runs 1k degree queries closed-loop against `harness` and checks every
/// kOk answer against the graph's actual degree.
void RunDegreeCheck(LoopbackHarness& harness) {
  constexpr uint64_t kQueries = 1000;
  const uint32_t num_vertices = harness.graph.num_vertices();
  NetClient client(
      ClientOptions(harness.server->port(), /*conns=*/4, /*in_flight=*/8),
      [num_vertices](size_t conn_index, uint64_t seq) {
        RequestFrame frame;
        frame.op = static_cast<uint8_t>(GraphOp::kDegree);
        // Deterministic per-connection vertex choice, recoverable from
        // the echoed id for the answer check.
        frame.source =
            static_cast<uint32_t>((conn_index * 7919 + seq * 104'729) %
                                  num_vertices);
        return frame;
      });
  ASSERT_TRUE(client.Start().ok());
  client.StartClosedLoop();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (client.counters().queued < kQueries &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.StopSending();
  ASSERT_TRUE(client.WaitForDrain(10 * kSecond));
  client.Stop();

  const auto counters = client.counters();
  EXPECT_EQ(counters.conn_errors, 0u);
  EXPECT_GE(counters.queued, kQueries);
  EXPECT_EQ(counters.responses, counters.queued) << "every request answered";
  EXPECT_EQ(counters.ok, counters.responses) << "AlwaysAccept serves all";
  EXPECT_EQ(counters.failed, 0u);

  const NetServer::Stats stats = harness.server->AggregateStats();
  EXPECT_GE(stats.requests, kQueries);
  EXPECT_EQ(stats.responses, stats.requests);
  EXPECT_EQ(stats.bad_frames, 0u);
}

/// A blocking TCP socket connected to 127.0.0.1:`port`, or -1.
int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Bounds every blocking recv on `fd`, so a wedged server fails the test
/// instead of hanging it.
void SetRecvTimeout(int fd, int seconds) {
  const timeval tv{seconds, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Outcome of reading from a blocking socket with a receive timeout.
enum class ReadResult { kOk, kClosed, kTimeout };

/// Reads exactly `len` bytes. kClosed on EOF or reset, kTimeout when
/// the server went quiet (or any other error).
ReadResult ReadExact(int fd, uint8_t* out, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, out + got, len - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
    } else if (n == 0 || errno == ECONNRESET) {
      return ReadResult::kClosed;
    } else if (errno != EINTR) {
      return ReadResult::kTimeout;
    }
  }
  return ReadResult::kOk;
}

/// Reads one response frame — a graph response or an admin chunk — and
/// decodes its fixed header into `out` (`more` = an admin chunk follows).
ReadResult ReadResponse(int fd, ResponseFrame* out, bool* more) {
  uint8_t prefix[kLengthPrefixBytes];
  if (ReadResult r = ReadExact(fd, prefix, sizeof(prefix));
      r != ReadResult::kOk) {
    return r;
  }
  const uint32_t len = wire::GetU32(prefix);
  EXPECT_GE(len, kResponseBodyBytes);
  EXPECT_LE(len, kResponseBodyBytes + kAdminMaxChunk);
  if (len < kResponseBodyBytes || len > kResponseBodyBytes + kAdminMaxChunk) {
    return ReadResult::kTimeout;  // Framing lost; fail the caller.
  }
  std::vector<uint8_t> body(len);
  if (ReadResult r = ReadExact(fd, body.data(), len); r != ReadResult::kOk) {
    return r;
  }
  DecodeResponseBody(body.data(), out);
  // Every admin chunk but the last carries payload and kAdminFlagMore; a
  // graph response's flags byte is a reject reason, never "more".
  *more = len > kResponseBodyBytes && (out->flags & kAdminFlagMore) != 0;
  return ReadResult::kOk;
}

/// Sends one valid degree query on blocking `fd` and reads its answer.
void ExpectServed(int fd, uint64_t id) {
  RequestFrame request;
  request.id = id;
  request.op = static_cast<uint8_t>(GraphOp::kDegree);
  request.source = 17;
  uint8_t out[kRequestFrameBytes];
  const size_t out_bytes = EncodeRequest(request, out);
  ASSERT_EQ(::send(fd, out, out_bytes, MSG_NOSIGNAL),
            static_cast<ssize_t>(out_bytes));
  ResponseFrame response;
  bool more = false;
  ASSERT_EQ(ReadResponse(fd, &response, &more), ReadResult::kOk);
  EXPECT_EQ(response.id, id);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
}

TEST(NetLoopbackTest, BatchedModeAnswersEveryQuery) {
  LoopbackHarness harness;
  RunDegreeCheck(harness);
  // Batch mode must actually batch: fewer admission episodes than
  // requests (each episode covers a whole wakeup's parse).
  const NetServer::Stats stats = harness.server->AggregateStats();
  EXPECT_GT(stats.submit_batches, 0u);
  EXPECT_LE(stats.submit_batches, stats.requests);
}

TEST(NetLoopbackTest, DegreeAnswersMatchGraph) {
  // A raw blocking socket, one request at a time: every kOk value must
  // equal the graph's actual degree of the queried vertex, and the id
  // must echo back verbatim.
  LoopbackHarness harness;
  const uint32_t num_vertices = harness.graph.num_vertices();

  const int fd = ConnectLoopback(harness.server->port());
  ASSERT_GE(fd, 0);

  for (uint64_t seq = 0; seq < 200; ++seq) {
    RequestFrame request;
    request.id = 0xbeef0000 + seq;
    request.op = static_cast<uint8_t>(GraphOp::kDegree);
    const uint32_t vertex =
        static_cast<uint32_t>((seq * 104'729) % num_vertices);
    request.source = vertex;
    uint8_t out[kRequestFrameBytes];
    const size_t out_bytes = EncodeRequest(request, out);
    ASSERT_EQ(::send(fd, out, out_bytes, 0),
              static_cast<ssize_t>(out_bytes));

    uint8_t in[kResponseFrameBytes];
    size_t got = 0;
    while (got < sizeof(in)) {
      const ssize_t n = ::recv(fd, in + got, sizeof(in) - got, 0);
      ASSERT_GT(n, 0) << "connection died mid-response";
      got += static_cast<size_t>(n);
    }
    ASSERT_EQ(wire::GetU32(in), kResponseBodyBytes);
    ResponseFrame response;
    DecodeResponseBody(in + kLengthPrefixBytes, &response);
    EXPECT_EQ(response.id, request.id);
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(response.value, harness.graph.Degree(vertex))
        << "wrong degree for vertex " << vertex;
  }
  ::close(fd);
}

TEST(NetLoopbackTest, TenantIdsThreadEndToEnd) {
  // v2 frames carry external tenant ids; the server interns them and
  // charges per-tenant counters. A v1 (36-byte) frame from an old client
  // lands on the default tenant. One blocking socket keeps it exact.
  LoopbackHarness harness;
  const uint32_t num_vertices = harness.graph.num_vertices();

  const int fd = ConnectLoopback(harness.server->port());
  ASSERT_GE(fd, 0);

  // (external tenant id, request count): tenant 0 = legacy v1 frames.
  const std::pair<uint64_t, int> kMix[] = {{7, 5}, {9, 3}, {0, 2}};
  uint64_t seq = 0;
  for (const auto& [tenant, count] : kMix) {
    for (int i = 0; i < count; ++i, ++seq) {
      RequestFrame request;
      request.id = 0xfeed0000 + seq;
      request.op = static_cast<uint8_t>(GraphOp::kDegree);
      request.source = static_cast<uint32_t>((seq * 104'729) % num_vertices);
      request.tenant = tenant;
      uint8_t out[kRequestFrameBytes];
      const size_t out_bytes = EncodeRequest(request, out);
      ASSERT_EQ(out_bytes, tenant == 0
                               ? kLengthPrefixBytes + kRequestBodyBytesV1
                               : kRequestFrameBytes);
      ASSERT_EQ(::send(fd, out, out_bytes, 0),
                static_cast<ssize_t>(out_bytes));
      uint8_t in[kResponseFrameBytes];
      size_t got = 0;
      while (got < sizeof(in)) {
        const ssize_t n = ::recv(fd, in + got, sizeof(in) - got, 0);
        ASSERT_GT(n, 0) << "connection died mid-response";
        got += static_cast<size_t>(n);
      }
      ResponseFrame response;
      DecodeResponseBody(in + kLengthPrefixBytes, &response);
      EXPECT_EQ(response.id, request.id);
      EXPECT_EQ(response.status, ResponseStatus::kOk);
    }
  }
  ::close(fd);

  // Per-tenant accounting: exact request/ok splits by dense index.
  for (const auto& [tenant, count] : kMix) {
    TenantId dense = kDefaultTenant;
    if (tenant != 0) {
      const StatusOr<TenantId> found = harness.tenants.Find(tenant);
      ASSERT_TRUE(found.ok()) << "tenant " << tenant << " never interned";
      dense = *found;
      EXPECT_NE(dense, kDefaultTenant);
    }
    const NetServer::TenantStats stats = harness.server->TenantStatsOf(dense);
    EXPECT_EQ(stats.requests, static_cast<uint64_t>(count))
        << "tenant " << tenant;
    EXPECT_EQ(stats.ok, static_cast<uint64_t>(count)) << "tenant " << tenant;
    EXPECT_EQ(stats.rejected, 0u);
  }

  // The admin metric surface renders per-tenant rows keyed by wire id.
  const std::string json = harness.metrics.ToJson();
  EXPECT_NE(json.find("\"tenant.7.requests\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenant.9.ok\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenant.0.requests\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenant.count\":3"), std::string::npos) << json;
}

TEST(NetLoopbackTest, RejectionCodesReachTheClient) {
  // Zero-length broker queue: with 8 connections x 8 in flight, most
  // queries must come back kRejected — synchronously, from the event
  // loop — while some still complete.
  LoopbackHarness harness(/*rejecting=*/true);
  NetClient client(
      ClientOptions(harness.server->port(), /*conns=*/8, /*in_flight=*/8),
      [](size_t conn_index, uint64_t seq) {
        RequestFrame frame;
        frame.op = static_cast<uint8_t>(GraphOp::kDegree);
        frame.source = static_cast<uint32_t>((conn_index + seq) % 2000);
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
  EXPECT_GT(counters.rejected + counters.shedded, 0u)
      << "rejecting policy produced no rejections";
  EXPECT_GT(counters.ok, 0u) << "nothing completed at all";
  EXPECT_EQ(counters.ok + counters.rejected + counters.shedded +
                counters.expired + counters.failed,
            counters.responses);
  EXPECT_EQ(harness.server->AggregateStats().rejections,
            counters.rejected + counters.shedded);
}

TEST(NetLoopbackTest, ManyShortLivedConnections) {
  // Slot recycling: connections come and go; the server must keep
  // serving and release every slot (accepted == closed at the end).
  LoopbackHarness harness;
  for (int round = 0; round < 5; ++round) {
    NetClient client(
        ClientOptions(harness.server->port(), /*conns=*/4, /*in_flight=*/4),
        [](size_t, uint64_t seq) {
          RequestFrame frame;
          frame.op = static_cast<uint8_t>(GraphOp::kDegree);
          frame.source = static_cast<uint32_t>(seq % 2000);
          return frame;
        });
    ASSERT_TRUE(client.Start().ok());
    client.StartClosedLoop();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (client.counters().queued < 100 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.StopSending();
    ASSERT_TRUE(client.WaitForDrain(10 * kSecond));
    client.Stop();
    EXPECT_EQ(client.counters().conn_errors, 0u);
  }
  // Give the server a beat to observe the FIN of the last round.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  NetServer::Stats stats = harness.server->AggregateStats();
  while (stats.connections_closed < stats.connections_accepted &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = harness.server->AggregateStats();
  }
  EXPECT_EQ(stats.connections_accepted, 20u);
  EXPECT_EQ(stats.connections_closed, 20u);
}

TEST(NetLoopbackTest, NodelaySetAndVerifiedOnAcceptedSockets) {
  // The server sets TCP_NODELAY on every accepted socket and reads it
  // back with getsockopt at accept time; a failed verification bumps
  // nodelay_failures. Small length-prefixed frames must never sit in a
  // Nagle buffer waiting for an ACK.
  LoopbackHarness harness;
  NetClient client(
      ClientOptions(harness.server->port(), /*conns=*/4, /*in_flight=*/2),
      [](size_t, uint64_t seq) {
        RequestFrame frame;
        frame.op = static_cast<uint8_t>(GraphOp::kDegree);
        frame.source = static_cast<uint32_t>(seq % 2000);
        return frame;
      });
  ASSERT_TRUE(client.Start().ok());
  client.StartClosedLoop();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (client.counters().responses < 50 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.StopSending();
  ASSERT_TRUE(client.WaitForDrain(10 * kSecond));
  client.Stop();

  const NetServer::Stats stats = harness.server->AggregateStats();
  EXPECT_GE(stats.connections_accepted, 4u);
  EXPECT_EQ(stats.nodelay_failures, 0u)
      << "an accepted socket is running without TCP_NODELAY";
}

TEST(NetLoopbackTest, PeerResetWithResponsesOwedKeepsServerUp) {
  // A raw socket pipelines 1k requests of every op and resets the
  // connection (SO_LINGER {1, 0}) without reading the responses, so the
  // server writes owed responses to a socket the peer has reset. Those
  // writes must fail (EPIPE / ECONNRESET) and close the connection; a
  // SIGPIPE would kill the whole test process. Odd rounds half-close
  // first and wait for one response before the reset: the server then
  // sits in CLOSE_WAIT still answering, and its very next write after
  // the reset is the one that raises SIGPIPE without MSG_NOSIGNAL.
  LoopbackHarness harness;
  constexpr int kRequests = 1000;
  std::vector<uint8_t> burst(kRequests * kRequestFrameBytes);
  size_t burst_bytes = 0;
  for (int i = 0; i < kRequests; ++i) {
    RequestFrame request;
    request.id = static_cast<uint64_t>(i);
    request.op = static_cast<uint8_t>(i % graph::kNumGraphOps);
    request.source = static_cast<uint32_t>(i);
    request.target = static_cast<uint32_t>(i * 7);
    burst_bytes += EncodeRequest(request, burst.data() + burst_bytes);
  }
  for (int round = 0; round < 6; ++round) {
    const int fd = ConnectLoopback(harness.server->port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, burst.data(), burst_bytes, 0),
              static_cast<ssize_t>(burst_bytes));
    if (round % 2 == 1) {
      ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
      uint8_t first[kResponseFrameBytes];
      ASSERT_EQ(::recv(fd, first, sizeof(first), MSG_WAITALL),
                static_cast<ssize_t>(sizeof(first)));
    }
    const linger abortive{1, 0};
    ASSERT_EQ(
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abortive, sizeof(abortive)),
        0);
    ::close(fd);
  }
  // Every request the server parsed still completes and is accounted,
  // although its peer is gone...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  NetServer::Stats stats = harness.server->AggregateStats();
  while (stats.responses < stats.requests &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = harness.server->AggregateStats();
  }
  EXPECT_EQ(stats.responses, stats.requests);
  // ...and the server answers a second client in full.
  RunDegreeCheck(harness);
}

TEST(NetLoopbackTest, FdExhaustionDoesNotSpinTheLoop) {
  // With the process fd table full every accept fails, while the pending
  // connection keeps the listener readable. The loop must back off
  // instead of polling the listener again at once, and must accept and
  // answer the connection once fds free up. RLIMIT_NOFILE is
  // process-wide, which is safe here: each test case runs in its own
  // process.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(lowest_free) + 128;
  ASSERT_LE(tight.rlim_cur, saved.rlim_max);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  LoopbackHarness harness;
  // One query served first also warms UBSan's type-check cache for the
  // server's clock reads: its slow path needs a pipe, i.e. free fds.
  const int warm = ConnectLoopback(harness.server->port());
  ASSERT_GE(warm, 0);
  SetRecvTimeout(warm, 10);
  ExpectServed(warm, 0x3a3a);
  ::close(warm);
  // The server must close its end before the table fills, or the fd it
  // frees would take the connection below.
  const auto closed_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.server->AggregateStats().connections_closed == 0 &&
         std::chrono::steady_clock::now() < closed_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(harness.server->AggregateStats().connections_closed, 1u);
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  SetRecvTimeout(client, 10);
  std::vector<int> fillers;
  for (int fd; (fd = ::dup(client)) >= 0;) fillers.push_back(fd);
  ASSERT_EQ(errno, EMFILE);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(harness.server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const uint64_t wakeups_before = harness.server->AggregateStats().wakeups;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const NetServer::Stats full = harness.server->AggregateStats();

  for (const int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(full.connections_accepted, 1u)
      << "accepted although the fd table was full";
  EXPECT_LE(full.wakeups - wakeups_before, 100u)
      << "failing accepts spin the event loop";
  ExpectServed(client, 0xacce97);
  EXPECT_EQ(harness.server->AggregateStats().connections_accepted, 2u);
  ::close(client);
}

/// Stops `server` and returns how long Stop() took.
std::chrono::milliseconds TimedStop(NetServer& server) {
  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
}

/// Bound on NetServer::Stop() with hostile peers still connected: the
/// loops wake within their 100 ms wait timeout, and the in-flight
/// queries finish on the cluster's workers.
constexpr std::chrono::milliseconds kStopBound{5000};

TEST(NetLoopbackTest, SlowReaderFillsItsTxRingWithoutStallingOthers) {
  // A client pipelines requests and never reads its responses: its
  // receive window closes, the server's socket buffer and tx ring fill,
  // and the write-ring gate pauses reading that one connection. The
  // other connections must stay served, Stop() must return promptly with
  // the slow reader still connected, and every parsed request must be
  // accounted for.
  LoopbackHarness harness;
  const int slow = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(slow, 0);
  const int small = 4096;  // Closes the window after a few responses.
  ::setsockopt(slow, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(harness.server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(slow, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::fcntl(slow, F_SETFL, ::fcntl(slow, F_GETFL) | O_NONBLOCK), 0);

  // Pipeline until the write-ring gate pauses the connection. The send
  // side stalls at times before that (the inflight cap pauses reading
  // while the cluster catches up), so the loop waits on the counter, not
  // on the socket.
  RequestFrame request;
  request.op = static_cast<uint8_t>(GraphOp::kDegree);
  request.source = 17;
  uint8_t frame[kRequestFrameBytes];
  const size_t frame_bytes = EncodeRequest(request, frame);
  std::vector<uint8_t> burst;
  for (int i = 0; i < 64; ++i) {
    burst.insert(burst.end(), frame, frame + frame_bytes);
  }
  size_t offset = 0;  // Sent bytes of the current burst.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (harness.server->AggregateStats().pauses_tx == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::send(slow, burst.data() + offset,
                             burst.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      offset = (offset + static_cast<size_t>(n)) % burst.size();
    } else {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const NetServer::Stats stalled = harness.server->AggregateStats();
  EXPECT_GE(stalled.pauses_tx, 1u) << "the tx ring never filled";
  EXPECT_GT(stalled.requests, 0u);

  // Other connections are served while the slow reader stays stalled.
  RunDegreeCheck(harness);

  EXPECT_LE(TimedStop(*harness.server), kStopBound);
  ::close(slow);
  // Every parsed request completed and was counted once: answered,
  // rejected, or dropped with its connection at close (`responses`
  // counts all three; there were no bad frames or admin requests).
  const NetServer::Stats stats = harness.server->AggregateStats();
  EXPECT_EQ(stats.responses, stats.requests);
  EXPECT_EQ(stats.rejections, 0u);  // AlwaysAccept.
  EXPECT_EQ(stats.bad_frames, 0u);
}

TEST(NetLoopbackTest, HalfCloseWithResponsesOwedIsAnsweredInFull) {
  // A client pipelines more requests than the per-connection inflight
  // cap, half-closes (SHUT_WR) at once and only then reads. The server
  // must parse every request it received before the FIN, answer each
  // exactly once, and close the connection once nothing is owed, while
  // a second client is served concurrently.
  LoopbackHarness harness;
  NetClient other(
      ClientOptions(harness.server->port(), /*conns=*/2, /*in_flight=*/4),
      [](size_t conn_index, uint64_t seq) {
        RequestFrame frame;
        frame.op = static_cast<uint8_t>(GraphOp::kDegree);
        frame.source = static_cast<uint32_t>((conn_index + seq) % 2000);
        return frame;
      });
  ASSERT_TRUE(other.Start().ok());
  other.StartClosedLoop();

  constexpr int kRequests = 3000;
  std::vector<uint8_t> burst(kRequests * kRequestFrameBytes);
  size_t burst_bytes = 0;
  for (int i = 0; i < kRequests; ++i) {
    RequestFrame request;
    request.id = 0x4a1f0000u + static_cast<uint64_t>(i);
    request.op = static_cast<uint8_t>(i % graph::kNumGraphOps);
    request.source = static_cast<uint32_t>(i % 2000);
    request.target = static_cast<uint32_t>((i * 7) % 2000);
    burst_bytes += EncodeRequest(request, burst.data() + burst_bytes);
  }
  const int fd = ConnectLoopback(harness.server->port());
  ASSERT_GE(fd, 0);
  SetRecvTimeout(fd, 20);
  // A writer thread: the server stops reading at the inflight cap until
  // responses drain, so one blocking send could stall before the
  // reads below begin.
  std::thread writer([&] {
    EXPECT_EQ(::send(fd, burst.data(), burst_bytes, MSG_NOSIGNAL),
              static_cast<ssize_t>(burst_bytes));
    EXPECT_EQ(::shutdown(fd, SHUT_WR), 0);
  });
  std::vector<int> answered(kRequests, 0);
  ResponseFrame response;
  bool more = false;
  int got = 0;
  ReadResult result;
  while ((result = ReadResponse(fd, &response, &more)) == ReadResult::kOk) {
    const uint64_t index = response.id - 0x4a1f0000u;
    ASSERT_LT(index, static_cast<uint64_t>(kRequests));
    ++answered[index];
    ++got;
  }
  writer.join();
  EXPECT_EQ(result, ReadResult::kClosed) << "server never closed its end";
  EXPECT_EQ(got, kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(answered[i], 1) << "request " << i;
  }
  ::close(fd);
  // The server counts the close just after the close(2) the client saw.
  const auto closed_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (harness.server->AggregateStats().connections_closed == 0 &&
         std::chrono::steady_clock::now() < closed_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const NetServer::Stats paused = harness.server->AggregateStats();
  EXPECT_GE(paused.pauses_inflight, 1u) << "the inflight cap never engaged";
  EXPECT_EQ(paused.connections_closed, 1u);

  other.StopSending();
  ASSERT_TRUE(other.WaitForDrain(10 * kSecond));
  const auto counters = other.counters();
  EXPECT_EQ(counters.conn_errors, 0u);
  EXPECT_GT(counters.ok, 0u);
  EXPECT_EQ(counters.responses, counters.queued);

  EXPECT_LE(TimedStop(*harness.server), kStopBound);
  other.Stop();
  const NetServer::Stats stats = harness.server->AggregateStats();
  EXPECT_EQ(stats.responses, stats.requests);
  EXPECT_EQ(stats.requests, counters.queued + kRequests);
  EXPECT_EQ(stats.rejections, 0u);  // AlwaysAccept.
}

/// Which answer a hostile frame must get.
enum class Answer { kGraph, kBadRequest, kAdmin };

/// The answers a byte stream must get, worked out by applying the
/// server's framing rules to the bytes the test sends.
struct StreamOracle {
  std::map<std::pair<uint64_t, Answer>, int> expected;  ///< (id, kind).
  size_t answers = 0;
  size_t bad_bodies = 0;  ///< Well-framed but invalid: kBadRequest.
  size_t admin = 0;
  bool bad_prefix = false;  ///< The server closes the connection here.
};

StreamOracle FrameStream(const std::vector<uint8_t>& bytes) {
  StreamOracle oracle;
  size_t pos = 0;
  while (pos + kLengthPrefixBytes <= bytes.size()) {
    const uint32_t len = wire::GetU32(bytes.data() + pos);
    if (len != kRequestBodyBytesV1 && len != kRequestBodyBytes) {
      oracle.bad_prefix = true;
      break;
    }
    if (pos + kLengthPrefixBytes + len > bytes.size()) break;  // Partial.
    RequestFrame frame;
    const bool valid =
        DecodeRequestBody(bytes.data() + pos + kLengthPrefixBytes, len, &frame);
    Answer answer = Answer::kGraph;
    if (!valid) {
      answer = Answer::kBadRequest;
      ++oracle.bad_bodies;
    } else if (IsAdminOp(frame.op)) {
      answer = Answer::kAdmin;
      ++oracle.admin;
    }
    ++oracle.expected[{frame.id, answer}];
    ++oracle.answers;
    pos += kLengthPrefixBytes + len;
  }
  return oracle;
}

/// 1..8 valid v1/v2 graph frames, plus admin frames and per-frame
/// mutations (flipped body bytes, unknown ops, unknown flag bits) when
/// `mutate` is set. `last_frame` receives the size of the final frame.
std::vector<uint8_t> HostileFrames(Rng& rng, bool mutate,
                                   size_t* last_frame) {
  std::vector<uint8_t> bytes;
  const uint64_t frames = 1 + rng.NextBounded(8);
  for (uint64_t f = 0; f < frames; ++f) {
    RequestFrame frame;
    frame.id = rng.NextU64();
    frame.op = static_cast<uint8_t>(rng.NextBounded(graph::kNumGraphOps));
    if (mutate && rng.NextBounded(8) == 0) {
      frame.op = rng.NextBounded(2) == 0 ? kOpStatsJson : kOpStatsPrometheus;
    }
    frame.source = static_cast<uint32_t>(rng.NextBounded(2000));
    frame.target = static_cast<uint32_t>(rng.NextBounded(2000));
    frame.deadline_ns = rng.NextBounded(2) == 0 ? 0 : kSecond;
    frame.tenant = rng.NextBounded(2) == 0 ? 0 : 1 + rng.NextBounded(4);
    uint8_t out[kRequestFrameBytes];
    const size_t n = EncodeRequest(frame, out);
    uint8_t* body = out + kLengthPrefixBytes;
    const size_t body_len = n - kLengthPrefixBytes;
    switch (mutate ? rng.NextBounded(5) : 4) {
      case 0:  // Flipped body bytes (the length prefix stays intact).
        for (uint64_t k = 0, flips = 1 + rng.NextBounded(3); k < flips; ++k) {
          body[rng.NextBounded(body_len)] ^=
              static_cast<uint8_t>(1 + rng.NextBounded(255));
        }
        break;
      case 1: {  // An op that is neither a graph nor an admin op.
        const uint64_t unknown_ops = 256 - 3 - graph::kNumGraphOps;
        uint64_t op = graph::kNumGraphOps + rng.NextBounded(unknown_ops);
        if (op >= kOpStatsJson) op += 3;  // Skip the three admin ops.
        body[8] = static_cast<uint8_t>(op);
        break;
      }
      case 2:  // An unknown flag bit.
        wire::PutU16(body + 10,
                     static_cast<uint16_t>(wire::GetU16(body + 10) |
                                           (2u << rng.NextBounded(15))));
        break;
      default:
        break;
    }
    bytes.insert(bytes.end(), out, out + n);
    *last_frame = n;
  }
  return bytes;
}

/// Valid frames carrying the extreme field values a flipped byte can
/// produce: the largest vertex id as a BFS source and the largest
/// relative deadlines.
std::vector<uint8_t> ExtremeFrames() {
  std::vector<uint8_t> bytes;
  const auto add = [&bytes](GraphOp op, uint32_t source, uint64_t deadline) {
    RequestFrame frame;
    frame.id = bytes.size() + 1;
    frame.op = static_cast<uint8_t>(op);
    frame.source = source;
    frame.target = 7;
    frame.deadline_ns = deadline;
    uint8_t out[kRequestFrameBytes];
    bytes.insert(bytes.end(), out, out + EncodeRequest(frame, out));
  };
  add(GraphOp::kDistance3, 0xffffffffu, 0);
  add(GraphOp::kDistance4, 0xffffffffu, 0);
  add(GraphOp::kDegree, 1, ~uint64_t{0});
  add(GraphOp::kDegree, 1, uint64_t{1} << 63);
  return bytes;
}

/// Writes `bytes` in pieces cut at random offsets, sometimes pausing so
/// the server reads a partial frame. False when the server hung up.
bool SendSplit(int fd, const std::vector<uint8_t>& bytes, Rng& rng) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const size_t piece = 1 + rng.NextBounded(bytes.size() - sent);
    const ssize_t n = ::send(fd, bytes.data() + sent, piece, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
    if (rng.NextBounded(4) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  return true;
}

TEST(NetLoopbackTest, HostileFramesNeverWedgeTheServer) {
  // Seeded mutation fuzzing with a fixed budget: v1, v2 and admin
  // frames with flipped bytes, zero and oversized length prefixes,
  // unknown ops and flags, frames truncated then closed or reset, all
  // written in pieces cut at random offsets — while a well-behaved
  // client keeps running against the same server.
  LoopbackHarness harness;
  NetClient good(
      ClientOptions(harness.server->port(), /*conns=*/4, /*in_flight=*/4),
      [](size_t conn_index, uint64_t seq) {
        RequestFrame frame;
        frame.op = static_cast<uint8_t>(GraphOp::kDegree);
        frame.source = static_cast<uint32_t>((conn_index + seq) % 2000);
        return frame;
      });
  ASSERT_TRUE(good.Start().ok());
  good.StartClosedLoop();

  constexpr int kStreams = 240;
  constexpr uint32_t kBadLengths[] = {0,
                                      1,
                                      kRequestBodyBytesV1 - 1,
                                      kRequestBodyBytes + 1,
                                      1u << 20,
                                      0xffffffffu};
  Rng rng(0x5eedbad0f00dULL);
  size_t bad_bodies = 0;
  size_t admin = 0;
  size_t bad_prefixes = 0;
  for (int i = 0; i < kStreams; ++i) {
    SCOPED_TRACE(i);
    // 0/1: mutated frames (the extreme ones first), every answer read
    // back; 2: valid frames cut mid-frame, then closed; 3: the same,
    // then reset.
    const uint64_t mode = i == 0 ? 0 : rng.NextBounded(4);
    const bool read_back = mode < 2;
    size_t last = 0;
    std::vector<uint8_t> bytes =
        i == 0 ? ExtremeFrames() : HostileFrames(rng, read_back, &last);
    if (!read_back) {
      // Keep 1..last-1 bytes of the final frame.
      bytes.resize(bytes.size() - last + 1 + rng.NextBounded(last - 1));
    } else if (i > 0 && rng.NextBounded(4) == 0 &&
               FrameStream(bytes).admin == 0) {
      // A bad length prefix plus trailing garbage. Not after an admin
      // frame: closing may cut its streamed answer short.
      uint8_t prefix[kLengthPrefixBytes];
      wire::PutU32(prefix, kBadLengths[rng.NextBounded(6)]);
      bytes.insert(bytes.end(), prefix, prefix + sizeof(prefix));
      for (uint64_t k = rng.NextBounded(64); k > 0; --k) {
        bytes.push_back(static_cast<uint8_t>(rng.NextU64()));
      }
    }
    const StreamOracle oracle = FrameStream(bytes);

    const int fd = ConnectLoopback(harness.server->port());
    ASSERT_GE(fd, 0);
    SetRecvTimeout(fd, 10);
    const bool sent = SendSplit(fd, bytes, rng);
    if (!read_back) {
      ASSERT_TRUE(sent);
      if (mode == 3) {
        const linger abortive{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abortive, sizeof(abortive));
      }
      ::close(fd);
      continue;
    }
    bad_bodies += oracle.bad_bodies;
    admin += oracle.admin;
    ResponseFrame response;
    bool more = false;
    if (oracle.bad_prefix) {
      // Framing is lost: the server closes this connection. Answers to
      // the frames before the bad prefix may or may not make it out.
      ++bad_prefixes;
      ReadResult result;
      while ((result = ReadResponse(fd, &response, &more)) == ReadResult::kOk) {
      }
      EXPECT_EQ(result, ReadResult::kClosed)
          << "a bad length prefix left its connection open";
      ::close(fd);
      continue;
    }
    ASSERT_TRUE(sent);
    // Every well-framed request is answered exactly once: invalid bodies
    // with kBadRequest, admin ops with a (chunked) admin response.
    std::map<std::pair<uint64_t, Answer>, int> expected = oracle.expected;
    for (size_t answered = 0; answered < oracle.answers;) {
      ASSERT_EQ(ReadResponse(fd, &response, &more), ReadResult::kOk)
          << (oracle.answers - answered) << " answers missing";
      if (more) continue;
      Answer answer = Answer::kGraph;
      if (response.status == ResponseStatus::kBadRequest) {
        answer = Answer::kBadRequest;
      } else if (expected[{response.id, Answer::kAdmin}] > 0) {
        answer = Answer::kAdmin;
      }
      int& owed = expected[{response.id, answer}];
      ASSERT_GT(owed, 0) << "unexpected answer to id " << response.id
                         << " (status " << static_cast<int>(response.status)
                         << ")";
      --owed;
      ++answered;
    }
    // ...and the connection carries on after its invalid frames.
    ExpectServed(fd, 0x600d0000u + static_cast<uint64_t>(i));
    ::close(fd);
  }
  EXPECT_GT(bad_bodies, 0u);
  EXPECT_GT(admin, 0u);
  EXPECT_GT(bad_prefixes, 0u);

  // The concurrent well-behaved client was answered in full.
  good.StopSending();
  ASSERT_TRUE(good.WaitForDrain(10 * kSecond));
  good.Stop();
  const auto counters = good.counters();
  EXPECT_EQ(counters.conn_errors, 0u);
  EXPECT_GT(counters.queued, 0u);
  EXPECT_EQ(counters.responses, counters.queued);
  EXPECT_EQ(counters.ok, counters.responses);

  // Accounting. Every parsed graph request completes and counts a
  // response, also when its connection died first (the answer is then
  // dropped); kBadRequest and admin answers are the only responses
  // without a request behind them. Bad frames are the invalid bodies
  // plus the bad length prefixes.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  NetServer::Stats stats = harness.server->AggregateStats();
  while (stats.responses < stats.requests + bad_bodies + admin &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = harness.server->AggregateStats();
  }
  EXPECT_EQ(stats.responses, stats.requests + bad_bodies + admin);
  EXPECT_EQ(stats.bad_frames, bad_bodies + bad_prefixes);
  EXPECT_EQ(stats.admin_requests, admin);
  harness.server->Stop();  // Returns with every hostile connection gone.
}

TEST(NetLoopbackTest, OpenLoopLatencyCountsFromScheduledDeparture) {
  // Coordinated-omission correction: a request due 50 ms ago (the
  // generator fell behind, or it sat in the local queue) reports at
  // least those 50 ms, however fast the server answers it now.
  LoopbackHarness harness;
  NetClient client(
      ClientOptions(harness.server->port(), /*conns=*/1, /*in_flight=*/1),
      [](size_t, uint64_t) { return RequestFrame{}; });
  ASSERT_TRUE(client.Start().ok());
  RequestFrame frame;
  frame.op = static_cast<uint8_t>(GraphOp::kDegree);
  ASSERT_TRUE(
      client.TrySend(frame, SystemClock::Global()->Now() - 50 * kMillisecond));
  ASSERT_TRUE(client.WaitForDrain(10 * kSecond));
  client.Stop();
  const stats::HistogramSummary latency = client.Latency();
  ASSERT_EQ(latency.count, 1u);
  // The mean of one sample is that sample, exactly.
  EXPECT_GE(latency.mean, 50 * kMillisecond);
}

}  // namespace
}  // namespace bouncer::net
