#ifndef BOUNCER_NET_NET_CLIENT_H_
#define BOUNCER_NET_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/cluster.h"
#include "src/net/byte_ring.h"
#include "src/net/protocol.h"
#include "src/stats/histogram.h"
#include "src/util/mpmc_queue.h"
#include "src/util/status.h"

namespace bouncer::net {

/// TCP load client for NetServer: a pool of non-blocking connections
/// sharded across epoll IO threads, driving the server in either of the
/// two modes the benchmarks need:
///
///  - closed loop (StartClosedLoop): every connection keeps a fixed
///    window of requests in flight, refilling as responses arrive — the
///    saturation mode bench_net_throughput sweeps;
///  - open loop (TrySend): the caller emits requests on an absolute
///    schedule (e.g. workload::LoadGenerator's Poisson departures) into a
///    bounded local queue the IO threads drain; when server backpressure
///    fills the local queue, TrySend reports the drop instead of
///    blocking, preserving the open-loop property. Latency is measured
///    from each request's scheduled departure, not from when an IO
///    thread placed it, so time spent waiting in the local queue or
///    behind a full connection counts (wrk2's coordinated-omission
///    correction).
///
/// Request frames come from a caller-provided Sampler; the client
/// overwrites `id` with a per-connection sequence number used to match
/// responses to their departure timestamps (no allocation per request).
class NetClient {
 public:
  /// Produces the next frame for `conn_index`; `seq` is that connection's
  /// request sequence number. Called concurrently for distinct
  /// connections — key any RNG state by conn_index.
  using Sampler = std::function<RequestFrame(size_t conn_index, uint64_t seq)>;

  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    size_t num_connections = 8;
    size_t num_io_threads = 2;
    size_t in_flight_per_conn = 16;  ///< Closed-loop window.
    size_t ring_bytes = 1 << 16;     ///< Per-connection rx and tx rings.
    size_t open_queue_capacity = 1 << 14;  ///< Open-loop local queue.
    /// Departure-timestamp slots per connection (rounded up to a power
    /// of two). 0 = sized from the closed-loop window, capped at 4096 —
    /// at 10k+ connections a fixed-size table would dominate client
    /// memory. A response whose slot was overwritten (possible open-loop
    /// under extreme overload) skips the latency sample, nothing else.
    size_t latency_slots = 0;
  };

  /// Monotonic counters (snapshot via counters()).
  struct Counters {
    uint64_t accepted = 0;   ///< Requests committed to be sent (closed-loop
                             ///< placements + open-loop TrySend successes,
                             ///< including frames still in the local queue).
    uint64_t queued = 0;     ///< Requests handed to a connection.
    uint64_t responses = 0;  ///< Response frames received.
    uint64_t ok = 0;
    uint64_t rejected = 0;
    uint64_t shedded = 0;
    uint64_t expired = 0;
    uint64_t failed = 0;  ///< kFailed + kBadRequest responses.
    uint64_t dropped = 0;       ///< Open-loop sends shed at the local queue.
    uint64_t conn_errors = 0;   ///< Connections lost mid-run.
    /// Failure attribution parsed from the response flags byte (the
    /// server's RejectReason wire code), so callers can tell policy
    /// rejection, queue shed, shard-side backpressure and expiry apart
    /// even when statuses alone are ambiguous (e.g. kFailed).
    uint64_t reason_policy = 0;   ///< kPolicy (broker policy said no).
    uint64_t reason_queue = 0;    ///< kQueueFull (broker queue shed).
    uint64_t reason_expired = 0;  ///< kExpired (deadline passed queued).
    uint64_t reason_shard = 0;    ///< kShard* (subquery failed at a shard).
  };

  NetClient(const Options& options, Sampler sampler);
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects all connections and spawns the IO threads (idle until a
  /// mode starts).
  Status Start();
  void Stop();

  /// Begins closed-loop driving: tops every connection up to the
  /// configured window and keeps it there.
  void StartClosedLoop();
  /// Stops issuing new closed-loop requests; in-flight ones still drain.
  void StopSending();

  /// Open loop: enqueue one request for the IO threads to place. `due`
  /// is its scheduled departure on SystemClock's timeline; the response's
  /// latency is measured from it. Returns false (and counts a drop) when
  /// the local queue is full — i.e. the server's TCP backpressure has
  /// propagated all the way here.
  bool TrySend(const RequestFrame& frame, Nanos due);

  /// Blocks until every accepted request has a response — including
  /// open-loop frames still waiting in the local queue, which would
  /// otherwise leak into a later measurement window — or the timeout
  /// passes, or a connection error makes completion impossible. Returns
  /// true when fully drained.
  bool WaitForDrain(Nanos timeout);

  Counters counters() const;
  /// Round-trip latency over all responses since the last ResetStats()
  /// (open-loop requests: from their scheduled departure).
  stats::HistogramSummary Latency() const { return latency_.MakeSummary(); }
  /// Round-trip latency of one op's responses.
  stats::HistogramSummary LatencyFor(graph::GraphOp op) const {
    return latency_by_op_[static_cast<size_t>(op)].MakeSummary();
  }
  /// Zeros counters and latency histograms. Call only while quiescent
  /// (before a measurement window, not mid-flight).
  void ResetStats();

 private:
  struct Conn;
  /// An open-loop request waiting for placement, with its scheduled
  /// departure.
  struct OpenRequest {
    RequestFrame frame;
    Nanos due = 0;
  };
  enum class Mode : int { kIdle = 0, kClosedLoop = 1 };

  void IoThread(size_t thread_index);
  void ReadConn(Conn* conn);
  void OnResponse(Conn* conn, const ResponseFrame& frame, Nanos now);
  bool SendOne(Conn* conn);
  void TopUp(Conn* conn);
  void PlaceOpenLoop(size_t thread_index);
  void FlushConn(Conn* conn);
  void FailConn(Conn* conn);
  void WakeThread(size_t thread_index);

  Options options_;
  Sampler sampler_;
  size_t slot_mask_ = 0;  ///< latency-slot count - 1 (power of two).

  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<int> epoll_fds_;
  std::vector<int> event_fds_;
  std::vector<std::unique_ptr<std::atomic<bool>>> wake_flags_;
  std::vector<std::thread> threads_;

  MpmcQueue<OpenRequest> open_queue_;
  std::atomic<size_t> open_rr_{0};  ///< Round-robin wake target.

  std::atomic<int> mode_{0};
  std::atomic<bool> sending_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> queued_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shedded_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> conn_errors_{0};
  std::atomic<uint64_t> reason_policy_{0};
  std::atomic<uint64_t> reason_queue_{0};
  std::atomic<uint64_t> reason_expired_{0};
  std::atomic<uint64_t> reason_shard_{0};
  stats::Histogram latency_;
  stats::Histogram latency_by_op_[graph::kNumGraphOps];
};

}  // namespace bouncer::net

#endif  // BOUNCER_NET_NET_CLIENT_H_
