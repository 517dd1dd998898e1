#ifndef BOUNCER_PERFBENCH_CLIENT_H_
#define BOUNCER_PERFBENCH_CLIENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/deployment.h"
#include "src/net/net_server.h"
#include "src/util/status.h"

namespace bouncer::perfbench {

/// What happened to one request the client tried to send.
enum class RequestState : uint8_t {
  kPending = 0,  ///< Sent, no response yet (still pending after the drain
                 ///< deadline means the response never came).
  kDone = 1,     ///< Response received.
  kUnsent = 2,   ///< The client could not place it on any connection.
};

/// One request's lifecycle as the client saw it. `due` is when the
/// schedule wanted it sent; latency is measured from there (equal to
/// `sent` in the closed loop).
struct RequestRecord {
  Nanos due = 0;
  Nanos sent = 0;
  Nanos recv = 0;
  uint64_t value = 0;
  uint32_t pool_index = 0;
  uint8_t op = 0;  ///< GraphOp of the query (QT1..QT11 = 0..10).
  RequestState state = RequestState::kPending;
  uint8_t status = 0;  ///< net::ResponseStatus.
  uint8_t reason = 0;  ///< RejectReason wire code.
};

/// Traffic shape of one client run.
struct LoadShape {
  bool open_loop = false;
  /// Open loop: total Poisson rate, split evenly over the client threads.
  double rate_qps = 0.0;
  /// Closed loop: requests kept outstanding per connection.
  size_t window = 0;
  Nanos warmup = 0;
  Nanos measure = 0;
  uint64_t seed = 1;
};

/// Records of one run, per client thread; a request's wire id is
/// (thread << kThreadShift) | index into its thread's records.
struct ClientRun {
  static constexpr int kThreadShift = 48;
  Nanos window_start = 0;
  Nanos window_end = 0;
  std::vector<std::vector<RequestRecord>> records;
  /// Frames that matched no outstanding request, or malformed frames.
  uint64_t protocol_errors = 0;
  /// Connections that failed (reset / EOF) while responses were owed.
  uint64_t broken_connections = 0;
};

/// Load client over loopback TCP built on the public net/protocol.h
/// codec. A few client threads each drive their own connections with
/// non-blocking sockets and ppoll(2). The open loop keeps an absolute
/// Poisson schedule and times each request from when it was due (the
/// wrk2 coordinated-omission correction); the closed loop keeps a fixed
/// window of pipelined requests per connection. Every run drains every
/// owed response before returning.
class LoadClient {
 public:
  /// Opens threads * conns_per_thread loopback connections to `server`,
  /// spread evenly over its event loops: a connection that the kernel's
  /// SO_REUSEPORT hash puts on an already full loop is closed and
  /// redialled, so every run sees the same connection layout instead of
  /// whatever the hash of its ephemeral ports gives.
  static StatusOr<std::unique_ptr<LoadClient>> Connect(
      const net::NetServer& server, size_t threads, size_t conns_per_thread);
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Sends pool queries (uniformly drawn, seeded) from `start` for
  /// warmup + measure and waits for their responses.
  ClientRun Run(const LoadShape& shape, const std::vector<PoolQuery>& pool,
                Nanos start);

 private:
  LoadClient(size_t threads, size_t conns_per_thread)
      : threads_(threads), conns_per_thread_(conns_per_thread) {}

  const size_t threads_;
  const size_t conns_per_thread_;
  std::vector<int> fds_;
};

}  // namespace bouncer::perfbench

#endif  // BOUNCER_PERFBENCH_CLIENT_H_
