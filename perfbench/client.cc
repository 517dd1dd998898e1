#include "perfbench/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>

#include "src/net/protocol.h"
#include "src/util/rng.h"

namespace bouncer::perfbench {

namespace {

/// Bytes a connection may hold unsent before a new request counts as
/// one the client could not place.
constexpr size_t kMaxPendingTx = 64 * 1024;
/// How long a run waits for owed responses after the last send.
constexpr Nanos kDrainTimeout = 20 * kSecond;

struct Conn {
  int fd = -1;
  std::vector<uint8_t> tx;  ///< Encoded, not yet written.
  size_t tx_off = 0;
  std::vector<uint8_t> rx = std::vector<uint8_t>(64 * 1024);
  size_t rx_fill = 0;
  size_t owed = 0;
  bool broken = false;
};

/// The load one client thread offers over its own connections.
class ThreadLoad {
 public:
  ThreadLoad(uint32_t thread, size_t num_threads, std::vector<int> fds,
             const LoadShape& shape, const std::vector<PoolQuery>& pool,
             Nanos start, std::vector<RequestRecord>* records)
      : thread_(thread),
        num_threads_(num_threads),
        shape_(shape),
        pool_(pool),
        start_(start),
        end_(start + shape.warmup + shape.measure),
        records_(records),
        rng_(shape.seed * 0x9e3779b97f4a7c15ull + thread + 1) {
    conns_.resize(fds.size());
    for (size_t c = 0; c < fds.size(); ++c) conns_[c].fd = fds[c];
    pfds_.resize(conns_.size());
  }

  /// Drives this thread's connections until the run ends and every owed
  /// response arrived (or the drain deadline passed).
  void Run(uint64_t* protocol_errors, uint64_t* broken) {
    const double per_thread_rate =
        shape_.open_loop
            ? shape_.rate_qps / static_cast<double>(num_threads_)
            : 0.0;
    const double mean_gap_ns =
        per_thread_rate > 0 ? 1e9 / per_thread_rate : 0.0;
    double next_due = static_cast<double>(start_);
    if (shape_.open_loop) next_due += rng_.NextExponential(mean_gap_ns);
    bool sending = true;

    if (!shape_.open_loop) {
      const Nanos now = NowNs();
      for (size_t c = 0; c < conns_.size(); ++c) {
        for (size_t w = 0; w < shape_.window; ++w) Issue(c, now, now);
      }
    }

    while (true) {
      Nanos now = NowNs();
      // The open loop stops once the schedule passes the end (every
      // request due before it is still placed, however late).
      if (sending && !shape_.open_loop && now >= end_) sending = false;
      if (sending && shape_.open_loop) {
        while (static_cast<Nanos>(next_due) <= now) {
          const Nanos due = static_cast<Nanos>(next_due);
          if (due >= end_) {
            sending = false;
            break;
          }
          Issue(rr_, due, now);
          rr_ = (rr_ + 1) % conns_.size();
          next_due += rng_.NextExponential(mean_gap_ns);
        }
      }
      FlushAll();
      if (!sending && (Owed() == 0 || now >= end_ + kDrainTimeout)) break;

      Nanos timeout = 10 * kMillisecond;
      if (sending && shape_.open_loop) {
        timeout = std::clamp<Nanos>(static_cast<Nanos>(next_due) - NowNs(), 0,
                                    timeout);
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        pfds_[c].fd = conns_[c].broken ? -1 : conns_[c].fd;
        pfds_[c].events = static_cast<short>(
            POLLIN | (conns_[c].tx.size() > conns_[c].tx_off ? POLLOUT : 0));
        pfds_[c].revents = 0;
      }
      timespec ts{static_cast<time_t>(timeout / kSecond),
                  static_cast<long>(timeout % kSecond)};
      const int ready = ::ppoll(pfds_.data(), pfds_.size(), &ts, nullptr);
      if (ready <= 0) continue;
      now = NowNs();
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (pfds_[c].revents & (POLLIN | POLLERR | POLLHUP)) {
          ReadConn(c, now, sending && !shape_.open_loop && now < end_);
        }
      }
    }
    *protocol_errors = protocol_errors_;
    for (const Conn& conn : conns_) *broken += conn.broken ? 1 : 0;
  }

 private:
  size_t Owed() const {
    size_t owed = 0;
    for (const Conn& conn : conns_) owed += conn.broken ? 0 : conn.owed;
    return owed;
  }

  /// Places one request on connection `c` (due at `due`, sent at `now`).
  void Issue(size_t c, Nanos due, Nanos now) {
    Conn& conn = conns_[c];
    RequestRecord record;
    record.due = due;
    record.sent = now;
    record.pool_index = static_cast<uint32_t>(rng_.NextBounded(pool_.size()));
    record.op = static_cast<uint8_t>(pool_[record.pool_index].query.op);
    if (conn.broken || conn.tx.size() - conn.tx_off > kMaxPendingTx) {
      record.state = RequestState::kUnsent;
      records_->push_back(record);
      return;
    }
    const PoolQuery& q = pool_[record.pool_index];
    net::RequestFrame frame;
    frame.id = (static_cast<uint64_t>(thread_) << ClientRun::kThreadShift) |
               records_->size();
    frame.op = static_cast<uint8_t>(q.query.op);
    frame.source = q.query.source;
    frame.target = q.query.target;
    frame.external_id = q.query.external_id;
    frame.tenant = q.tenant;
    uint8_t encoded[net::kRequestFrameBytes];
    const size_t n = net::EncodeRequest(frame, encoded);
    conn.tx.insert(conn.tx.end(), encoded, encoded + n);
    ++conn.owed;
    records_->push_back(record);
  }

  void FlushAll() {
    for (Conn& conn : conns_) {
      while (!conn.broken && conn.tx_off < conn.tx.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.tx.data() + conn.tx_off,
                   conn.tx.size() - conn.tx_off, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          conn.tx_off += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          conn.broken = true;
        }
      }
      if (conn.tx_off == conn.tx.size()) {
        conn.tx.clear();
        conn.tx_off = 0;
      }
    }
  }

  void ReadConn(size_t c, Nanos now, bool refill) {
    Conn& conn = conns_[c];
    while (!conn.broken) {
      const ssize_t n = ::recv(conn.fd, conn.rx.data() + conn.rx_fill,
                               conn.rx.size() - conn.rx_fill, MSG_DONTWAIT);
      if (n == 0) {
        conn.broken = true;
        break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) conn.broken = true;
        break;
      }
      conn.rx_fill += static_cast<size_t>(n);
      size_t off = 0;
      while (conn.rx_fill - off >= net::kResponseFrameBytes) {
        const uint8_t* frame = conn.rx.data() + off;
        if (net::wire::GetU32(frame) != net::kResponseBodyBytes) {
          ++protocol_errors_;
          conn.broken = true;
          break;
        }
        net::ResponseFrame response;
        net::DecodeResponseBody(frame + net::kLengthPrefixBytes, &response);
        off += net::kResponseFrameBytes;
        Complete(conn, response, now);
        if (refill) Issue(c, now, now);
      }
      std::memmove(conn.rx.data(), conn.rx.data() + off, conn.rx_fill - off);
      conn.rx_fill -= off;
    }
  }

  void Complete(Conn& conn, const net::ResponseFrame& response, Nanos now) {
    const uint64_t thread = response.id >> ClientRun::kThreadShift;
    const uint64_t index =
        response.id & ((uint64_t{1} << ClientRun::kThreadShift) - 1);
    if (thread != thread_ || index >= records_->size() ||
        (*records_)[index].state != RequestState::kPending) {
      ++protocol_errors_;
      return;
    }
    RequestRecord& record = (*records_)[index];
    record.state = RequestState::kDone;
    record.recv = now;
    record.status = static_cast<uint8_t>(response.status);
    record.reason = response.flags;
    record.value = response.value;
    --conn.owed;
  }

  const uint32_t thread_;
  const size_t num_threads_;
  const LoadShape shape_;
  const std::vector<PoolQuery>& pool_;
  const Nanos start_;
  const Nanos end_;
  std::vector<RequestRecord>* records_;
  Rng rng_;
  std::vector<Conn> conns_;
  std::vector<pollfd> pfds_;
  size_t rr_ = 0;
  uint64_t protocol_errors_ = 0;
};

StatusOr<int> DialLoopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(std::string("connect() failed: ") +
                            std::strerror(err));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

StatusOr<std::unique_ptr<LoadClient>> LoadClient::Connect(
    const net::NetServer& server, size_t threads, size_t conns_per_thread) {
  std::unique_ptr<LoadClient> client(new LoadClient(threads, conns_per_thread));
  const size_t total = threads * conns_per_thread;
  const size_t loops = server.num_loops();
  const size_t cap = (total + loops - 1) / loops;
  std::vector<uint64_t> accepted(loops);
  for (size_t i = 0; i < loops; ++i) {
    accepted[i] = server.LoopStats(i).connections_accepted;
  }
  std::vector<size_t> kept(loops, 0);
  for (size_t attempt = 0; client->fds_.size() < total; ++attempt) {
    auto fd = DialLoopback(server.port());
    if (!fd.ok()) return fd.status();
    // Find the loop that accepted it.
    size_t loop = loops;
    for (const Nanos deadline = NowNs() + kSecond;
         loop == loops && NowNs() < deadline;) {
      for (size_t i = 0; i < loops; ++i) {
        const uint64_t now_accepted = server.LoopStats(i).connections_accepted;
        if (now_accepted > accepted[i]) {
          accepted[i] = now_accepted;
          loop = i;
        }
      }
      if (loop == loops) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (loop == loops) {
      ::close(*fd);
      return Status::Internal("server never accepted a connection");
    }
    // After many redials keep whatever the hash gives rather than spin.
    if (kept[loop] < cap || attempt >= 64 * total) {
      ++kept[loop];
      client->fds_.push_back(*fd);
    } else {
      ::close(*fd);
    }
  }
  return client;
}

LoadClient::~LoadClient() {
  for (int fd : fds_) ::close(fd);
}

ClientRun LoadClient::Run(const LoadShape& shape,
                          const std::vector<PoolQuery>& pool, Nanos start) {
  ClientRun run;
  run.records.resize(threads_);
  run.window_start = start + shape.warmup;
  run.window_end = run.window_start + shape.measure;
  const double seconds =
      static_cast<double>(shape.warmup + shape.measure) / 1e9;
  const size_t expect =
      shape.open_loop
          ? static_cast<size_t>(shape.rate_qps * seconds * 1.2 /
                                static_cast<double>(threads_)) + 1024
          : size_t{1} << 20;
  std::vector<uint64_t> errors(threads_, 0);
  std::vector<uint64_t> broken(threads_, 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads_; ++t) {
    run.records[t].reserve(expect);
    workers.emplace_back([&, t] {
      std::vector<int> fds(fds_.begin() + t * conns_per_thread_,
                           fds_.begin() + (t + 1) * conns_per_thread_);
      ThreadLoad load(static_cast<uint32_t>(t), threads_, std::move(fds),
                      shape, pool, start, &run.records[t]);
      load.Run(&errors[t], &broken[t]);
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (size_t t = 0; t < threads_; ++t) {
    run.protocol_errors += errors[t];
    run.broken_connections += broken[t];
  }
  return run;
}

}  // namespace bouncer::perfbench
