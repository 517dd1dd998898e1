#include "src/net/net_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/util/clock.h"
#include "src/util/thread_name.h"

namespace bouncer::net {

namespace {

constexpr uint64_t kEventToken = ~uint64_t{0};
constexpr int kMaxEpollEvents = 64;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

/// One client connection, owned by exactly one IO thread.
struct NetClient::Conn {
  Conn(size_t ring_bytes) : rx(ring_bytes), tx(ring_bytes) {}

  struct Slot {
    Nanos t0 = 0;
    uint64_t seq = ~uint64_t{0};
    uint8_t op = 0;
  };

  int fd = -1;
  size_t index = 0;
  ByteRing rx;
  ByteRing tx;
  uint64_t next_seq = 0;
  uint64_t inflight = 0;
  std::vector<Slot> slots;
  bool want_write = false;  ///< EPOLLOUT armed.
  bool alive = false;
};

NetClient::NetClient(const Options& options, Sampler sampler)
    : options_(options),
      sampler_(std::move(sampler)),
      open_queue_(options.open_queue_capacity) {
  if (options_.num_io_threads == 0) options_.num_io_threads = 1;
  if (options_.num_io_threads > options_.num_connections) {
    options_.num_io_threads = options_.num_connections;
  }
  // Responses match their departure timestamp by sequence number; a
  // stale slot (overwritten under extreme overload) just skips the
  // latency sample instead of corrupting it.
  size_t slots = options_.latency_slots;
  if (slots == 0) {
    slots = 4 * options_.in_flight_per_conn;
    if (slots < 64) slots = 64;
    if (slots > 4096) slots = 4096;
  }
  slot_mask_ = RoundUpPow2(slots) - 1;
}

NetClient::~NetClient() { Stop(); }

Status NetClient::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("client already started");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + options_.host);
  }
  // Setup failures below must close everything opened so far (sockets
  // and per-thread epoll/event fds); Stop() never runs for a failed
  // Start(), so each early return routes through this cleanup.
  const auto fail = [this](Status status) {
    for (auto& c : conns_) {
      if (c->fd >= 0) ::close(c->fd);
    }
    conns_.clear();
    for (int fd : epoll_fds_) {
      if (fd >= 0) ::close(fd);
    }
    for (int fd : event_fds_) {
      if (fd >= 0) ::close(fd);
    }
    epoll_fds_.clear();
    event_fds_.clear();
    wake_flags_.clear();
    return status;
  };
  conns_.reserve(options_.num_connections);
  for (size_t i = 0; i < options_.num_connections; ++i) {
    auto conn = std::make_unique<Conn>(options_.ring_bytes);
    conn->index = i;
    conn->slots.resize(slot_mask_ + 1);
    conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn->fd < 0 ||
        ::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      if (conn->fd >= 0) ::close(conn->fd);
      return fail(Status::Internal(std::string("connect() failed: ") +
                                   std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Verify: a client socket Nagle-delaying small request frames would
    // serialize the whole closed loop behind delayed ACKs.
    int nodelay = 0;
    socklen_t nodelay_len = sizeof(nodelay);
    if (::getsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                     &nodelay_len) != 0 ||
        nodelay == 0) {
      ::close(conn->fd);
      return fail(Status::Internal("TCP_NODELAY not set on client socket"));
    }
    // Connect blocking (deterministic setup), then switch non-blocking
    // for the event loop.
    const int fl = ::fcntl(conn->fd, F_GETFL, 0);
    ::fcntl(conn->fd, F_SETFL, fl | O_NONBLOCK);
    conn->alive = true;
    conns_.push_back(std::move(conn));
  }

  const size_t nthreads = options_.num_io_threads;
  epoll_fds_.assign(nthreads, -1);
  event_fds_.assign(nthreads, -1);
  wake_flags_.clear();
  for (size_t t = 0; t < nthreads; ++t) {
    wake_flags_.push_back(std::make_unique<std::atomic<bool>>(false));
    epoll_fds_[t] = ::epoll_create1(EPOLL_CLOEXEC);
    event_fds_[t] = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epoll_fds_[t] < 0 || event_fds_[t] < 0) {
      return fail(Status::Internal("epoll/eventfd setup failed"));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kEventToken;
    ::epoll_ctl(epoll_fds_[t], EPOLL_CTL_ADD, event_fds_[t], &ev);
  }
  // Connections shard across threads round-robin.
  for (auto& conn : conns_) {
    const size_t t = conn->index % nthreads;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->index;
    ::epoll_ctl(epoll_fds_[t], EPOLL_CTL_ADD, conn->fd, &ev);
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (size_t t = 0; t < nthreads; ++t) {
    threads_.emplace_back([this, t] { IoThread(t); });
    SetThreadName(threads_.back(), "netcli-io" + std::to_string(t));
  }
  return Status::OK();
}

void NetClient::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  for (size_t t = 0; t < threads_.size(); ++t) WakeThread(t);
  for (auto& thread : threads_) thread.join();
  threads_.clear();
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns_.clear();
  for (int fd : epoll_fds_) {
    if (fd >= 0) ::close(fd);
  }
  for (int fd : event_fds_) {
    if (fd >= 0) ::close(fd);
  }
  epoll_fds_.clear();
  event_fds_.clear();
  wake_flags_.clear();
}

void NetClient::WakeThread(size_t thread_index) {
  if (thread_index >= wake_flags_.size()) return;
  if (!wake_flags_[thread_index]->exchange(true,
                                           std::memory_order_acq_rel)) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(event_fds_[thread_index], &one, sizeof(one));
  }
}

void NetClient::StartClosedLoop() {
  sending_.store(true, std::memory_order_release);
  mode_.store(static_cast<int>(Mode::kClosedLoop),
              std::memory_order_release);
  for (size_t t = 0; t < threads_.size(); ++t) WakeThread(t);
}

void NetClient::StopSending() {
  sending_.store(false, std::memory_order_release);
}

bool NetClient::TrySend(const RequestFrame& frame, Nanos due) {
  if (!running_.load(std::memory_order_acquire)) return false;
  if (!open_queue_.TryPush(OpenRequest{frame, due})) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Counted before the IO threads ever see the frame, so WaitForDrain
  // can't miss requests still sitting in open_queue_ (or mid-placement).
  accepted_.fetch_add(1, std::memory_order_release);
  WakeThread(open_rr_.fetch_add(1, std::memory_order_relaxed) %
             options_.num_io_threads);
  return true;
}

bool NetClient::WaitForDrain(Nanos timeout) {
  Clock* clock = SystemClock::Global();
  const Nanos deadline = clock->Now() + timeout;
  for (;;) {
    // accepted_ covers every frame committed to be sent — including
    // open-loop frames still in open_queue_ or being placed on a
    // connection — unlike queued_, which lags until placement.
    const uint64_t accepted = accepted_.load(std::memory_order_acquire);
    const uint64_t responses = responses_.load(std::memory_order_acquire);
    if (responses >= accepted) return true;
    if (conn_errors_.load(std::memory_order_acquire) > 0) return false;
    if (clock->Now() >= deadline) return false;
    ::usleep(200);
  }
}

NetClient::Counters NetClient::counters() const {
  Counters c;
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.queued = queued_.load(std::memory_order_relaxed);
  c.responses = responses_.load(std::memory_order_relaxed);
  c.ok = ok_.load(std::memory_order_relaxed);
  c.rejected = rejected_.load(std::memory_order_relaxed);
  c.shedded = shedded_.load(std::memory_order_relaxed);
  c.expired = expired_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  c.dropped = dropped_.load(std::memory_order_relaxed);
  c.conn_errors = conn_errors_.load(std::memory_order_relaxed);
  c.reason_policy = reason_policy_.load(std::memory_order_relaxed);
  c.reason_queue = reason_queue_.load(std::memory_order_relaxed);
  c.reason_expired = reason_expired_.load(std::memory_order_relaxed);
  c.reason_shard = reason_shard_.load(std::memory_order_relaxed);
  return c;
}

void NetClient::ResetStats() {
  accepted_.store(0, std::memory_order_relaxed);
  queued_.store(0, std::memory_order_relaxed);
  responses_.store(0, std::memory_order_relaxed);
  ok_.store(0, std::memory_order_relaxed);
  rejected_.store(0, std::memory_order_relaxed);
  shedded_.store(0, std::memory_order_relaxed);
  expired_.store(0, std::memory_order_relaxed);
  failed_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  reason_policy_.store(0, std::memory_order_relaxed);
  reason_queue_.store(0, std::memory_order_relaxed);
  reason_expired_.store(0, std::memory_order_relaxed);
  reason_shard_.store(0, std::memory_order_relaxed);
  latency_.Reset();
  for (auto& h : latency_by_op_) h.Reset();
}

bool NetClient::SendOne(Conn* conn) {
  if (conn->tx.free_space() < kRequestFrameBytes) return false;
  RequestFrame frame = sampler_(conn->index, conn->next_seq);
  frame.id = conn->next_seq;
  Conn::Slot& slot = conn->slots[conn->next_seq & slot_mask_];
  slot.t0 = SystemClock::Global()->Now();
  slot.seq = conn->next_seq;
  slot.op = frame.op;
  uint8_t encoded[kRequestFrameBytes];
  const size_t frame_bytes = EncodeRequest(frame, encoded);
  conn->tx.Write(encoded, frame_bytes);
  ++conn->next_seq;
  ++conn->inflight;
  // Closed-loop frames skip open_queue_, so acceptance and placement
  // coincide.
  accepted_.fetch_add(1, std::memory_order_release);
  queued_.fetch_add(1, std::memory_order_release);
  return true;
}

void NetClient::TopUp(Conn* conn) {
  if (!conn->alive) return;
  while (conn->inflight < options_.in_flight_per_conn) {
    if (!SendOne(conn)) break;
  }
}

void NetClient::PlaceOpenLoop(size_t thread_index) {
  // Each thread drains the shared queue onto its own connections,
  // round-robin, stopping when none can take another frame (the local
  // queue then backs up and TrySend starts dropping — by design).
  const size_t nthreads = options_.num_io_threads;
  size_t start = thread_index;
  OpenRequest request;
  for (;;) {
    Conn* target = nullptr;
    for (size_t i = start; i < conns_.size(); i += nthreads) {
      Conn* conn = conns_[i].get();
      if (conn->alive && conn->tx.free_space() >= kRequestFrameBytes) {
        target = conn;
        start = i + nthreads;  // Continue the scan past this conn.
        break;
      }
    }
    if (target == nullptr) return;
    if (!open_queue_.TryPop(request)) return;
    RequestFrame& frame = request.frame;
    frame.id = target->next_seq;
    Conn::Slot& slot = target->slots[target->next_seq & slot_mask_];
    slot.t0 = request.due;
    slot.seq = target->next_seq;
    slot.op = frame.op;
    uint8_t encoded[kRequestFrameBytes];
    const size_t frame_bytes = EncodeRequest(frame, encoded);
    target->tx.Write(encoded, frame_bytes);
    ++target->next_seq;
    ++target->inflight;
    queued_.fetch_add(1, std::memory_order_release);
    if (start >= conns_.size()) start = thread_index;
  }
}

void NetClient::OnResponse(Conn* conn, const ResponseFrame& frame,
                           Nanos now) {
  responses_.fetch_add(1, std::memory_order_release);
  switch (frame.status) {
    case ResponseStatus::kOk:
      ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kRejected:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kShedded:
      shedded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kExpired:
      expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  // The flags byte carries the server's RejectReason wire code.
  switch (static_cast<RejectReason>(frame.flags)) {
    case RejectReason::kPolicy:
      reason_policy_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RejectReason::kQueueFull:
      reason_queue_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RejectReason::kExpired:
      reason_expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RejectReason::kShardPolicy:
    case RejectReason::kShardQueueFull:
    case RejectReason::kShardExpired:
      reason_shard_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  if (conn->inflight > 0) --conn->inflight;
  const Conn::Slot& slot = conn->slots[frame.id & slot_mask_];
  if (slot.seq == frame.id) {
    const Nanos rt = now - slot.t0;
    latency_.Record(rt);
    if (slot.op < graph::kNumGraphOps) latency_by_op_[slot.op].Record(rt);
  }
  if (mode_.load(std::memory_order_acquire) ==
          static_cast<int>(Mode::kClosedLoop) &&
      sending_.load(std::memory_order_acquire)) {
    SendOne(conn);
  }
}

void NetClient::FailConn(Conn* conn) {
  if (!conn->alive) return;
  conn->alive = false;
  ::close(conn->fd);
  conn->fd = -1;
  conn_errors_.fetch_add(1, std::memory_order_release);
}

void NetClient::ReadConn(Conn* conn) {
  if (!conn->alive) return;
  for (;;) {
    struct iovec iov[2];
    const int segments = conn->rx.WritableSegments(iov);
    if (segments == 0) break;  // Parse below frees space next round.
    const ssize_t n = ::readv(conn->fd, iov, segments);
    if (n > 0) {
      conn->rx.CommitWrite(static_cast<size_t>(n));
      continue;
    }
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR)) {
      FailConn(conn);
      return;
    }
    if (errno == EINTR) continue;
    break;
  }
  const Nanos now = SystemClock::Global()->Now();
  for (;;) {
    uint8_t header[kLengthPrefixBytes];
    if (!conn->rx.Peek(0, header, sizeof(header))) break;
    if (wire::GetU32(header) != kResponseBodyBytes) {
      FailConn(conn);
      return;
    }
    uint8_t body[kResponseBodyBytes];
    if (!conn->rx.Peek(kLengthPrefixBytes, body, sizeof(body))) break;
    conn->rx.Consume(kResponseFrameBytes);
    ResponseFrame frame;
    DecodeResponseBody(body, &frame);
    OnResponse(conn, frame, now);
  }
}

void NetClient::FlushConn(Conn* conn) {
  if (!conn->alive) return;
  bool want_write = false;
  while (!conn->tx.empty()) {
    struct iovec iov[2];
    const int segments = conn->tx.ReadableSegments(iov);
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(segments);
    // MSG_NOSIGNAL: a server that went away fails the connection (EPIPE),
    // it does not kill the client process.
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      conn->tx.Consume(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      want_write = true;
      break;
    }
    if (n < 0 && errno == EINTR) continue;
    FailConn(conn);
    return;
  }
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.u64 = conn->index;
    ::epoll_ctl(epoll_fds_[conn->index % options_.num_io_threads],
                EPOLL_CTL_MOD, conn->fd, &ev);
  }
}

void NetClient::IoThread(size_t thread_index) {
  epoll_event events[kMaxEpollEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(epoll_fds_[thread_index], events, kMaxEpollEvents, 100);
    for (int i = 0; i < n; ++i) {
      const uint64_t token = events[i].data.u64;
      if (token == kEventToken) {
        uint64_t drained;
        [[maybe_unused]] ssize_t r =
            ::read(event_fds_[thread_index], &drained, sizeof(drained));
        wake_flags_[thread_index]->store(false, std::memory_order_release);
        continue;
      }
      Conn* conn = conns_[token].get();
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        ReadConn(conn);
      }
      if (conn->alive && (events[i].events & EPOLLOUT)) FlushConn(conn);
    }
    if (mode_.load(std::memory_order_acquire) ==
            static_cast<int>(Mode::kClosedLoop) &&
        sending_.load(std::memory_order_acquire)) {
      for (size_t i = thread_index; i < conns_.size();
           i += options_.num_io_threads) {
        TopUp(conns_[i].get());
      }
    }
    PlaceOpenLoop(thread_index);
    for (size_t i = thread_index; i < conns_.size();
         i += options_.num_io_threads) {
      FlushConn(conns_[i].get());
    }
  }
}

}  // namespace bouncer::net
