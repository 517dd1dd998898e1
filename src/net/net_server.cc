#include "src/net/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include "src/util/clock.h"
#include "src/util/thread_name.h"

namespace bouncer::net {

using graph::GraphQueryResult;
using server::Outcome;

namespace {

/// epoll user-data tokens for the two non-connection fds.
constexpr uint64_t kListenToken = ~uint64_t{0};
constexpr uint64_t kEventToken = ~uint64_t{0} - 1;

/// Events drained per epoll_wait call; a wakeup with more ready fds just
/// takes another loop iteration.
constexpr int kMaxEpollEvents = 128;

/// How long a loop stops accepting after accept fails for want of fds or
/// memory. The pending connection stays in the listen backlog and is
/// accepted by the first retry that finds a free fd.
constexpr Nanos kAcceptBackoff = 10 * kMillisecond;

/// Connection-token field widths: generation << 32 | loop << 24 | slot.
constexpr uint32_t kSlotBits = 24;
constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
constexpr uint32_t kLoopMask = 0xff;
constexpr size_t kMaxLoops = 255;

/// Data-path syscall accounting (Stats::syscalls). Templated so it never
/// names the private LoopCounters type.
template <typename Counters>
void CountSyscall(Counters& counters) {
  counters.syscalls.fetch_add(1, std::memory_order_relaxed);
}

void WriteEventFd(int fd) {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof(one));
}

ResponseStatus ToStatus(Outcome outcome, bool result_ok) {
  switch (outcome) {
    case Outcome::kCompleted:
      return result_ok ? ResponseStatus::kOk : ResponseStatus::kFailed;
    case Outcome::kRejected:
      return ResponseStatus::kRejected;
    case Outcome::kExpired:
      return ResponseStatus::kExpired;
    case Outcome::kShedded:
      return ResponseStatus::kShedded;
  }
  return ResponseStatus::kFailed;
}

/// "<step> failed: <errno text>".
Status SysError(const char* step) {
  return Status::Internal(std::string(step) +
                          " failed: " + std::strerror(errno));
}

}  // namespace

/// One connection slot, owned by exactly one loop for its whole life.
/// Slots (and their rings) are allocated once and recycled across
/// connections; `gen` stamps each incarnation so a completion for a
/// closed connection resolves to nothing instead of a stranger's socket.
struct NetServer::Connection {
  Connection(size_t rx_bytes, size_t tx_bytes) : rx(rx_bytes), tx(tx_bytes) {}

  int fd = -1;
  uint32_t index = 0;    ///< Slot index within the owning loop (24 bits).
  uint32_t loop_id = 0;  ///< Owning loop (8 bits); never changes.
  uint32_t gen = 1;
  ByteRing rx;
  ByteRing tx;
  /// Parsed requests whose response has not yet been encoded into `tx`.
  /// Invariant: tx.free_space() >= owed * kResponseFrameBytes, so a
  /// completion can always be answered without dropping or buffering.
  size_t owed = 0;
  uint32_t armed_events = 0;  ///< Events currently registered in epoll.
  bool want_read = true;
  bool dirty = false;  ///< Has tx bytes awaiting a flush this iteration.
  bool read_paused_inflight = false;
  bool read_paused_tx = false;
  bool read_paused_overload = false;
  bool closing = false;  ///< Peer EOF seen; flush what is owed, then close.

  /// Admin response in progress: the rendered payload streams into `tx`
  /// in chunks as space frees up, never displacing the frames reserved
  /// for the `owed` graph responses. One admin response at a time per
  /// connection; a second admin frame stays buffered in `rx` meanwhile.
  bool admin_active = false;
  uint64_t admin_id = 0;       ///< Request id echoed in every chunk.
  size_t admin_offset = 0;     ///< Payload bytes already written.
  std::string admin_payload;

  uint64_t Token() const {
    return (static_cast<uint64_t>(gen) << 32) |
           (static_cast<uint64_t>(loop_id) << kSlotBits) | index;
  }
};

struct NetServer::Pending {
  Loop* loop = nullptr;  ///< Owning loop (completion routing).
  uint64_t token = 0;
  uint64_t request_id = 0;
  TenantId tenant = kDefaultTenant;  ///< Dense index (outcome accounting).
};

/// One reactor: everything a loop thread touches on the hot path lives
/// here and is owned by that thread alone (the done-ring is the only
/// cross-thread entry point, a bounded MPMC).
struct NetServer::Loop {
  Loop(NetServer* server_in, size_t id_in, size_t done_ring_capacity)
      : server(server_in),
        id(static_cast<uint32_t>(id_in)),
        pending_pool(4096),
        done_ring(done_ring_capacity) {}

  NetServer* server;
  uint32_t id;

  int listen_fd = -1;  ///< Own listener (SO_REUSEPORT with > 1 loop).
  int epoll_fd = -1;
  int event_fd = -1;
  /// The listener is registered for EPOLLIN.
  bool accept_armed = false;
  /// Non-zero while accept is backed off (AcceptReady): the time the loop
  /// may poll its listener again.
  Nanos accept_retry_at = 0;

  std::vector<std::unique_ptr<Connection>> slots;
  std::vector<uint32_t> free_slots;

  /// Parse scratch for one admission episode (reused, never freed).
  std::vector<graph::Cluster::BatchRequest> batch;
  std::vector<uint64_t> batch_tokens;  ///< Connection of each batch entry.

  ObjectPool<Pending> pending_pool;
  /// Worker-thread completions only. The loop thread never pushes here:
  /// its synchronous completions (rejections inside Submit/SubmitBatch)
  /// deliver inline, so a full ring can never make the loop wait on
  /// itself — it only throttles workers until the next loop drain.
  MpmcQueue<Done> done_ring;
  std::atomic<bool> done_signal{false};
  /// True only while the loop thread is blocked (or about to block) in
  /// its wait. Workers only pay the eventfd write(2) when they see it:
  /// an awake loop drains the ring every iteration anyway, so pushes
  /// meanwhile coalesce to zero syscalls. Dekker-paired (seq_cst
  /// fences) with the loop's pre-wait ring emptiness check so a push
  /// can never slip between the check and the block unnoticed.
  std::atomic<bool> done_waiting{false};

  std::atomic<std::thread::id> tid{};
  /// True while this loop's thread is inside a Cluster submit call.
  /// Loop-thread completions arriving then are parked in deferred_dones
  /// (delivery can resume reads, which would mutate batch mid-submit)
  /// and delivered as soon as the submit returns.
  bool in_submit = false;
  /// SubmitParsed nesting depth (delivery of deferred completions can
  /// resume reads that re-enter it); only depth 0 delivers.
  size_t submit_depth = 0;
  std::vector<Done> deferred_dones;  ///< Loop-only scratch, reused.

  /// Connections paused for broker-queue overload, re-checked every loop
  /// iteration; sheds observed by the last submit episode set this.
  bool overload_paused = false;

  LoopCounters counters;
  std::thread thread;
};

const char* NetBackendName(NetBackend) { return "epoll"; }

NetServer::NetServer(graph::Cluster* cluster, const Options& options)
    : cluster_(cluster), options_(options) {
  if (options_.num_loops == 0) {
    const size_t hw = std::thread::hardware_concurrency();
    options_.num_loops = hw == 0 ? 1 : (hw < 4 ? hw : 4);
  }
  if (options_.num_loops > kMaxLoops) options_.num_loops = kMaxLoops;
  if constexpr (stats::kTraceCompiledIn) {
    recorder_ = options_.recorder != nullptr
                    ? options_.recorder
                    : &stats::FlightRecorder::Global();
  }
  if (options_.tenants != nullptr) {
    tenant_stats_ =
        std::make_unique<PolicyStateTable<TenantNetCell>>(/*num_types=*/1);
  }
}

NetServer::~NetServer() { Stop(); }

Status NetServer::StartListeners() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  // One listener per loop, all bound to the same port: SO_REUSEPORT lets
  // the kernel hash incoming connections across them, so accepting needs
  // no shared state. Any failure fails Start(), which closes what was
  // already bound.
  const bool reuseport = loops_.size() > 1;
  for (auto& loop : loops_) {
    loop->listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    const int fd = loop->listen_fd;
    if (fd < 0) return SysError("listener socket()");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (reuseport &&
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      return SysError("setsockopt(SO_REUSEPORT)");
    }
    addr.sin_port = htons(port_ == 0 ? options_.port : port_);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      return SysError("bind");
    }
    if (::listen(fd, options_.listen_backlog) < 0) return SysError("listen");
    if (port_ == 0) {
      socklen_t addr_len = sizeof(addr);
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
      port_ = ntohs(addr.sin_port);
    }
  }
  return Status::OK();
}

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }
  loops_.clear();  // Restart after Stop(): previous loops' stats reset.
  port_ = 0;
  total_live_.store(0, std::memory_order_relaxed);

  const size_t num_loops = options_.num_loops;
  // Done-ring sizing: bounds how far workers can run ahead of a loop's
  // drain. Scaled down with the loop count so a high-connection server
  // doesn't multiply ring memory by the loop count.
  size_t ring = options_.max_connections * 64 / num_loops;
  if (ring < (1u << 12)) ring = 1u << 12;
  if (ring > (1u << 16)) ring = 1u << 16;
  loops_.reserve(num_loops);
  for (size_t i = 0; i < num_loops; ++i) {
    loops_.push_back(std::make_unique<Loop>(this, i, ring));
    Loop& loop = *loops_.back();
    loop.batch.reserve(options_.max_batch);
    loop.batch_tokens.reserve(options_.max_batch);
    loop.deferred_dones.reserve(options_.max_batch);
  }

  if (Status s = StartListeners(); !s.ok()) {
    CloseAll();
    loops_.clear();
    return s;
  }
  for (auto& loop_ptr : loops_) {
    Loop& loop = *loop_ptr;
    loop.event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop.event_fd < 0) {
      CloseAll();
      loops_.clear();
      return Status::Internal("eventfd setup failed");
    }
  }
  for (auto& loop_ptr : loops_) {
    Loop& loop = *loop_ptr;
    loop.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop.epoll_fd < 0) {
      CloseAll();
      loops_.clear();
      return Status::Internal("epoll setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenToken;
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.listen_fd, &ev);
    loop.accept_armed = true;
    ev.events = EPOLLIN;
    ev.data.u64 = kEventToken;
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.event_fd, &ev);
  }

  if (options_.metrics != nullptr) {
    metrics_collector_handle_ =
        options_.metrics->AddCollector([this](stats::MetricSink& sink) {
          const Stats s = AggregateStats();
#define BOUNCER_NET_EXPORT_COUNTER(name) sink.AddCounter("net." #name, s.name);
          BOUNCER_NET_COUNTERS(BOUNCER_NET_EXPORT_COUNTER)
#undef BOUNCER_NET_EXPORT_COUNTER
          sink.AddGauge("net.loops", static_cast<int64_t>(loops_.size()));
          for (size_t i = 0; i < loops_.size(); ++i) {
            const Stats ls = LoopStats(i);
            const std::string prefix = "net.loop" + std::to_string(i) + ".";
            sink.AddCounter(prefix + "requests", ls.requests);
            sink.AddCounter(prefix + "responses", ls.responses);
            sink.AddCounter(prefix + "pauses", ls.pauses);
          }
          if (options_.tenants != nullptr && tenant_stats_ != nullptr) {
            // Per-tenant rows, keyed by external id. Bounded so a
            // 100k-tenant deployment cannot balloon the admin payload:
            // the first kMaxTenantMetricRows active tenants are listed,
            // the rest only counted.
            constexpr size_t kMaxTenantMetricRows = 256;
            const size_t n = options_.tenants->size();
            sink.AddGauge("tenant.count", static_cast<int64_t>(n));
            size_t rows = 0;
            size_t skipped = 0;
            for (size_t t = 0; t < n; ++t) {
              const TenantNetCell* cell =
                  tenant_stats_->Find(static_cast<TenantId>(t));
              if (cell == nullptr) continue;
              const uint64_t requests =
                  cell->requests.load(std::memory_order_relaxed);
              if (requests == 0) continue;
              if (rows >= kMaxTenantMetricRows) {
                ++skipped;
                continue;
              }
              ++rows;
              const std::string prefix =
                  "tenant." +
                  std::to_string(options_.tenants->ExternalIdOf(
                      static_cast<TenantId>(t))) +
                  ".";
              sink.AddCounter(prefix + "requests", requests);
              sink.AddCounter(prefix + "ok",
                              cell->ok.load(std::memory_order_relaxed));
              sink.AddCounter(
                  prefix + "rejected",
                  cell->rejected.load(std::memory_order_relaxed));
              sink.AddCounter(prefix + "shedded",
                              cell->shedded.load(std::memory_order_relaxed));
              sink.AddCounter(prefix + "expired",
                              cell->expired.load(std::memory_order_relaxed));
              sink.AddCounter(prefix + "failed",
                              cell->failed.load(std::memory_order_relaxed));
            }
            sink.AddGauge("tenant.rows_truncated",
                          static_cast<int64_t>(skipped));
          }
        });
  }

  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& loop_ptr : loops_) {
    Loop& loop = *loop_ptr;
    loop.thread = std::thread([this, &loop] { RunLoop(loop); });
    SetThreadName(loop.thread, "net-loop" + std::to_string(loop.id));
  }
  return Status::OK();
}

void NetServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (metrics_collector_handle_ != 0) {
    options_.metrics->RemoveCollector(metrics_collector_handle_);
    metrics_collector_handle_ = 0;
  }
  stop_requested_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    if (loop->event_fd >= 0) WriteEventFd(loop->event_fd);
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Cluster workers may still be inside OnQueryDone for requests this
  // server submitted; those calls read Loop state (done rings, counters,
  // eventfds), so the loops must stay alive until the last one returns.
  // The ring-push spin inside OnQueryDone exits on stop_requested_, so
  // this drain is bounded by worker progress, never by ring space.
  while (inflight_dones_.load(std::memory_order_acquire) != 0) {
    CpuRelax();
  }
  // Completions that landed after the loops exited are counted now, with
  // every connection already closed: DeliverDone then only counts them
  // (dropped at close) and cannot resume a read that would parse new
  // requests nobody submits.
  CloseAll();
  for (auto& loop : loops_) DrainCompletions(*loop);
}

void NetServer::CloseAll() {
  for (auto& loop_ptr : loops_) {
    Loop& loop = *loop_ptr;
    for (auto& slot : loop.slots) {
      if (slot && slot->fd >= 0) {
        ::close(slot->fd);
        slot->fd = -1;
        ++slot->gen;
      }
    }
    if (loop.listen_fd >= 0) ::close(loop.listen_fd);
    if (loop.epoll_fd >= 0) ::close(loop.epoll_fd);
    if (loop.event_fd >= 0) ::close(loop.event_fd);
    loop.listen_fd = loop.epoll_fd = loop.event_fd = -1;
  }
}

NetServer::TenantStats NetServer::TenantStatsOf(TenantId tenant) const {
  TenantStats s;
  if (tenant_stats_ == nullptr) return s;
  const TenantNetCell* cell = tenant_stats_->Find(tenant);
  if (cell == nullptr) return s;
  s.requests = cell->requests.load(std::memory_order_relaxed);
  s.ok = cell->ok.load(std::memory_order_relaxed);
  s.rejected = cell->rejected.load(std::memory_order_relaxed);
  s.shedded = cell->shedded.load(std::memory_order_relaxed);
  s.expired = cell->expired.load(std::memory_order_relaxed);
  s.failed = cell->failed.load(std::memory_order_relaxed);
  return s;
}

NetServer::Stats NetServer::LoopStats(size_t loop) const {
  Stats s;
  if (loop >= loops_.size()) return s;
  const LoopCounters& c = loops_[loop]->counters;
#define BOUNCER_NET_LOAD_COUNTER(name) \
  s.name = c.name.load(std::memory_order_relaxed);
  BOUNCER_NET_COUNTERS(BOUNCER_NET_LOAD_COUNTER)
#undef BOUNCER_NET_LOAD_COUNTER
  return s;
}

NetServer::Stats NetServer::AggregateStats() const {
  Stats total;
  for (size_t i = 0; i < loops_.size(); ++i) {
    const Stats s = LoopStats(i);
#define BOUNCER_NET_SUM_COUNTER(name) total.name += s.name;
    BOUNCER_NET_COUNTERS(BOUNCER_NET_SUM_COUNTER)
#undef BOUNCER_NET_SUM_COUNTER
  }
  return total;
}

NetServer::Connection* NetServer::Resolve(Loop& loop, uint64_t token) {
  const uint32_t index = static_cast<uint32_t>(token) & kSlotMask;
  const uint32_t loop_id =
      static_cast<uint32_t>(token >> kSlotBits) & kLoopMask;
  const auto gen = static_cast<uint32_t>(token >> 32);
  if (loop_id != loop.id || index >= loop.slots.size()) return nullptr;
  Connection* conn = loop.slots[index].get();
  if (conn == nullptr || conn->fd < 0 || conn->gen != gen) return nullptr;
  return conn;
}

void NetServer::UpdateInterest(Loop& loop, Connection* conn) {
  uint32_t want = 0;
  if (conn->want_read && !conn->closing) want |= EPOLLIN;
  if (!conn->tx.empty()) want |= EPOLLOUT;
  if (want == conn->armed_events) return;
  epoll_event ev{};
  ev.events = want | EPOLLRDHUP;
  ev.data.u64 = conn->Token();
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  CountSyscall(loop.counters);
  conn->armed_events = want;
}

void NetServer::PauseRead(Loop& loop, Connection* conn) {
  if (!conn->want_read) return;
  conn->want_read = false;
  loop.counters.pauses.fetch_add(1, std::memory_order_relaxed);
  UpdateInterest(loop, conn);
}

void NetServer::ResumeRead(Loop& loop, Connection* conn) {
  if (conn->want_read || conn->closing) return;
  if (conn->read_paused_inflight || conn->read_paused_tx ||
      conn->read_paused_overload) {
    return;
  }
  conn->want_read = true;
  UpdateInterest(loop, conn);
  // Bytes may already be buffered (or the kernel buffer full); parse and
  // read rather than waiting for another edge.
  ParseConn(loop, conn);
  ReadConn(loop, conn);
}

void NetServer::Accepted(Loop& loop, int fd) {
  if (total_live_.fetch_add(1, std::memory_order_relaxed) >=
      options_.max_connections) {
    total_live_.fetch_sub(1, std::memory_order_relaxed);
    loop.counters.connections_dropped.fetch_add(1, std::memory_order_relaxed);
    ::close(fd);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Verify: small length-prefixed frames must never be Nagle-delayed.
  // The counter (asserted zero in tests) proves every accepted socket
  // really runs with the option set.
  int got = 0;
  socklen_t got_len = sizeof(got);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &got, &got_len) != 0 ||
      got == 0) {
    loop.counters.nodelay_failures.fetch_add(1, std::memory_order_relaxed);
  }

  Connection* conn;
  if (!loop.free_slots.empty()) {
    conn = loop.slots[loop.free_slots.back()].get();
    loop.free_slots.pop_back();
  } else {
    if (loop.slots.size() >= kSlotMask) {
      // Slot index field exhausted (16M connections on one loop).
      loop.counters.connections_dropped.fetch_add(1,
                                                  std::memory_order_relaxed);
      total_live_.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
      return;
    }
    const auto index = static_cast<uint32_t>(loop.slots.size());
    loop.slots.push_back(std::make_unique<Connection>(
        options_.read_ring_bytes, options_.write_ring_bytes));
    conn = loop.slots.back().get();
    conn->index = index;
    conn->loop_id = loop.id;
  }
  conn->fd = fd;
  conn->rx.Clear();
  conn->tx.Clear();
  conn->owed = 0;
  conn->want_read = true;
  conn->dirty = false;
  conn->read_paused_inflight = conn->read_paused_tx =
      conn->read_paused_overload = false;
  conn->closing = false;
  conn->admin_active = false;
  conn->admin_id = 0;
  conn->admin_offset = 0;
  conn->admin_payload.clear();
  conn->armed_events = EPOLLIN;
  loop.counters.connections_accepted.fetch_add(1, std::memory_order_relaxed);

  // Level-triggered EPOLLIN: bytes that arrived before this ADD surface
  // on the next epoll_wait.
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.u64 = conn->Token();
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  CountSyscall(loop.counters);
}

void NetServer::AcceptReady(Loop& loop) {
  for (;;) {
    CountSyscall(loop.counters);
    const int fd = ::accept4(loop.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      Accepted(loop, fd);
      continue;
    }
    // Anything else (ECONNABORTED, EINTR, EAGAIN...) concerns one
    // connection or none; the listener stays polled.
    const int err = errno;
    if (err != EMFILE && err != ENFILE && err != ENOBUFS && err != ENOMEM) {
      return;
    }
    // The listener is level-triggered: left armed while the fd table is
    // full, epoll_wait would report it again at once. RunLoop re-arms it
    // at the retry time.
    loop.accept_retry_at = SystemClock::Global()->Now() + kAcceptBackoff;
    WatchListener(loop, 0);
    return;
  }
}

void NetServer::WatchListener(Loop& loop, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = kListenToken;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, loop.listen_fd, &ev);
  CountSyscall(loop.counters);
  loop.accept_armed = events != 0;
}

void NetServer::CloseConn(Loop& loop, Connection* conn) {
  if (conn->fd < 0) return;
  ::close(conn->fd);  // Also removes it from the epoll set.
  conn->fd = -1;
  ++conn->gen;  // In-flight completions now resolve to nothing.
  conn->rx.Clear();
  conn->tx.Clear();
  conn->owed = 0;
  conn->dirty = false;
  conn->admin_active = false;
  conn->admin_payload.clear();
  conn->admin_payload.shrink_to_fit();
  loop.free_slots.push_back(conn->index);
  total_live_.fetch_sub(1, std::memory_order_relaxed);
  loop.counters.connections_closed.fetch_add(1, std::memory_order_relaxed);
}

void NetServer::ReadConn(Loop& loop, Connection* conn) {
  if (conn->fd < 0 || conn->closing) return;
  for (;;) {
    if (!conn->want_read) return;  // Parse gate paused us mid-read.
    struct iovec iov[2];
    const int segments = conn->rx.WritableSegments(iov);
    if (segments == 0) {
      // Ring full of unparsed bytes: only possible while a parse gate
      // holds (frames are far smaller than the ring); the gate's resume
      // re-enters here.
      ParseConn(loop, conn);
      if (conn->rx.free_space() == 0) return;
      continue;
    }
    const ssize_t n = ::readv(conn->fd, iov, segments);
    CountSyscall(loop.counters);
    if (n > 0) {
      conn->rx.CommitWrite(static_cast<size_t>(n));
      ParseConn(loop, conn);
      continue;
    }
    if (n == 0) {
      // Peer EOF: answer what is owed, flush, then close.
      conn->closing = true;
      CloseIfDone(loop, conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(loop, conn);  // Hard error: responses in flight are dropped.
    return;
  }
}

void NetServer::ParseConn(Loop& loop, Connection* conn) {
  if (conn->fd < 0 || conn->closing) return;
  const Nanos now = SystemClock::Global()->Now();
  for (;;) {
    // Backpressure gates, checked before consuming another frame. Each
    // pause disarms EPOLLIN: the kernel receive buffer fills, the TCP
    // window closes, and the overload queues at the client.
    if (conn->owed >= options_.max_inflight_per_conn) {
      if (!conn->read_paused_inflight) {
        conn->read_paused_inflight = true;
        loop.counters.pauses_inflight.fetch_add(1, std::memory_order_relaxed);
      }
      PauseRead(loop, conn);
      return;
    }
    if (conn->tx.free_space() <
        (conn->owed + 1) * kResponseFrameBytes) {
      if (!conn->read_paused_tx) {
        conn->read_paused_tx = true;
        loop.counters.pauses_tx.fetch_add(1, std::memory_order_relaxed);
      }
      PauseRead(loop, conn);
      return;
    }
    uint8_t header[kLengthPrefixBytes];
    if (!conn->rx.Peek(0, header, sizeof(header))) return;
    const uint32_t body_len = wire::GetU32(header);
    if (body_len != kRequestBodyBytesV1 && body_len != kRequestBodyBytes) {
      // Framing is lost; nothing downstream is trustworthy.
      loop.counters.bad_frames.fetch_add(1, std::memory_order_relaxed);
      CloseConn(loop, conn);
      return;
    }
    uint8_t body[kRequestBodyBytes];
    if (!conn->rx.Peek(kLengthPrefixBytes, body, body_len)) return;
    const size_t frame_bytes = kLengthPrefixBytes + body_len;

    // Decoded before the frame is consumed: an admin op that cannot start
    // yet (one already streaming) must stay buffered.
    RequestFrame frame;
    const bool valid = DecodeRequestBody(body, body_len, &frame);
    if (valid && IsAdminOp(frame.op)) {
      if (conn->admin_active) return;  // Resumes when the pump finishes.
      conn->rx.Consume(frame_bytes);
      loop.counters.admin_requests.fetch_add(1, std::memory_order_relaxed);
      StartAdmin(loop, conn, frame);
      continue;
    }
    conn->rx.Consume(frame_bytes);

    if (!valid) {
      // Well-framed but invalid (unknown op / flags): answer and move on.
      loop.counters.bad_frames.fetch_add(1, std::memory_order_relaxed);
      uint8_t encoded[kResponseFrameBytes];
      EncodeResponse({frame.id, ResponseStatus::kBadRequest, 0, 0}, encoded);
      conn->tx.Write(encoded, sizeof(encoded));
      conn->dirty = true;
      loop.counters.responses.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    loop.counters.requests.fetch_add(1, std::memory_order_relaxed);
    ++conn->owed;

    bool traced = false;
    if constexpr (stats::kTraceCompiledIn) {
      if (recorder_->ShouldSample(frame.id)) {
        traced = true;
        stats::TraceEvent event;
        event.ts = now;
        event.id = frame.id;
        event.arg0 = static_cast<int64_t>(frame.deadline_ns);
        event.loc = loop.id;
        event.type = static_cast<uint16_t>(frame.op) + 1;
        event.kind = static_cast<uint8_t>(stats::TraceEventKind::kNetParse);
        recorder_->Record(event);
      }
    }

    TenantId tenant = kDefaultTenant;
    if (options_.tenants != nullptr && frame.tenant != 0) {
      // Interning is O(1) after the tenant's first request (lock-free
      // probe); the first request takes the registry mutex once.
      tenant = options_.tenants->Intern(frame.tenant);
    }
    if (tenant_stats_ != nullptr) {
      tenant_stats_->At(tenant).requests.fetch_add(1,
                                                   std::memory_order_relaxed);
    }

    Pending* pending = loop.pending_pool.Acquire();
    pending->loop = &loop;
    pending->token = conn->Token();
    pending->request_id = frame.id;
    pending->tenant = tenant;
    inflight_dones_.fetch_add(1, std::memory_order_relaxed);
    graph::Cluster::BatchRequest request;
    request.query = ToGraphQuery(frame);
    request.tenant = tenant;
    // Saturating: a hostile relative deadline cannot overflow the clock.
    const auto headroom =
        static_cast<uint64_t>(std::numeric_limits<Nanos>::max() - now);
    request.deadline =
        frame.deadline_ns == 0
            ? 0
            : now + static_cast<Nanos>(std::min(frame.deadline_ns, headroom));
    request.id = frame.id;
    request.traced = traced;
    // 8-byte capture: stays in std::function's inline buffer.
    request.done = [pending](const server::WorkItem& w, Outcome outcome,
                             const GraphQueryResult& result) {
      pending->loop->server->OnQueryDone(pending, w, outcome, result);
    };
    loop.batch.push_back(std::move(request));
    loop.batch_tokens.push_back(conn->Token());
    if (loop.batch.size() >= options_.max_batch) SubmitParsed(loop);
  }
}

void NetServer::SubmitParsed(Loop& loop) {
  if (!loop.batch.empty()) {
    loop.counters.submit_batches.fetch_add(1, std::memory_order_relaxed);
    // Synchronous completions (rejections/sheds) fire on this thread
    // while SubmitBatch iterates the batch; delivering them immediately
    // could resume a paused read, whose re-parse appends to the batch
    // mid-iteration. Park them in deferred_dones until the call returns.
    ++loop.submit_depth;
    loop.in_submit = true;
    // The loop id rides along as the broker run-queue affinity hint:
    // each event loop keeps feeding the same run-queue shard, so the
    // submit side of the execution core stays shared-nothing per loop.
    const server::Stage::BatchResult result =
        cluster_->SubmitBatch(loop.batch, loop.id);
    loop.in_submit = false;
    if (result.shedded > 0) {
      // A broker's bounded queue stopped admitting: pause every
      // connection that fed this batch until the queue drains
      // (MaybeResumePaused).
      for (const uint64_t token : loop.batch_tokens) {
        Connection* conn = Resolve(loop, token);
        if (conn == nullptr || conn->read_paused_overload) continue;
        conn->read_paused_overload = true;
        loop.counters.pauses_overload.fetch_add(1, std::memory_order_relaxed);
        PauseRead(loop, conn);
      }
      loop.overload_paused = true;
    }
    loop.batch.clear();
    loop.batch_tokens.clear();
    --loop.submit_depth;
  }
  // Answer the parked synchronous rejections — only at the outermost
  // call: delivery can resume reads whose re-parse fills the batch and
  // re-enters SubmitParsed, and letting every nesting level deliver
  // would recurse without bound. Nested calls just append here; the
  // index loop picks their entries up (the vector may grow and
  // reallocate mid-iteration, hence no iterators and a by-value copy).
  if (loop.submit_depth == 0) {
    for (size_t i = 0; i < loop.deferred_dones.size(); ++i) {
      const Done done = loop.deferred_dones[i];
      DeliverDone(loop, done);
    }
    loop.deferred_dones.clear();
  }
}

bool NetServer::BrokersCongested() const {
  const size_t limit = cluster_->options().broker_queue_capacity / 2;
  for (size_t b = 0; b < cluster_->num_brokers(); ++b) {
    if (cluster_->broker(b)->QueueLength() >= limit) return true;
  }
  return false;
}

void NetServer::MaybeResumePaused(Loop& loop) {
  if (!loop.overload_paused || BrokersCongested()) return;
  loop.overload_paused = false;
  for (auto& slot : loop.slots) {
    Connection* conn = slot.get();
    if (conn == nullptr || conn->fd < 0 || !conn->read_paused_overload) {
      continue;
    }
    conn->read_paused_overload = false;
    ResumeRead(loop, conn);
  }
}

void NetServer::OnQueryDone(Pending* pending, const server::WorkItem& item,
                            Outcome outcome, const GraphQueryResult& result) {
  // Keeps Stop()'s loop teardown at bay until every return path below
  // has finished touching `loop`.
  struct InflightGuard {
    std::atomic<uint64_t>& count;
    ~InflightGuard() { count.fetch_sub(1, std::memory_order_release); }
  } inflight_guard{inflight_dones_};
  Loop& loop = *pending->loop;
  Done done;
  done.token = pending->token;
  done.request_id = pending->request_id;
  done.status = static_cast<uint8_t>(ToStatus(outcome, result.ok));
  // Response flags carry the RejectReason wire code: the broker stage's
  // own reason when it terminated the request, else the first failed
  // subquery's shard-side reason.
  if (item.reject_reason != RejectReason::kNone) {
    done.reason = static_cast<uint8_t>(item.reject_reason);
  } else if (outcome == Outcome::kCompleted && !result.ok) {
    done.reason = result.fail_reason;
  }
  done.value = result.value;
  if (tenant_stats_ != nullptr) {
    TenantNetCell& cell = tenant_stats_->At(pending->tenant);
    switch (static_cast<ResponseStatus>(done.status)) {
      case ResponseStatus::kOk:
        cell.ok.fetch_add(1, std::memory_order_relaxed);
        break;
      case ResponseStatus::kRejected:
        cell.rejected.fetch_add(1, std::memory_order_relaxed);
        break;
      case ResponseStatus::kShedded:
        cell.shedded.fetch_add(1, std::memory_order_relaxed);
        break;
      case ResponseStatus::kExpired:
        cell.expired.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        cell.failed.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  loop.pending_pool.Release(pending);
  if (std::this_thread::get_id() ==
      loop.tid.load(std::memory_order_relaxed)) {
    // Synchronous completion on the owning event loop itself (a
    // rejection inside Submit/SubmitBatch — only the owning loop ever
    // submits its own connections' queries). Never goes near the ring —
    // the loop must not be able to block on the queue only it drains.
    // Delivery is deferred while a submit call is iterating the batch
    // (see SubmitParsed).
    if (loop.in_submit) {
      loop.deferred_dones.push_back(done);
    } else {
      DeliverDone(loop, done);
    }
    return;
  }
  // Worker thread: a full ring means the owning loop has fallen behind;
  // spin until a drain frees a slot (the completion must be delivered
  // exactly once). The loop drains every iteration and can never block
  // on the ring itself, so the wait is bounded by loop progress — except
  // after Stop(), when the loops are gone and every connection is dead:
  // then the completion has no destination and is dropped instead of
  // hanging the cluster's shutdown.
  while (!loop.done_ring.TryPush(std::move(done))) {
    if (stop_requested_.load(std::memory_order_acquire)) {
      CountResponse(loop, done);  // Dropped at close.
      return;
    }
    CpuRelax();
  }
  // Wake the loop only if it is (about to be) blocked: an awake loop
  // drains the ring every iteration, so the eventfd write would be a
  // wasted syscall. The seq_cst fence pairs with the loop's pre-wait
  // fence (store done_waiting=true; fence; check ring emptiness): either
  // this push is visible to that check, or done_waiting=true is visible
  // here — a push can never slip past both.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (loop.done_waiting.load(std::memory_order_relaxed) &&
      !loop.done_signal.exchange(true, std::memory_order_acq_rel)) {
    WriteEventFd(loop.event_fd);
    loop.counters.eventfd_wakeups.fetch_add(1, std::memory_order_relaxed);
    loop.counters.syscalls.fetch_add(1, std::memory_order_relaxed);
  }
}

ResponseStatus NetServer::CountResponse(Loop& loop, const Done& done) {
  loop.counters.responses.fetch_add(1, std::memory_order_relaxed);
  const auto status = static_cast<ResponseStatus>(done.status);
  switch (status) {
    case ResponseStatus::kRejected:
      loop.counters.rejections.fetch_add(1, std::memory_order_relaxed);
      loop.counters.rejections_policy.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kShedded:
      loop.counters.rejections.fetch_add(1, std::memory_order_relaxed);
      loop.counters.rejections_queue.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kExpired:
      loop.counters.expirations.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kFailed:
      loop.counters.failures_shard.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  return status;
}

void NetServer::DeliverDone(Loop& loop, const Done& done) {
  const auto status = CountResponse(loop, done);
  Connection* conn = Resolve(loop, done.token);
  if (conn == nullptr) return;  // Connection died while in flight.
  --conn->owed;
  if constexpr (stats::kTraceCompiledIn) {
    if (recorder_->ShouldSample(done.request_id)) {
      stats::TraceEvent event;
      event.ts = SystemClock::Global()->Now();
      event.id = done.request_id;
      event.arg0 = static_cast<int64_t>(done.status);
      event.loc = loop.id;
      event.kind = static_cast<uint8_t>(stats::TraceEventKind::kResponseWrite);
      event.reason = done.reason;
      recorder_->Record(event);
    }
  }
  uint8_t encoded[kResponseFrameBytes];
  EncodeResponse({done.request_id, status, done.reason, done.value}, encoded);
  // Space is guaranteed: parsing never runs the write ring below
  // owed * kResponseFrameBytes of free space.
  conn->tx.Write(encoded, sizeof(encoded));
  conn->dirty = true;
  if (conn->read_paused_inflight &&
      conn->owed < options_.max_inflight_per_conn / 2) {
    conn->read_paused_inflight = false;
    ResumeRead(loop, conn);
  }
}

void NetServer::BuildAdminPayload(uint8_t op, std::string* out) {
  out->clear();
  switch (op) {
    case kOpStatsJson:
      if (options_.metrics != nullptr) {
        *out = options_.metrics->ToJson();
      } else {
        *out = "{\"counters\":{},\"gauges\":{},\"histograms\":{}}";
      }
      return;
    case kOpStatsPrometheus:
      if (options_.metrics != nullptr) *out = options_.metrics->ToPrometheus();
      return;
    case kOpTraceDump:
      if constexpr (stats::kTraceCompiledIn) recorder_->Dump(out);
      return;
    default:
      return;
  }
}

void NetServer::StartAdmin(Loop& loop, Connection* conn,
                           const RequestFrame& frame) {
  BuildAdminPayload(frame.op, &conn->admin_payload);
  conn->admin_offset = 0;
  conn->admin_id = frame.id;
  conn->admin_active = true;
  PumpAdmin(loop, conn);
}

bool NetServer::PumpAdmin(Loop& loop, Connection* conn) {
  if (!conn->admin_active || conn->fd < 0) return true;
  const size_t total = conn->admin_payload.size();
  for (;;) {
    const size_t remaining = total - conn->admin_offset;
    const size_t chunk = remaining < kAdminMaxChunk ? remaining
                                                    : kAdminMaxChunk;
    // The write ring keeps owed * kResponseFrameBytes reserved for
    // in-flight graph responses (DeliverDone writes unconditionally); an
    // admin chunk only goes out when it fits NEXT TO that reservation.
    if (conn->tx.free_space() <
        (conn->owed + 1) * kResponseFrameBytes + chunk) {
      return false;  // Re-pumped next loop iteration, after a flush.
    }
    const bool more = conn->admin_offset + chunk < total;
    uint8_t head[kResponseFrameBytes];
    wire::PutU32(head, static_cast<uint32_t>(kResponseBodyBytes + chunk));
    uint8_t* p = head + kLengthPrefixBytes;
    wire::PutU64(p, conn->admin_id);
    p[8] = static_cast<uint8_t>(ResponseStatus::kOk);
    p[9] = more ? kAdminFlagMore : 0;
    wire::PutU64(p + 10, static_cast<uint64_t>(total));
    conn->tx.Write(head, sizeof(head));
    if (chunk > 0) {
      conn->tx.Write(reinterpret_cast<const uint8_t*>(
                         conn->admin_payload.data() + conn->admin_offset),
                     chunk);
    }
    conn->admin_offset += chunk;
    conn->dirty = true;
    if (!more) {
      conn->admin_active = false;
      conn->admin_payload.clear();
      conn->admin_payload.shrink_to_fit();
      loop.counters.responses.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
}

void NetServer::PumpAdminAll(Loop& loop) {
  for (auto& slot : loop.slots) {
    Connection* conn = slot.get();
    if (conn == nullptr || conn->fd < 0 || !conn->admin_active) continue;
    if (PumpAdmin(loop, conn)) {
      // Frames parked behind the admin request (including another admin
      // op) are parseable again.
      ParseConn(loop, conn);
    }
  }
}

void NetServer::DrainCompletions(Loop& loop) {
  // done_signal resets in the pre-wait block (just before the loop can
  // actually block), not here: resetting mid-iteration would let workers
  // pay an eventfd write for completions this iteration already covers.
  Done done;
  while (loop.done_ring.TryPop(done)) DeliverDone(loop, done);
}

void NetServer::FlushConn(Loop& loop, Connection* conn) {
  if (conn->fd < 0) return;
  conn->dirty = false;
  while (!conn->tx.empty()) {
    struct iovec iov[2];
    const int segments = conn->tx.ReadableSegments(iov);
    // MSG_NOSIGNAL: a client that reset the connection with responses
    // still owed must cost EPIPE and a close, not a SIGPIPE that kills
    // the server.
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(segments);
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    CountSyscall(loop.counters);
    if (n > 0) {
      conn->tx.Consume(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(loop, conn);
    return;
  }
  if (conn->tx.empty()) {
    // Resume a read the write-ring gate paused, and close a half-closed
    // connection that owes nothing.
    if (conn->read_paused_tx) {
      conn->read_paused_tx = false;
      ResumeRead(loop, conn);
    }
    CloseIfDone(loop, conn);
    if (conn->fd < 0) return;
  }
  UpdateInterest(loop, conn);  // Arm EPOLLOUT iff bytes remain.
}

void NetServer::CloseIfDone(Loop& loop, Connection* conn) {
  if (conn->closing && conn->owed == 0 && conn->tx.empty()) {
    CloseConn(loop, conn);
  }
}

void NetServer::RunLoop(Loop& loop) {
  loop.tid.store(std::this_thread::get_id(), std::memory_order_relaxed);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    // Overload pauses are re-checked on a short timer (the broker queue
    // drains without producing an event we could wait on), and a
    // backed-off accept at its retry time; otherwise a long timeout
    // keeps an idle server quiet.
    Nanos timeout = loop.overload_paused ? kMillisecond : 100 * kMillisecond;
    if (loop.accept_retry_at != 0) {
      const Nanos now = SystemClock::Global()->Now();
      if (now >= loop.accept_retry_at) {
        loop.accept_retry_at = 0;  // WaitAndDispatch re-arms the listener.
      } else {
        timeout = std::min(timeout, loop.accept_retry_at - now);
      }
    }
    // Pre-wait handshake with OnQueryDone's worker side: declare we are
    // about to block, then re-check the done ring. Seq_cst fences make
    // this a store-buffering (Dekker) pair — a worker push either shows
    // up in EmptyApprox here, or the worker sees done_waiting and pays
    // the eventfd wakeup.
    loop.done_signal.store(false, std::memory_order_relaxed);
    loop.done_waiting.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!loop.done_ring.EmptyApprox()) timeout = 0;
    WaitAndDispatch(loop, timeout);
    // One admission episode for everything parsed this wakeup, then
    // answer whatever completed — the batch's synchronous rejections are
    // delivered inside SubmitParsed and flushed in this same iteration.
    // The drain/flush/resume phases can themselves parse new requests
    // (ResumeRead re-parses buffered bytes), so repeat until nothing is
    // left rather than let a resumed request sit in the batch across a
    // wait (up to the idle timeout away). Each pass consumes real
    // buffered bytes or ring entries, so the loop terminates.
    do {
      SubmitParsed(loop);
      DrainCompletions(loop);
      PumpAdminAll(loop);
      for (auto& slot : loop.slots) {
        Connection* conn = slot.get();
        if (conn != nullptr && conn->fd >= 0 && conn->dirty) {
          FlushConn(loop, conn);
        }
      }
      MaybeResumePaused(loop);
    } while (!loop.batch.empty());
  }
}

void NetServer::WaitAndDispatch(Loop& loop, Nanos timeout) {
  if (!loop.accept_armed && loop.accept_retry_at == 0) {
    WatchListener(loop, EPOLLIN);
  }
  epoll_event events[kMaxEpollEvents];
  const int n = ::epoll_wait(
      loop.epoll_fd, events, kMaxEpollEvents,
      static_cast<int>((timeout + kMillisecond - 1) / kMillisecond));
  CountSyscall(loop.counters);
  loop.done_waiting.store(false, std::memory_order_relaxed);
  loop.counters.wakeups.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    const uint64_t token = events[i].data.u64;
    if (token == kListenToken) {
      AcceptReady(loop);
      continue;
    }
    if (token == kEventToken) {
      uint64_t drained;
      [[maybe_unused]] ssize_t r =
          ::read(loop.event_fd, &drained, sizeof(drained));
      CountSyscall(loop.counters);
      continue;
    }
    Connection* conn = Resolve(loop, token);
    if (conn == nullptr) continue;  // Stale event for a closed conn.
    if (events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
      ReadConn(loop, conn);
    }
    if (conn->fd >= 0 && (events[i].events & EPOLLOUT)) {
      FlushConn(loop, conn);
    }
  }
}

}  // namespace bouncer::net
