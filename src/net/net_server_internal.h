// NetServer's private per-loop data structures, shared between
// net_server.cc (the event-loop skeleton, the accept path, parsing,
// admission batching, completion delivery, admin streaming and the
// epoll transport) and the io_uring transport (net_server_uring.cc).
// Not part of the public API — include only from those two translation
// units.

#ifndef BOUNCER_NET_NET_SERVER_INTERNAL_H_
#define BOUNCER_NET_NET_SERVER_INTERNAL_H_

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/net/net_server.h"
#include "src/net/uring_loop.h"

namespace bouncer::net {

/// epoll user-data tokens for the two non-connection fds.
inline constexpr uint64_t kListenToken = ~uint64_t{0};
inline constexpr uint64_t kEventToken = ~uint64_t{0} - 1;

/// Events drained per epoll_wait call; a wakeup with more ready fds just
/// takes another loop iteration.
inline constexpr int kMaxEpollEvents = 128;

/// How long a loop stops accepting after accept fails for want of fds or
/// memory. The pending connection stays in the listen backlog and is
/// accepted by the first retry that finds a free fd.
inline constexpr Nanos kAcceptBackoff = 10 * kMillisecond;

/// Connection-token field widths: generation << 32 | loop << 24 | slot.
inline constexpr uint32_t kSlotBits = 24;
inline constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
inline constexpr uint32_t kLoopMask = 0xff;
inline constexpr size_t kMaxLoops = 255;

/// Data-path syscall accounting (Stats::syscalls). Templated so it never
/// names the private LoopCounters type.
template <typename Counters>
void CountSyscall(Counters& counters, uint64_t n = 1) {
  counters.syscalls.fetch_add(n, std::memory_order_relaxed);
}

inline void WriteEventFd(int fd) {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof(one));
}

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

  // io_uring backend state. The kernel holds a file reference for every
  // outstanding SQE, so a closed slot with uring_inflight > 0 becomes a
  // zombie: unusable until its last CQE lands (the cancels prepared by
  // UringPrepareClose make that prompt).
  bool recv_armed = false;     ///< Multishot recv outstanding.
  bool send_inflight = false;  ///< One SENDMSG outstanding at a time.
  bool cancel_pending = false; ///< Recv async-cancel submitted (pause).
  bool zombie = false;         ///< Closed, awaiting final CQEs.
  uint32_t uring_inflight = 0;  ///< Outstanding SQEs for this slot.
  /// The in-flight SENDMSG's header and scatter list: must stay stable
  /// until its CQE, so they live with the connection, not on the stack.
  struct msghdr send_msg = {};
  struct iovec send_iov[2] = {};
#if BOUNCER_HAS_IOURING
  /// Recv-buffer bytes waiting for rx-ring space (FIFO), plus the index
  /// of the first unconsumed entry (drained from the front without
  /// shifting; compacted when it empties).
  std::vector<StagedBuf> staged;
  size_t staged_head = 0;
#endif

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
  int epoll_fd = -1;   ///< epoll backend only.
  int event_fd = -1;
  /// The listener is being polled: registered for EPOLLIN, or a
  /// multishot accept is outstanding.
  bool accept_armed = false;
  /// Non-zero while accept is backed off (AcceptFailed): the time the
  /// transport may poll its listener again.
  Nanos accept_retry_at = 0;

  /// io_uring backend only: the loop's ring + provided-buffer ring,
  /// created by UringSetupLoops and destroyed by UringDestroyLoop.
  UringState* uring = nullptr;

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

}  // namespace bouncer::net

#endif  // BOUNCER_NET_NET_SERVER_INTERNAL_H_
