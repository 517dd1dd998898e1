// io_uring transport for NetServer. The event-loop skeleton and
// everything transport-agnostic (accepting, parsing, admission
// batching, completion delivery, admin streaming) stay in
// net_server.cc; this file owns the ring lifecycle and the CQE-driven
// read/write/accept paths. One UringState per loop, used only by that
// loop's thread.
//
// Submission model: SQEs accumulate across a whole loop iteration
// (accept re-arms, recv arms/cancels, SENDMSG flushes) and are flushed by
// a single io_uring_enter in UringWaitAndDispatch — the wait and the
// submit are the same syscall, which is where the per-request syscall
// win over epoll_wait + readv + sendmsg comes from.
//
// user_data encoding: a 4-bit op tag in bits 63..60 and the connection
// token in the low 60 bits. The token's generation field loses its top
// 4 bits to the tag, so liveness checks compare generations masked to
// 28 bits — ample against the A(close)B(reuse) races it guards.

#include "src/net/net_server_internal.h"

#if BOUNCER_HAS_IOURING

#include <poll.h>

#include <algorithm>
#include <cstdio>

namespace bouncer::net {

namespace {

constexpr uint64_t kTagShift = 60;
constexpr uint64_t kTokenMask = (uint64_t{1} << kTagShift) - 1;
constexpr uint64_t kTagAccept = 1;
constexpr uint64_t kTagRecv = 2;
constexpr uint64_t kTagSend = 3;
constexpr uint64_t kTagEvent = 4;
constexpr uint64_t kTagCancel = 5;
/// Generation bits that survive the tag carve-out (token bits 32..59).
constexpr uint32_t kGenMask = (1u << 28) - 1;

/// Submission-queue entries per loop: bounds the SQEs batched into one
/// io_uring_enter (overflow just flushes early).
constexpr unsigned kSqEntries = 1024;
/// Provided recv buffers per loop (a power of two) and the size of each.
/// Multishot recv completions land in these; the loop copies them into
/// the connection rx rings and recycles them.
constexpr uint32_t kRecvBufs = 512;
constexpr uint32_t kRecvBufBytes = 4096;

uint64_t Pack(uint64_t tag, uint64_t token) {
  return (tag << kTagShift) | (token & kTokenMask);
}

}  // namespace

bool NetServer::UringSetupLoops() {
  // CQ sized for bursts: every provided buffer can be an undrained recv
  // CQE, plus a send and a cancel per connection in the worst iteration.
  constexpr unsigned kCqEntries = std::max<unsigned>(4096, kSqEntries * 4);
  for (auto& loop_ptr : loops_) {
    Loop& loop = *loop_ptr;
    auto state = std::make_unique<UringState>();
    if (Status s = state->ring.Init(kSqEntries, kCqEntries); !s.ok()) {
      backend_fallback_reason_ = s.message();
      for (auto& lp : loops_) UringDestroyLoop(*lp);
      return false;
    }
    if (Status s = state->bufs.Init(state->ring, /*bgid=*/0, kRecvBufs,
                                    kRecvBufBytes);
        !s.ok()) {
      backend_fallback_reason_ = s.message();
      for (auto& lp : loops_) UringDestroyLoop(*lp);
      return false;
    }
    loop.uring = state.release();
  }
  return true;
}

void NetServer::UringDestroyLoop(Loop& loop) {
  if (loop.uring == nullptr) return;
  loop.uring->bufs.Destroy(loop.uring->ring);
  loop.uring->ring.Close();
  delete loop.uring;
  loop.uring = nullptr;
}

void NetServer::UringDecInflight(Loop& loop, Connection* conn) {
  if (conn->uring_inflight > 0) --conn->uring_inflight;
  if (conn->zombie && conn->uring_inflight == 0 && conn->fd < 0) {
    conn->zombie = false;
    loop.free_slots.push_back(conn->index);
  }
}

void NetServer::UringArmRecv(Loop& loop, Connection* conn) {
  if (conn->fd < 0 || conn->recv_armed || conn->cancel_pending) return;
  UringState& st = *loop.uring;
  io_uring_sqe* sqe = st.ring.GetSqe();
  if (sqe == nullptr) return;  // Ring dead; Stop() is the only way out.
  PrepRecvMultishot(sqe, conn->fd, /*buf_group=*/0,
                    Pack(kTagRecv, conn->Token()));
  conn->recv_armed = true;
  ++conn->uring_inflight;
}

void NetServer::UringUpdateInterest(Loop& loop, Connection* conn) {
  if (conn->fd < 0) return;
  const bool want = conn->want_read && !conn->closing;
  if (want) {
    UringArmRecv(loop, conn);  // No-op if armed or a cancel is in flight.
    return;
  }
  if (conn->recv_armed && !conn->cancel_pending) {
    // Pause: async-cancel the multishot recv. Bytes already completed
    // surface as CQEs and wait in `staged` (UringOnRecv never delivers
    // past a pause), so nothing is lost — exactly the epoll semantics of
    // disarming EPOLLIN with data left in the socket buffer.
    UringState& st = *loop.uring;
    io_uring_sqe* sqe = st.ring.GetSqe();
    if (sqe == nullptr) return;
    PrepCancel(sqe, Pack(kTagRecv, conn->Token()),
               Pack(kTagCancel, conn->Token()));
    conn->cancel_pending = true;
    ++conn->uring_inflight;
  }
}

void NetServer::UringPumpConn(Loop& loop, Connection* conn) {
  if (conn->fd < 0) return;
  UringState& st = *loop.uring;
  // Drain staged recv bytes into rx as the parse gates allow, oldest
  // first (FIFO keeps the byte stream ordered).
  while (conn->staged_head < conn->staged.size()) {
    if (!conn->want_read) break;  // Paused: bytes stay staged.
    StagedBuf& sb = conn->staged[conn->staged_head];
    const size_t room = conn->rx.free_space();
    if (room == 0) {
      ParseConn(loop, conn);
      if (conn->fd < 0) return;
      if (conn->rx.free_space() == 0) break;  // Gate holds rx full.
      continue;
    }
    const uint32_t n =
        static_cast<uint32_t>(std::min<size_t>(room, sb.len));
    conn->rx.Write(st.bufs.Addr(sb.bid) + sb.offset, n);
    sb.offset += n;
    sb.len -= n;
    if (sb.len == 0) {
      st.bufs.Recycle(sb.bid);
      ++conn->staged_head;
    }
    ParseConn(loop, conn);
    if (conn->fd < 0) return;  // Bad frame closed it mid-drain.
  }
  if (conn->staged_head >= conn->staged.size() && !conn->staged.empty()) {
    conn->staged.clear();
    conn->staged_head = 0;
  }
  UringUpdateInterest(loop, conn);
}

void NetServer::UringFlushConn(Loop& loop, Connection* conn) {
  conn->dirty = false;
  if (conn->fd < 0) return;
  if (conn->send_inflight) return;  // The CQE chains the next flush.
  if (conn->tx.empty()) {
    TxDrained(loop, conn);
    return;
  }
  UringState& st = *loop.uring;
  io_uring_sqe* sqe = st.ring.GetSqe();
  if (sqe == nullptr) return;
  // The iovecs must outlive the SQE, so they live on the connection; tx
  // is append-only until the CQE consumes, so the segments stay valid.
  const int segments = conn->tx.ReadableSegments(conn->send_iov);
  conn->send_msg = {};
  conn->send_msg.msg_iov = conn->send_iov;
  conn->send_msg.msg_iovlen = static_cast<size_t>(segments);
  PrepSendmsg(sqe, conn->fd, &conn->send_msg, Pack(kTagSend, conn->Token()));
  conn->send_inflight = true;
  ++conn->uring_inflight;
}

void NetServer::UringPrepareClose(Loop& loop, Connection* conn) {
  UringState& st = *loop.uring;
  // Cancel by user_data, never by fd: the fd number can be reused by the
  // very next accept while these SQEs are still in flight.
  if (conn->recv_armed && !conn->cancel_pending) {
    if (io_uring_sqe* sqe = st.ring.GetSqe(); sqe != nullptr) {
      PrepCancel(sqe, Pack(kTagRecv, conn->Token()),
                 Pack(kTagCancel, conn->Token()));
      ++conn->uring_inflight;
    }
  }
  if (conn->send_inflight) {
    if (io_uring_sqe* sqe = st.ring.GetSqe(); sqe != nullptr) {
      PrepCancel(sqe, Pack(kTagSend, conn->Token()),
                 Pack(kTagCancel, conn->Token()));
      ++conn->uring_inflight;
    }
  }
  conn->recv_armed = false;
  conn->send_inflight = false;
  conn->cancel_pending = false;
  for (size_t i = conn->staged_head; i < conn->staged.size(); ++i) {
    st.bufs.Recycle(conn->staged[i].bid);
  }
  conn->staged.clear();
  conn->staged_head = 0;
}

void NetServer::UringOnAccept(Loop& loop, int res, uint32_t flags) {
  // A failure ends the multishot accept; UringWaitAndDispatch re-arms it
  // unless AcceptFailed backed off.
  if (!(flags & IORING_CQE_F_MORE)) loop.accept_armed = false;
  if (res < 0) {
    AcceptFailed(loop, -res);
    return;
  }
  Accepted(loop, res);
}

void NetServer::UringOnRecv(Loop& loop, uint64_t data, int res,
                            uint32_t flags) {
  UringState& st = *loop.uring;
  const uint32_t index = static_cast<uint32_t>(data) & kSlotMask;
  Connection* slot =
      index < loop.slots.size() ? loop.slots[index].get() : nullptr;
  const bool has_buf = (flags & IORING_CQE_F_BUFFER) != 0;
  const auto bid = static_cast<uint16_t>(flags >> IORING_CQE_BUFFER_SHIFT);
  if (has_buf) st.bufs.Take();

  const auto gen28 = static_cast<uint32_t>(data >> 32) & kGenMask;
  const bool live =
      slot != nullptr && slot->fd >= 0 && (slot->gen & kGenMask) == gen28;

  if (!(flags & IORING_CQE_F_MORE)) {
    // Terminal CQE: the multishot submission is over for whichever
    // incarnation armed it.
    if (slot != nullptr) UringDecInflight(loop, slot);
    if (live) slot->recv_armed = false;
  }

  if (res > 0 && has_buf) {
    if (live && !slot->closing) {
      // Stage then pump: one code path whether rx has room or not, and
      // FIFO order is free.
      slot->staged.push_back({bid, 0, static_cast<uint32_t>(res)});
      UringPumpConn(loop, slot);
      return;  // PumpConn already reconciled recv interest.
    }
    st.bufs.Recycle(bid);  // Stale or closing: drop the bytes.
  } else if (has_buf) {
    st.bufs.Recycle(bid);  // Defensive: error CQE with a buffer attached.
  }
  if (!live) return;

  if (res == 0) {
    PeerClosed(loop, slot);
    return;
  }
  if (res < 0) {
    if (res == -ENOBUFS) {
      // Provided-buffer pool dry; retry once buffers recycle.
      st.rearm.push_back(slot->index);
      return;
    }
    if (res == -ECANCELED) {
      // Pause or close cancel landed; interest reconciles on the cancel
      // CQE (or resume).
      return;
    }
    CloseConn(loop, slot);  // Hard error: responses in flight are dropped.
  }
}

void NetServer::UringOnSend(Loop& loop, uint64_t data, int res) {
  const uint32_t index = static_cast<uint32_t>(data) & kSlotMask;
  Connection* slot =
      index < loop.slots.size() ? loop.slots[index].get() : nullptr;
  if (slot == nullptr) return;
  UringDecInflight(loop, slot);
  const auto gen28 = static_cast<uint32_t>(data >> 32) & kGenMask;
  if (slot->fd < 0 || (slot->gen & kGenMask) != gen28) return;
  slot->send_inflight = false;
  if (res < 0) {
    if (res == -EAGAIN || res == -EINTR) {
      UringFlushConn(loop, slot);  // Spurious; resubmit the same bytes.
      return;
    }
    if (res == -ECANCELED) return;
    CloseConn(loop, slot);
    return;
  }
  slot->tx.Consume(static_cast<size_t>(res));
  // A short write chains the remainder; a drained ring runs the tail.
  UringFlushConn(loop, slot);
}

void NetServer::UringRearmPending(Loop& loop) {
  UringState& st = *loop.uring;
  if (st.rearm.empty()) return;
  size_t kept = 0;
  for (const uint32_t index : st.rearm) {
    Connection* conn =
        index < loop.slots.size() ? loop.slots[index].get() : nullptr;
    if (conn == nullptr || conn->fd < 0) continue;
    if (!conn->want_read || conn->recv_armed || conn->cancel_pending) {
      continue;  // Resume (UringUpdateInterest) owns re-arming these.
    }
    if (st.bufs.free_bufs() == 0) {
      st.rearm[kept++] = index;  // Still dry; keep waiting.
      continue;
    }
    UringArmRecv(loop, conn);
  }
  st.rearm.resize(kept);
}

void NetServer::UringWaitAndDispatch(Loop& loop, Nanos timeout) {
  UringState& st = *loop.uring;
  UringRearmPending(loop);
  // Keep the persistent multishot submissions alive: either can
  // terminate on transient errors and just needs a fresh SQE — except an
  // accept that AcceptFailed backed off.
  if (!loop.accept_armed && loop.accept_retry_at == 0) {
    if (io_uring_sqe* sqe = st.ring.GetSqe(); sqe != nullptr) {
      PrepAcceptMultishot(sqe, loop.listen_fd, Pack(kTagAccept, 0));
      loop.accept_armed = true;
    }
  }
  if (!st.event_armed) {
    if (io_uring_sqe* sqe = st.ring.GetSqe(); sqe != nullptr) {
      PrepPollMultishot(sqe, loop.event_fd, POLLIN, Pack(kTagEvent, 0));
      st.event_armed = true;
    }
  }
  if (st.ring.CqePending()) timeout = 0;
  // The submit and the wait are one syscall — every SQE prepared this
  // iteration ships here.
  st.ring.SubmitAndWait(/*min_complete=*/1, timeout);
  CountSyscall(loop.counters, st.ring.TakeEnterCalls());
  WaitReturned(loop);
  st.ring.DrainCqes([&](const io_uring_cqe& cqe) {
    switch (cqe.user_data >> kTagShift) {
      case kTagAccept:
        UringOnAccept(loop, cqe.res, cqe.flags);
        break;
      case kTagRecv:
        UringOnRecv(loop, cqe.user_data, cqe.res, cqe.flags);
        break;
      case kTagSend:
        UringOnSend(loop, cqe.user_data, cqe.res);
        break;
      case kTagEvent: {
        if (!(cqe.flags & IORING_CQE_F_MORE)) st.event_armed = false;
        uint64_t drained;
        [[maybe_unused]] ssize_t r =
            ::read(loop.event_fd, &drained, sizeof(drained));
        CountSyscall(loop.counters);
        break;
      }
      case kTagCancel: {
        const uint32_t index =
            static_cast<uint32_t>(cqe.user_data) & kSlotMask;
        Connection* slot =
            index < loop.slots.size() ? loop.slots[index].get() : nullptr;
        if (slot == nullptr) break;
        UringDecInflight(loop, slot);
        const auto gen28 =
            static_cast<uint32_t>(cqe.user_data >> 32) & kGenMask;
        if (slot->fd >= 0 && (slot->gen & kGenMask) == gen28) {
          // A pause cancel finished. If reads resumed meanwhile, the
          // interest reconcile below re-arms the recv right away.
          slot->cancel_pending = false;
          slot->recv_armed = false;
          UringUpdateInterest(loop, slot);
        }
        break;
      }
      default:
        break;
    }
  });
}

}  // namespace bouncer::net

#else  // !BOUNCER_HAS_IOURING

namespace bouncer::net {

// Link stubs: the backend branches in net_server.cc reference these
// unconditionally, but Start() can never resolve backend_ to kUring when
// the build compiles io_uring out (QueryUringSupport reports the
// compile-time reason), so none of them can actually run.

bool NetServer::UringSetupLoops() {
  backend_fallback_reason_ = QueryUringSupport().reason;
  return false;
}
void NetServer::UringDestroyLoop(Loop&) {}
void NetServer::UringWaitAndDispatch(Loop&, Nanos) {}
void NetServer::UringOnAccept(Loop&, int, uint32_t) {}
void NetServer::UringOnRecv(Loop&, uint64_t, int, uint32_t) {}
void NetServer::UringOnSend(Loop&, uint64_t, int) {}
void NetServer::UringArmRecv(Loop&, Connection*) {}
void NetServer::UringUpdateInterest(Loop&, Connection*) {}
void NetServer::UringPumpConn(Loop&, Connection*) {}
void NetServer::UringFlushConn(Loop&, Connection*) {}
void NetServer::UringPrepareClose(Loop&, Connection*) {}
void NetServer::UringRearmPending(Loop&) {}
void NetServer::UringDecInflight(Loop&, Connection*) {}

}  // namespace bouncer::net

#endif  // BOUNCER_HAS_IOURING
