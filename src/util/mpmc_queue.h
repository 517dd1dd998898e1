#ifndef BOUNCER_UTIL_MPMC_QUEUE_H_
#define BOUNCER_UTIL_MPMC_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

namespace bouncer {

/// Destructive-interference granularity used to pad hot atomics.
inline constexpr size_t kCacheLineSize = 64;

/// Polite busy-wait hint: tells the core the caller is spinning so a
/// hyper-threaded sibling (or the power governor) can make progress.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Bounded lock-free multi-producer/multi-consumer FIFO ring buffer
/// (Vyukov's bounded MPMC queue). Each slot carries a sequence number on
/// its own cache line, so producers and consumers that hit different
/// slots never share a line; the enqueue and dequeue cursors are padded
/// apart as well.
///
/// Ordering contract: elements pushed by one producer are popped in that
/// producer's push order (FIFO per producer); pushes from different
/// producers interleave in the order their CAS on the enqueue cursor
/// lands. A successful TryPush() synchronizes-with the TryPop() that
/// returns the element (release store / acquire load on the slot's
/// sequence number).
///
/// The capacity is rounded up to the next power of two (minimum 2).
template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(size_t min_capacity)
      : capacity_(RoundUpPow2(min_capacity < 2 ? 2 : min_capacity)),
        mask_(capacity_ - 1),
        cells_(new Cell[capacity_]) {
    for (size_t i = 0; i < capacity_; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Attempts to enqueue `value`. Returns false when the ring is full;
  /// `value` is left untouched in that case (only moved from on success).
  bool TryPush(T&& value) {
    Cell* cell;
    size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const size_t seq = cell->sequence.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // The slot still holds an unconsumed element: full.
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Enqueues a prefix of `items[0..count)` with a single reservation on
  /// the enqueue cursor: one CAS claims a contiguous block of slots, so a
  /// batch costs one contended atomic episode instead of `count` of them,
  /// and the whole block is popped in batch order with nothing
  /// interleaved inside it. Returns the number of items moved from (a
  /// prefix; less than `count` when the ring lacks space, 0 when full).
  ///
  /// Wait-free like TryPush: the claimable prefix is measured by scanning
  /// cell sequences, so only slots whose freeing pop has fully completed
  /// are counted. A consumer preempted mid-TryPop shrinks the batch (its
  /// slot reads as occupied) instead of stalling the producer on the
  /// pop's final sequence store.
  size_t TryPushBatch(T* items, size_t count) {
    if (count == 0) return 0;
    size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      // Longest prefix of push-ready slots at the current cursor. A slot
      // is push-ready for position p iff its sequence equals p — which a
      // pop publishes only as its very last step, so every slot counted
      // here can be filled without waiting. Once verified, a slot stays
      // push-ready until some producer claims position p; a successful
      // CAS from `pos` below means that producer is us.
      size_t n = 0;
      while (n < count && n < capacity_ &&
             cells_[(pos + n) & mask_].sequence.load(
                 std::memory_order_acquire) == pos + n) {
        ++n;
      }
      if (n == 0) {
        const size_t seq =
            cells_[pos & mask_].sequence.load(std::memory_order_acquire);
        if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos) < 0) {
          return 0;  // The slot still holds an unconsumed element: full.
        }
        pos = enqueue_pos_.load(std::memory_order_relaxed);  // Stale cursor.
        continue;
      }
      if (enqueue_pos_.compare_exchange_weak(pos, pos + n,
                                             std::memory_order_relaxed)) {
        for (size_t i = 0; i < n; ++i) {
          Cell* cell = &cells_[(pos + i) & mask_];
          cell->value = std::move(items[i]);
          cell->sequence.store(pos + i + 1, std::memory_order_release);
        }
        return n;
      }
      // CAS failure reloaded `pos`; rescan at the new cursor.
    }
  }

  /// Attempts to dequeue into `out`. Returns false when the ring is empty.
  bool TryPop(T& out) {
    Cell* cell;
    size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const size_t seq = cell->sequence.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // No producer has filled this slot yet: empty.
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    cell->value = T();  // Drop captured resources before the slot idles.
    cell->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Approximate number of queued elements (racy snapshot of the cursors;
  /// may transiently over- or under-count under concurrency).
  size_t SizeApprox() const {
    const size_t enq = enqueue_pos_.load(std::memory_order_relaxed);
    const size_t deq = dequeue_pos_.load(std::memory_order_relaxed);
    return enq >= deq ? enq - deq : 0;
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }

  size_t capacity() const { return capacity_; }

 private:
  struct alignas(kCacheLineSize) Cell {
    std::atomic<size_t> sequence{0};
    T value{};
  };

  static size_t RoundUpPow2(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  const size_t capacity_;
  const size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(kCacheLineSize) std::atomic<size_t> enqueue_pos_{0};
  alignas(kCacheLineSize) std::atomic<size_t> dequeue_pos_{0};
};

/// Condvar-based parking lot for consumers of a lock-free queue: the
/// producer fast path is one fence plus one relaxed load when nobody
/// sleeps (no mutex, no syscall); the mutex is only touched to put a
/// thread to sleep or to wake one.
///
/// Memory-ordering contract (eventcount / Dekker pattern): a consumer
/// registers as a sleeper with a seq_cst RMW *before* re-checking the
/// queue; a producer publishes its element *before* a seq_cst fence and
/// the sleeper check. Either the producer observes the sleeper (and
/// notifies under the mutex, which the consumer holds from re-check to
/// wait, so the notify cannot fall between them), or the consumer's
/// re-check observes the element. A bounded wait backstops the analysis:
/// a missed wakeup costs at most `kParkBackstop` of latency, never a
/// hang.
class ParkingLot {
 public:
  static constexpr std::chrono::milliseconds kParkBackstop{10};

  /// Parks the calling thread unless `recheck()` returns true after the
  /// thread has registered as a sleeper. `recheck` runs under the lot's
  /// mutex and must be cheap and non-blocking. Spurious returns are
  /// allowed; callers loop around their own condition. Returns true when
  /// the thread slept (woken or timed out), false when `recheck` held.
  template <typename Pred>
  bool ParkUnless(Pred recheck) {
    std::unique_lock<std::mutex> lock(mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    const bool park = !recheck();
    if (park) cv_.wait_for(lock, kParkBackstop);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return park;
  }

  /// Wakes at most `n` parked threads: one per item a producer just
  /// published, so a small batch does not wake every sleeper. Safe to
  /// call from any thread; cheap when nobody is parked.
  void NotifyN(size_t n) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (n == 0 || sleepers_.load(std::memory_order_relaxed) == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    // `sleepers_` never undercounts the threads inside wait_for (a parker
    // registers under the mutex before it waits), so capping at it only
    // drops notifies that would find nobody to wake.
    const auto sleepers =
        static_cast<size_t>(sleepers_.load(std::memory_order_relaxed));
    for (size_t i = std::min(n, sleepers); i > 0; --i) cv_.notify_one();
  }

  /// Wakes one parked thread, if any.
  void NotifyOne() { NotifyN(1); }

  /// Wakes every parked thread.
  void NotifyAll() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_relaxed) == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<int> sleepers_{0};
};

}  // namespace bouncer

#endif  // BOUNCER_UTIL_MPMC_QUEUE_H_
