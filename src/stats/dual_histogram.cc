#include "src/stats/dual_histogram.h"

#include <thread>

namespace bouncer::stats {

DualHistogram::DualHistogram(const Options& options)
    : options_(options),
      entered_{0, 0},
      active_(0),
      next_swap_(0),
      swap_count_(0) {}

void DualHistogram::Record(Nanos value) {
  for (;;) {
    const int b = active_.load(std::memory_order_seq_cst);
    entered_[b].fetch_add(1, std::memory_order_seq_cst);
    // Dekker pair with DoSwap (store active_; load entered_): either this
    // re-check sees the flip and backs out, or the swap counts this
    // writer and waits for its bucket increment.
    if (active_.load(std::memory_order_seq_cst) == b) {
      buffers_[b].Record(value);
      return;
    }
    entered_[b].fetch_sub(1, std::memory_order_seq_cst);
  }
}

bool DualHistogram::MaybeSwap(Nanos now) {
  Nanos next = next_swap_.load(std::memory_order_acquire);
  if (next == 0) {
    // First observation of time: arm the interval timer instead of
    // swapping a buffer that has barely been populated.
    next_swap_.compare_exchange_strong(next, now + options_.swap_interval,
                                       std::memory_order_acq_rel);
    return false;
  }
  if (now < next) return false;
  if (!next_swap_.compare_exchange_strong(next, now + options_.swap_interval,
                                          std::memory_order_acq_rel)) {
    return false;  // Another thread won the swap.
  }
  DoSwap();
  return true;
}

void DualHistogram::ForceSwap() {
  // Single atomic RMW: a plain load+store pair here could interleave with
  // a concurrent MaybeSwap() CAS and lose its interval bump.
  next_swap_.fetch_add(options_.swap_interval, std::memory_order_acq_rel);
  DoSwap();
}

void DualHistogram::DoSwap() {
  std::lock_guard<std::mutex> lock(swap_mu_);
  const int old = active_.load(std::memory_order_acquire);
  const int fresh = 1 - old;
  // The `fresh` buffer was reset at the end of the previous swap.
  active_.store(fresh, std::memory_order_seq_cst);
  // Writers that saw `old` still active finish first; later ones back
  // out and retry on `fresh`, so the count only overshoots briefly.
  uint64_t entered;
  while ((entered = entered_[old].load(std::memory_order_seq_cst)) !=
         buffers_[old].Count()) {
    std::this_thread::yield();
  }
  const HistogramSummary s = buffers_[old].MakeSummary(entered);
  if (s.count >= options_.min_samples_to_publish) {
    PublishSummary(s);
  }
  buffers_[old].Reset();
  // Not a store of 0: a writer backing out may still owe its decrement.
  entered_[old].fetch_sub(entered, std::memory_order_relaxed);
  swap_count_.fetch_add(1, std::memory_order_relaxed);
}

void DualHistogram::PublishSummary(const HistogramSummary& s) {
  // Seqlock write (single writer: DoSwap() holds swap_mu_): odd version
  // while fields are inconsistent.
  const uint64_t v = version_.load(std::memory_order_relaxed);
  version_.store(v + 1, std::memory_order_relaxed);
  // Keeps the field stores below from becoming visible before the odd
  // version: a reader that sees a new field must then see v + 1 or later.
  std::atomic_thread_fence(std::memory_order_release);
  pub_count_.store(s.count, std::memory_order_relaxed);
  pub_mean_.store(s.mean, std::memory_order_relaxed);
  pub_p50_.store(s.p50, std::memory_order_relaxed);
  pub_p90_.store(s.p90, std::memory_order_relaxed);
  pub_p99_.store(s.p99, std::memory_order_relaxed);
  version_.store(v + 2, std::memory_order_release);
}

HistogramSummary DualHistogram::ReadSummary() const {
  HistogramSummary s;
  while (true) {
    const uint64_t v1 = version_.load(std::memory_order_acquire);
    if (v1 & 1) continue;  // Writer in progress.
    s.count = pub_count_.load(std::memory_order_relaxed);
    s.mean = pub_mean_.load(std::memory_order_relaxed);
    s.p50 = pub_p50_.load(std::memory_order_relaxed);
    s.p90 = pub_p90_.load(std::memory_order_relaxed);
    s.p99 = pub_p99_.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    const uint64_t v2 = version_.load(std::memory_order_relaxed);
    if (v1 == v2) return s;
  }
}

}  // namespace bouncer::stats
