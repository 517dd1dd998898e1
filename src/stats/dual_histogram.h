#ifndef BOUNCER_STATS_DUAL_HISTOGRAM_H_
#define BOUNCER_STATS_DUAL_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/stats/histogram.h"
#include "src/util/time.h"

namespace bouncer::stats {

/// Dual-buffer processing-time histogram (paper §3, footnote 4).
///
/// One histogram is read-only while a second is being populated; at the end
/// of each interval they are swapped atomically and the retired buffer is
/// reset. The readable side is condensed into a HistogramSummary published
/// through a seqlock, so the admission decision path reads mean/p50/p90 in
/// a handful of loads with no bucket walks and no locks.
///
/// Stale retention (paper Appendix A): when the populated buffer holds
/// fewer than `min_samples_to_publish` samples at swap time, the previous
/// summary is retained — "we prefer stale data to no data".
class DualHistogram {
 public:
  struct Options {
    /// Interval between buffer swaps.
    Nanos swap_interval = 100 * kMillisecond;
    /// A buffer with fewer samples than this does not replace the current
    /// published summary at swap time.
    uint64_t min_samples_to_publish = 1;
  };

  DualHistogram() : DualHistogram(Options{}) {}
  explicit DualHistogram(const Options& options);

  DualHistogram(const DualHistogram&) = delete;
  DualHistogram& operator=(const DualHistogram&) = delete;

  /// Records one sample into the buffer currently being populated.
  /// Thread-safe and lock-free; retries only when a swap flips the buffer
  /// between its two loads of the active index.
  void Record(Nanos value);

  /// Swaps buffers if `now` has passed the end of the current interval.
  /// Safe to call from many threads; at most one performs the timed swap.
  /// Returns true if this call performed a swap.
  bool MaybeSwap(Nanos now);

  /// Unconditionally swaps buffers and republishes. Used by tests and by
  /// simulation warm-up. Safe to race MaybeSwap() and other ForceSwap()
  /// calls: swaps are serialized.
  void ForceSwap();

  /// Most recently published summary (possibly empty before first swap,
  /// possibly stale under retention). Thread-safe, lock-free read.
  HistogramSummary ReadSummary() const;

  /// Samples recorded into the currently-populated buffer (approximate
  /// under concurrency).
  uint64_t ActiveCount() const {
    return buffers_[active_.load(std::memory_order_acquire)].Count();
  }

  /// Total swaps performed.
  uint64_t SwapCount() const {
    return swap_count_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

 private:
  void PublishSummary(const HistogramSummary& s);
  void DoSwap();

  Options options_;
  // Serializes DoSwap(), so the buffer flip and reset and the seqlock
  // write below each have one writer at a time. Two interleaved
  // publishers could leave `version_` odd forever and wedge every reader.
  // Swaps are rare; readers and Record() never take it.
  std::mutex swap_mu_;
  Histogram buffers_[2];
  /// Record() calls that entered each buffer since its last reset. A
  /// swap waits until the retiring buffer's bucket total catches up with
  /// this count before it summarises and resets the buffer, so no sample
  /// is split across the reset (its sum in one window, its bucket in the
  /// next).
  std::atomic<uint64_t> entered_[2];
  std::atomic<int> active_;
  std::atomic<Nanos> next_swap_;
  std::atomic<uint64_t> swap_count_;

  // Seqlock-published summary. Fields are individually atomic; the version
  // counter makes the set of fields consistent.
  mutable std::atomic<uint64_t> version_{0};
  std::atomic<uint64_t> pub_count_{0};
  std::atomic<Nanos> pub_mean_{0};
  std::atomic<Nanos> pub_p50_{0};
  std::atomic<Nanos> pub_p90_{0};
  std::atomic<Nanos> pub_p99_{0};
};

}  // namespace bouncer::stats

#endif  // BOUNCER_STATS_DUAL_HISTOGRAM_H_
